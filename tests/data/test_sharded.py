"""ShardedDataset / ShardedMembershipIndex: geometry, residency, exactness.

The sharded out-of-core path must be a pure re-arrangement of the
in-RAM dataset: every count, membership bit, and label row equal to a
plain-NumPy reference over ``LabeledDataset.mask`` (itself checked
row-at-a-time against ``matches_row``), with memory structurally bounded
by the resident-shard cap. Shard-boundary edge
cases (runs starting/ending exactly on a boundary, single-row shards,
an exact-multiple N with no trailing partial shard) get explicit tests
on top of the randomized property test.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.audit import AuditSession, IntersectionalAuditSpec
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import Negation, SuperGroup, group
from repro.data.schema import Schema
from repro.data.sharded import (
    ShardedDataset,
    ShardedMembershipIndex,
    ShardExecutor,
    bitmap_floor,
    dense_index_bytes,
)
from repro.data.synthetic import binary_dataset, intersectional_dataset
from repro.engine.requests import IndexKey
from repro.errors import InvalidParameterError, OracleError

FEMALE = group(gender="female")


@pytest.fixture
def dense():
    return binary_dataset(1_000, 37, rng=np.random.default_rng(11))


def sharded_over(dense, shard_size, **kwargs):
    return ShardedDataset.from_dataset(dense, shard_size, **kwargs)


def reference_count(dense, predicate, indices):
    """Plain-NumPy member count, independent of any index."""
    return int(dense.mask(predicate)[indices].sum())


def reference_any(dense, predicate, indices):
    """Plain-NumPy set answer, independent of any index."""
    return bool(dense.mask(predicate)[indices].any())


# ----------------------------------------------------------------------
# geometry
# ----------------------------------------------------------------------
def test_shard_geometry_with_partial_trailing_shard(dense):
    ds = sharded_over(dense, 300)
    assert len(ds) == 1_000
    assert ds.n_shards == 4
    assert [ds.shard_bounds(s) for s in range(4)] == [
        (0, 300), (300, 600), (600, 900), (900, 1_000),
    ]
    with pytest.raises(InvalidParameterError):
        ds.shard_bounds(4)


def test_exact_multiple_has_no_trailing_partial_shard(dense):
    ds = sharded_over(dense, 250)
    assert ds.n_shards == 4
    assert ds.shard_bounds(3) == (750, 1_000)
    # The last shard is full-sized; indexing one past it raises.
    with pytest.raises(InvalidParameterError):
        ds.shard_bounds(4)
    index = ShardedMembershipIndex(ds)
    run = np.arange(0, 1_000)
    assert index.count(FEMALE, IndexKey.of(run)) == reference_count(dense, FEMALE, run)


def test_empty_dataset_answers_empty():
    schema = Schema.from_dict({"gender": ["male", "female"]})
    ds = ShardedDataset.from_generator(
        schema, 0, 10, lambda s, a, b: np.empty((0, 1), dtype=np.int16)
    )
    assert ds.n_shards == 0
    index = ShardedMembershipIndex(ds)
    none = IndexKey.of(np.empty(0, dtype=np.int64))
    assert index.count(FEMALE, none) == 0
    assert index.any_match(FEMALE, none) is False
    assert index.value_rows([]) == []


def test_single_row_shards_match_dense(dense):
    ds = sharded_over(dense, 1, max_resident_shards=3)
    assert ds.n_shards == 1_000
    index = ShardedMembershipIndex(ds)
    rng = np.random.default_rng(0)
    for _ in range(30):
        a, b = sorted(int(x) for x in rng.integers(0, 1_001, size=2))
        run = np.arange(a, b)
        assert index.count(FEMALE, IndexKey.of(run)) == reference_count(dense, FEMALE, run)
    for i in (0, 17, 999):
        assert index.matches(FEMALE, i) == FEMALE.matches_row(dense.value_row(i))


# ----------------------------------------------------------------------
# residency
# ----------------------------------------------------------------------
def test_lru_residency_cap_is_respected(dense):
    ds = sharded_over(dense, 100, max_resident_shards=2)
    for s in range(ds.n_shards):
        ds.chunk(s)
    assert ds.stats.loads == 10
    assert ds.stats.evictions == 8
    assert ds.stats.resident_shards == 2
    assert ds.stats.peak_resident_shards == 2
    row_bytes = 2 * dense.schema.n_attributes
    assert ds.stats.peak_resident_bytes <= 2 * 100 * row_bytes


def test_evicted_chunks_reload_identically(dense):
    ds = sharded_over(dense, 100, max_resident_shards=1)
    first = np.array(ds.chunk(0))
    ds.chunk(5)  # evicts shard 0
    assert ds.stats.evictions >= 1
    np.testing.assert_array_equal(np.array(ds.chunk(0)), first)


def test_loader_shape_and_range_validation():
    schema = Schema.from_dict({"gender": ["male", "female"]})
    bad_shape = ShardedDataset(
        schema, 10, 5, lambda s, a, b: np.zeros((1, 1), dtype=np.int16)
    )
    with pytest.raises(InvalidParameterError, match="shape"):
        bad_shape.chunk(0)
    bad_codes = ShardedDataset(
        schema, 10, 5, lambda s, a, b: np.full((b - a, 1), 7, dtype=np.int16)
    )
    with pytest.raises(InvalidParameterError, match="outside"):
        bad_codes.chunk(0)


@pytest.mark.parametrize("bad", [-1, 2, 3])
def test_a_reload_with_bad_codes_still_raises(bad):
    """Codes are checked on every load: a loader whose codes go bad only
    when an evicted shard is read again is caught on that reload, for a
    negative code as for one past the cardinality, and the error names
    the first bad attribute."""
    schema = Schema.from_dict({"gender": ["male", "female"], "race": ["a", "b", "c"]})
    loads = []

    def loader(shard_index, start, stop):
        loads.append(shard_index)
        codes = np.zeros((stop - start, 2), dtype=np.int16)
        if loads.count(shard_index) > 1:
            codes[-1, 0] = bad
            codes[0, 1] = bad
        return codes

    ds = ShardedDataset(schema, 10, 5, loader, max_resident_shards=1)
    ds.chunk(0)
    ds.chunk(1)  # evicts shard 0
    with pytest.raises(InvalidParameterError, match="attribute 'gender' outside"):
        ds.chunk(0)
    assert loads == [0, 1, 0]


def test_constructor_validation():
    schema = Schema.from_dict({"gender": ["male", "female"]})
    loader = lambda s, a, b: np.zeros((b - a, 1), dtype=np.int16)  # noqa: E731
    with pytest.raises(InvalidParameterError):
        ShardedDataset(schema, -1, 5, loader)
    with pytest.raises(InvalidParameterError):
        ShardedDataset(schema, 10, 0, loader)
    with pytest.raises(InvalidParameterError):
        ShardedDataset(schema, 10, 5, loader, max_resident_shards=0)


def test_from_memmap_round_trip(tmp_path, dense):
    path = tmp_path / "codes.npy"
    np.save(path, dense.codes)
    ds = ShardedDataset.from_memmap(dense.schema, path, 128)
    assert len(ds) == len(dense)
    index = ShardedMembershipIndex(ds)
    run = np.arange(40, 900)
    assert index.count(FEMALE, IndexKey.of(run)) == reference_count(dense, FEMALE, run)
    assert ds.value_row(123) == dense.value_row(123)
    with pytest.raises(InvalidParameterError, match="shape"):
        ShardedDataset.from_memmap(
            Schema.from_dict({"a": ["x", "y"], "b": ["x", "y"]}), path, 128
        )


# ----------------------------------------------------------------------
# shard-boundary behavior
# ----------------------------------------------------------------------
def test_boundary_aligned_runs_touch_no_chunks(dense):
    ds = sharded_over(dense, 200, max_resident_shards=2)
    index = ShardedMembershipIndex(ds)
    index.shard_totals(FEMALE)  # streaming build pays its chunk loads
    loads_after_build = ds.stats.loads
    # Runs starting AND ending exactly on shard boundaries resolve from
    # the totals alone — no boundary shard is ever materialized.
    for start, stop in [(0, 200), (200, 800), (0, 1_000), (400, 400), (800, 1_000)]:
        run = np.arange(start, stop)
        assert index.count(FEMALE, IndexKey.of(run)) == reference_count(dense, FEMALE, run)
        assert index.any_match(FEMALE, IndexKey.of(run)) == reference_any(dense, FEMALE, run)
    assert ds.stats.loads == loads_after_build


def test_runs_starting_or_ending_on_boundary(dense):
    ds = sharded_over(dense, 128)
    index = ShardedMembershipIndex(ds)
    cases = [
        (128, 300),    # starts exactly on a boundary
        (50, 256),     # ends exactly on a boundary
        (128, 256),    # both aligned, single whole shard
        (127, 129),    # straddles a boundary by one row each side
        (255, 256),    # last row of a shard
        (256, 257),    # first row of a shard
        (900, 1_000),  # into the trailing partial shard
    ]
    for start, stop in cases:
        run = np.arange(start, stop)
        assert index.count(FEMALE, IndexKey.of(run)) == reference_count(dense, FEMALE, run), (
            start, stop,
        )


@pytest.mark.parametrize("predicate", [FEMALE, Negation(FEMALE)])
def test_run_and_scattered_keys_of_one_range_answer_alike(dense, predicate):
    """A run key (prefix path) and a scattered key over the same content
    (gather path) give identical answers, across shard boundaries."""
    index = ShardedMembershipIndex(sharded_over(dense, 96))
    for a, b in [(0, 1), (95, 97), (100, 500), (96, 192), (0, 1_000), (990, 1_000)]:
        run_key = IndexKey.of_run(a, b)
        scattered_key = IndexKey.of_scattered(np.arange(a, b, dtype=np.int64))
        assert run_key.is_run and not scattered_key.is_run
        assert index.count(predicate, run_key) == index.count(
            predicate, scattered_key
        ) == reference_count(dense, predicate, np.arange(a, b))
        assert index.any_match(predicate, run_key) == index.any_match(
            predicate, scattered_key
        )
        assert index.any_match_batch([(predicate, run_key)]) == index.any_match_batch(
            [(predicate, scattered_key)]
        )


# ----------------------------------------------------------------------
# the randomized property: sharded == plain NumPy on random views
# ----------------------------------------------------------------------
@pytest.mark.parametrize("shard_size", [1, 7, 64, 250, 1_000, 4_096])
@pytest.mark.parametrize("mode", ["serial", "threads"])
def test_property_sharded_equals_dense_on_random_views(shard_size, mode):
    """Every query surface equals the plain-NumPy reference over the
    in-RAM dataset, at every shard geometry and executor mode."""
    rng = np.random.default_rng(shard_size * 31 + (mode == "threads"))
    schema = Schema.from_dict(
        {"gender": ["male", "female"], "race": ["white", "black"]}
    )
    n = 1_000
    joint = {
        ("male", "white"): n - 90,
        ("female", "white"): 40,
        ("male", "black"): 30,
        ("female", "black"): 20,
    }
    dense = intersectional_dataset(schema, joint, rng=rng)
    with ShardExecutor(mode=mode, max_workers=3) as executor:
        index = ShardedMembershipIndex(
            ShardedDataset.from_dataset(dense, shard_size, max_resident_shards=2),
            executor=executor,
        )
        predicates = [
            group(gender="female"),
            group(gender="female", race="black"),
            SuperGroup([group(race="black"), group(gender="female")]),
            Negation(group(gender="male")),
        ]
        for predicate in predicates:
            # The reference mask itself agrees with row-at-a-time matching.
            assert dense.mask(predicate).tolist() == [
                predicate.matches_row(dense.value_row(i)) for i in range(n)
            ]
            queries = []
            for _ in range(40):
                if rng.random() < 0.5:
                    a, b = sorted(int(x) for x in rng.integers(0, n + 1, size=2))
                    indices = np.arange(a, b)
                else:
                    k = int(rng.integers(0, 40))
                    indices = np.sort(rng.choice(n, size=k, replace=False))
                queries.append((indices, predicate))
                key = IndexKey.of(indices)
                assert index.count(predicate, key) == reference_count(
                    dense, predicate, indices
                )
                assert index.any_match(predicate, key) == reference_any(
                    dense, predicate, indices
                )
            expected = [reference_any(dense, p, i) for i, p in queries]
            assert index.any_match_batch(
                [(p, IndexKey.of(i)) for i, p in queries]
            ) == expected
        starts = rng.integers(0, n // 2, size=25)
        stops = starts + rng.integers(0, n // 2, size=25)
        np.testing.assert_array_equal(
            index.any_match_runs(predicates[0], starts, stops),
            [
                reference_any(dense, predicates[0], np.arange(a, b))
                for a, b in zip(starts, stops)
            ],
        )


# ----------------------------------------------------------------------
# rows and labels
# ----------------------------------------------------------------------
def test_value_rows_match_dense_and_validate_bounds(dense):
    ds = sharded_over(dense, 333)
    index = ShardedMembershipIndex(ds)
    picks = [0, 332, 333, 334, 999, 500]
    assert index.value_rows(picks) == [dense.value_row(i) for i in picks]
    with pytest.raises(OracleError, match="out of range"):
        index.value_rows([5, -1])
    with pytest.raises(OracleError, match="out of range"):
        index.value_rows([1_000])
    assert ds.value_row(999) == dense.value_row(999)
    with pytest.raises(OracleError):
        ds.value_row(-1)


# ----------------------------------------------------------------------
# executor and plumbing
# ----------------------------------------------------------------------
def test_shard_executor_modes_and_validation():
    # Invalid mode strings fail fast at construction, not at first use.
    with pytest.raises(InvalidParameterError, match="mode"):
        ShardExecutor(mode="gpu")
    with pytest.raises(InvalidParameterError, match="mode"):
        ShardExecutor(mode="thread")  # close-but-wrong singular form
    with pytest.raises(InvalidParameterError, match="serial/threads"):
        ShardExecutor(mode="processes")  # no process pool: threads is the parallel mode
    with pytest.raises(InvalidParameterError):
        ShardExecutor(max_workers=0)
    serial = ShardExecutor()
    assert serial.map(lambda x: x + 1, range(5)) == [1, 2, 3, 4, 5]
    serial.close()  # no-op
    with ShardExecutor(mode="threads", max_workers=2) as threaded:
        assert threaded.map(lambda x: x * 2, range(10)) == [x * 2 for x in range(10)]


def test_for_dataset_caches_one_index_per_dataset(dense):
    ds = sharded_over(dense, 100)
    first = ShardedMembershipIndex.for_dataset(ds)
    assert ShardedMembershipIndex.for_dataset(ds) is first
    assert first.dataset is ds
    in_ram = ShardedMembershipIndex.for_dataset(dense)
    assert ShardedMembershipIndex.for_dataset(dense) is in_ram
    assert in_ram is not first and in_ram.dataset.n_shards == 1


def test_memory_report_stays_under_structural_cap(dense):
    # 100-row shards budget two 404-byte prefix tables; single-row shards
    # budget 16 bytes, below one 128-byte bitmap, so they take the floor:
    # a bitmap per schema value plus a rank directory, never evicted here.
    for shard_size in (100, 1):
        ds = sharded_over(dense, shard_size, max_resident_shards=2)
        index = ShardedMembershipIndex(ds)
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, b = sorted(int(x) for x in rng.integers(0, 1_001, size=2))
            index.count(FEMALE, IndexKey.of_run(a, b))
        report = index.memory_report()
        assert report["peak_tracked_bytes"] <= report["cap_bytes"]
        assert report["cap_bytes"] >= bitmap_floor(ds)
        assert report["bitmap_builds"] == 1 and report["bitmap_evictions"] == 0
        assert report["peak_tracked_bytes"] < dense_index_bytes(
            len(dense), dense.schema.n_attributes, 1
        )
        assert report["chunk_loads"] >= ds.n_shards  # at least the totals build


def test_out_of_range_queries_raise_instead_of_clamping(dense):
    """Out-of-range queries must raise OracleError over sharded and
    in-RAM datasets alike — never clamp, never wrap through numpy
    negative indexing."""
    for index in (
        ShardedMembershipIndex(sharded_over(dense, 137)),
        ShardedMembershipIndex.for_dataset(dense),
    ):
        with pytest.raises(OracleError, match="outside dataset"):
            index.count(FEMALE, IndexKey.of(np.arange(990, 1_010)))
        with pytest.raises(OracleError, match="outside dataset"):
            index.any_match(FEMALE, IndexKey.of_run(990, 1_010))
        with pytest.raises(OracleError, match="out of range"):
            index.count(FEMALE, IndexKey.of(np.array([-5, 3], dtype=np.int64)))
        with pytest.raises(OracleError, match="out of range"):
            index.any_match(FEMALE, IndexKey.of(np.array([3, 1_000], dtype=np.int64)))
        with pytest.raises(OracleError, match="out of range"):
            index.matches(FEMALE, -1)
        with pytest.raises(OracleError, match="outside dataset"):
            index.any_match_runs(FEMALE, np.array([-1]), np.array([5]))
        with pytest.raises(OracleError):
            index.any_match_batch(
                [(FEMALE, IndexKey.of(np.array([3, -2], dtype=np.int64)))]
            )


def test_invalid_predicate_validated_against_schema(dense):
    index = ShardedMembershipIndex(sharded_over(dense, 100))
    with pytest.raises(Exception):
        index.count(group(nonexistent="value"), IndexKey.of_run(0, 10))


# ----------------------------------------------------------------------
# stats accounting under the thread pool (RPL007 satellite)
# ----------------------------------------------------------------------
def test_shard_stats_exact_under_threaded_totals_build(dense):
    """``ShardStats`` counters stay exact when chunk loads race on the
    executor's thread pool: each shard of a totals build is touched by
    exactly one task, so ``loads`` must equal ``n_shards`` — a single
    lost ``+= 1`` under contention breaks the equality. Chunks become
    resident in shard order whatever order the workers finish in, so the
    build leaves the last shards resident, and two threads-mode runs of
    one audit record the counters of a serial run."""
    for _ in range(5):  # repeat: a torn increment is probabilistic
        with ShardExecutor(mode="threads", max_workers=8) as executor:
            ds = sharded_over(dense, 25, max_resident_shards=3)
            index = ShardedMembershipIndex(ds, executor=executor)
            index.shard_totals(FEMALE)
            stats = ds.stats
            assert stats.loads == ds.n_shards
            assert stats.resident_shards == 3
            assert stats.evictions == stats.loads - stats.resident_shards
            assert stats.peak_resident_shards <= ds.max_resident_shards
            assert stats.resident_bytes <= stats.peak_resident_bytes
            assert [s for s in range(ds.n_shards) if ds._peek(s) is not None] == [37, 38, 39]

    schema = Schema.from_dict({"gender": ["male", "female"], "race": ["white", "black"]})
    joint = {
        ("male", "white"): 700, ("female", "white"): 200,
        ("male", "black"): 60, ("female", "black"): 40,
    }
    audited = intersectional_dataset(schema, joint, rng=np.random.default_rng(5))

    def counters(mode: str) -> tuple[int, int]:
        with ShardExecutor(mode=mode, max_workers=4) as executor:
            ds = ShardedDataset.from_dataset(
                audited, 60, executor=executor, max_resident_shards=2
            )
            oracle = GroundTruthOracle(ds)
            with AuditSession(oracle, seed=3) as session:
                session.run(IntersectionalAuditSpec(schema=schema, tau=30))
            report = oracle.membership_index.memory_report()
            return report["chunk_loads"], report["chunk_evictions"]

    serial = counters("serial")
    assert serial[0] > ds.n_shards  # point answers reload chunks after the build
    assert counters("threads") == counters("threads") == serial


def test_shard_stats_identity_under_contended_same_shard_loads(dense):
    """Many raw threads hammering ``chunk()`` over a shard set larger
    than the residency cap: ``loads`` is not deterministic (the loser of
    a racing pair counts in ``raced_loads`` instead, per the chunk()
    contract) — but the conservation law ``loads - evictions ==
    resident_shards`` and the byte ledger must hold exactly."""
    ds = sharded_over(dense, 50, max_resident_shards=4)
    barrier = threading.Barrier(8)

    def hammer(seed: int) -> None:
        order = np.random.default_rng(seed).permutation(ds.n_shards)
        barrier.wait()
        for _ in range(3):
            for shard in order:
                ds.chunk(int(shard))

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats = ds.stats
    assert stats.loads >= ds.n_shards  # every shard materialized at least once
    assert stats.resident_shards == 4
    assert stats.loads - stats.evictions == stats.resident_shards
    # 1000 rows / shard_size 50 → every shard is full-sized, so the byte
    # ledger is exactly 4 chunks of (50 × d) int16 codes.
    chunk_bytes = 50 * ds.schema.n_attributes * np.dtype(np.int16).itemsize
    assert stats.resident_bytes == 4 * chunk_bytes
    assert stats.resident_bytes <= stats.peak_resident_bytes


def test_raced_load_counts_apart_from_resident_loads(dense):
    """Two threads load one shard at once (the loader holds each until
    both are inside it): one chunk becomes resident and counts in
    ``loads``, the other is dropped and counts in ``raced_loads``, so
    the conservation law holds exactly."""
    barrier = threading.Barrier(2, timeout=10)

    def loader(shard_index: int, start: int, stop: int) -> np.ndarray:
        barrier.wait()
        return np.array(dense.codes[start:stop], dtype=np.int16)

    ds = ShardedDataset(dense.schema, len(dense), 100, loader, max_resident_shards=4)
    chunks = [None, None]

    def load(slot: int) -> None:
        chunks[slot] = ds.chunk(3)

    threads = [threading.Thread(target=load, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert chunks[0] is chunks[1]
    stats = ds.stats
    assert (stats.loads, stats.raced_loads) == (1, 1)
    assert stats.loads - stats.evictions == stats.resident_shards == 1


# ----------------------------------------------------------------------
# batches answer from bitmaps, in every executor mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["serial", "threads"])
def test_batch_equals_dense_and_loads_no_chunk_once_bitmaps_are_built(tmp_path, mode):
    """Five shards, two resident, a two-table budget (808 bytes, room
    for every 64-byte bitmap here): one batch mixing boundary-crossing
    runs, scattered keys over 3+ shards and empty keys of three
    predicates equals the dense masks, and once the streaming build has
    run it loads no chunk in any mode. A bad key fails the batch before
    any work: no chunk loads, no bitmap builds."""
    schema = Schema.from_dict(
        {"gender": ["male", "female"], "race": ["white", "black", "asian"]}
    )
    joint = {
        ("male", "white"): 330, ("female", "white"): 80, ("male", "black"): 30,
        ("female", "black"): 20, ("male", "asian"): 25, ("female", "asian"): 15,
    }
    dense = intersectional_dataset(schema, joint, rng=np.random.default_rng(4))
    path = tmp_path / "codes.npy"
    np.save(path, dense.codes)
    predicates = [
        group(gender="female", race="black"),
        SuperGroup([group(race="black"), group(gender="female", race="asian")]),
        Negation(group(gender="male")),
    ]
    keys = [
        IndexKey.of_run(50, 250),  # crosses two boundaries
        IndexKey.of_run(190, 210),
        IndexKey.of(np.array([5, 130, 260, 420], dtype=np.int64)),
        IndexKey.of(np.array([101, 102, 350, 351, 499], dtype=np.int64)),
        IndexKey.of(np.arange(0, 500, 37)),
        IndexKey.of_run(7, 7),
        IndexKey.of(np.empty(0, dtype=np.int64)),
    ]
    queries = [(p, key) for p in predicates for key in keys]
    expected = [bool(dense.mask(p)[key.to_array()].any()) for p, key in queries]
    with ShardExecutor(mode=mode, max_workers=2) as executor:
        ds = ShardedDataset.from_memmap(
            schema, path, 100, executor=executor, max_resident_shards=2
        )
        index = ShardedMembershipIndex(ds)
        loads = ds.stats.loads
        for bad in (IndexKey.of(np.array([3, 500], dtype=np.int64)), IndexKey.of_run(450, 501)):
            with pytest.raises(OracleError):
                index.any_match_batch(queries + [(predicates[0], bad)])
        assert ds.stats.loads == loads  # range-checked before any work
        assert index.memory_report()["bitmap_builds"] == 0
        index.build_totals(predicates)
        report = index.memory_report()
        assert report["bitmap_builds"] == 4 and report["bitmap_evictions"] == 0
        loads = ds.stats.loads
        assert index.any_match_batch(queries) == expected
        for p, key in queries:
            assert index.count(p, key) == int(dense.mask(p)[key.to_array()].sum())
        assert ds.stats.loads == loads


# ----------------------------------------------------------------------
# failures and the build window, in every executor mode
# ----------------------------------------------------------------------
@pytest.mark.parametrize("mode", ["serial", "threads"])
def test_a_failing_mapped_function_propagates_as_is_and_the_executor_maps_again(mode):
    def square_unless_three(x: int) -> int:
        if x == 3:
            raise KeyError(x)
        return x * x

    with ShardExecutor(mode=mode, max_workers=2) as executor:
        with pytest.raises(KeyError):
            executor.map(square_unless_three, range(6))
        assert executor.map(square_unless_three, [0, 1, 2, 4]) == [0, 1, 4, 16]


@pytest.mark.parametrize(
    "mode, ledger",
    # (loads, evictions, resident shards) at the failure: a serial pass
    # admits shards 0-2 one at a time; threads packs windows of two and
    # admits neither shard of the failed window [2, 3].
    [("serial", (3, 1, 2)), ("threads", (2, 0, 2))],
)
def test_loader_failure_mid_build_surfaces_and_a_retry_is_exact(mode, ledger):
    """A loader that raises on shard 3 fails the build with its own
    error, builds no bitmap, and leaves the residency ledger consistent;
    once it is disarmed, the same index and executor build totals equal
    to a serial build."""
    schema = Schema.from_dict({"gender": ["male", "female"]})
    armed = True

    def generate(shard_index: int, start: int, stop: int) -> np.ndarray:
        if armed and shard_index == 3:
            raise OSError("shard 3 unreadable")
        rows = np.arange(start, stop, dtype=np.int64)
        return ((rows * 2654435761 + 99 * 97) % 10_007 % 2).astype(np.int16)[:, None]

    with ShardExecutor(mode=mode, max_workers=2) as executor:
        ds = ShardedDataset.from_generator(
            schema, 800, 100, generate, executor=executor, max_resident_shards=2
        )
        index = ShardedMembershipIndex(ds)
        with pytest.raises(OSError, match="shard 3 unreadable"):
            index.shard_totals(FEMALE)
        assert index.memory_report()["bitmap_builds"] == 0
        stats = ds.stats
        assert (stats.loads, stats.evictions, stats.resident_shards) == ledger
        assert stats.loads - stats.evictions == stats.resident_shards
        armed = False
        totals = index.shard_totals(FEMALE)
    serial = ShardedMembershipIndex(
        ShardedDataset.from_generator(schema, 800, 100, generate)
    ).shard_totals(FEMALE)
    np.testing.assert_array_equal(totals, serial)


def test_from_memmap_codes_are_checked_on_every_threaded_load(tmp_path):
    """The memmap loader goes through the same code-range check as any
    loader: a bad code in shard 2 fails a threads-mode build before any
    bitmap is kept."""
    schema = Schema.from_dict({"gender": ["male", "female"]})
    codes = np.zeros((500, 1), dtype=np.int16)
    codes[250, 0] = 2
    path = tmp_path / "codes.npy"
    np.save(path, codes)
    with ShardExecutor(mode="threads", max_workers=2) as executor:
        ds = ShardedDataset.from_memmap(
            schema, path, 100, executor=executor, max_resident_shards=2
        )
        index = ShardedMembershipIndex(ds)
        with pytest.raises(InvalidParameterError, match="attribute 'gender' outside"):
            index.shard_totals(FEMALE)
        assert index.memory_report()["bitmap_builds"] == 0


def test_threaded_build_holds_no_more_chunks_than_the_residency_cap(dense):
    """Four workers but two resident shards: a build packs windows of
    two, so no more than two loads are ever in flight (each load lingers
    so that a wider window would overlap), the LRU never holds more than
    two chunks, and the memory cap is the serial one."""
    in_flight = 0
    peak_in_flight = 0
    lock = threading.Lock()

    def loader(shard_index: int, start: int, stop: int) -> np.ndarray:
        nonlocal in_flight, peak_in_flight
        with lock:
            in_flight += 1
            peak_in_flight = max(peak_in_flight, in_flight)
        try:
            time.sleep(0.01)
            return np.array(dense.codes[start:stop], dtype=np.int16)
        finally:
            with lock:
                in_flight -= 1

    caps = {}
    for mode in ("serial", "threads"):
        with ShardExecutor(mode=mode, max_workers=4) as executor:
            ds = ShardedDataset(
                dense.schema, len(dense), 100, loader, executor=executor, max_resident_shards=2
            )
            index = ShardedMembershipIndex(ds)
            np.testing.assert_array_equal(
                index.shard_totals(FEMALE),
                [reference_count(dense, FEMALE, np.arange(0, min(s * 100, 1_000)))
                 for s in range(ds.n_shards + 1)],
            )
            report = index.memory_report()
        assert ds.stats.loads == ds.n_shards
        assert ds.stats.peak_resident_shards <= 2
        assert report["peak_tracked_bytes"] <= report["cap_bytes"]
        caps[mode] = report["cap_bytes"]
    assert peak_in_flight <= 2
    assert caps["threads"] == caps["serial"]
