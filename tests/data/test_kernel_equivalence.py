"""Differential harness: executor modes are bit-identical, and killed
pool workers surface as library errors.

``serial`` is the reference implementation; ``threads`` and
``processes`` must be pure re-schedulings of it. Over randomized
schemas, predicates, shard sizes, and query shapes, every surface of the
sharded index — ``count`` / ``any_match`` / ``any_match_runs`` /
``any_match_batch`` / ``matches`` / ``value_rows`` — must return
bit-identical answers in all three modes (and match a plain-NumPy
reference over the in-RAM dataset, as does the in-RAM dataset's own
one-shard index),
and the ``ShardStats`` ledger must agree wherever execution is
deterministic (serial, and threaded builds that cannot evict). The chaos
section SIGKILLs a live pool worker mid-build and requires a
:class:`~repro.errors.ShardExecutionError` — never a hang or a bare
``BrokenProcessPool`` — with a bit-identical retry on a fresh executor,
mirroring the serving layer's kill/resume conformance suite.
"""

from __future__ import annotations

import functools
import os
import signal

import numpy as np
import pytest

from repro.data.dataset import LabeledDataset
from repro.data.groups import Negation, SuperGroup, group
from repro.data.schema import Schema
from repro.data.sharded import (
    ShardedDataset,
    ShardedMembershipIndex,
    ShardExecutor,
)
from repro.errors import InvalidParameterError, ReproError, ShardExecutionError

FEMALE = group(gender="female")


# ----------------------------------------------------------------------
# deterministic chunk generation (module-level: must pickle)
# ----------------------------------------------------------------------
def _chunk_rows(seed: int, cards: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Rows [start, stop) of the synthetic code matrix for ``seed``.

    Row content depends only on (seed, global row index), never on shard
    geometry, so every substrate — dense, generator-sharded at any shard
    size, pool workers regenerating after eviction — sees identical data.
    """
    rows = np.arange(start, stop, dtype=np.int64)
    codes = np.empty((stop - start, len(cards)), dtype=np.int16)
    for j, card in enumerate(cards):
        # A cheap splitmix-style hash: deterministic, seed-sensitive,
        # uneven enough to exercise both sparse and dense predicates.
        h = (rows * 2654435761 + seed * 97 + j * 1013) % 10_007
        codes[:, j] = (h % card).astype(np.int16)
    return codes


def _generate_chunk(
    seed: int, cards: tuple[int, ...], shard_index: int, start: int, stop: int
) -> np.ndarray:
    return _chunk_rows(seed, cards, start, stop)


def _make_case(seed: int):
    """One randomized differential case: schema, data, predicates, queries."""
    rng = np.random.default_rng(seed)
    n_attributes = int(rng.integers(1, 4))
    cards = tuple(int(rng.integers(2, 5)) for _ in range(n_attributes))
    schema = Schema.from_dict(
        {
            f"attr{j}": [f"v{j}_{c}" for c in range(card)]
            for j, card in enumerate(cards)
        }
    )
    n_objects = int(rng.integers(200, 1_500))
    shard_size = int(rng.integers(7, n_objects + 1))
    codes = _chunk_rows(seed, cards, 0, n_objects)

    def random_group():
        picked = rng.choice(n_attributes, size=int(rng.integers(1, n_attributes + 1)),
                            replace=False)
        return group(**{
            f"attr{j}": f"v{j}_{int(rng.integers(0, cards[j]))}" for j in picked
        })

    predicates = [random_group(), random_group()]
    predicates.append(SuperGroup((random_group(), random_group())))
    predicates.append(Negation(random_group()))

    runs = []
    for _ in range(6):
        a, b = sorted(int(x) for x in rng.integers(0, n_objects + 1, size=2))
        runs.append((a, b))
    runs.append((0, n_objects))  # full range
    # Shard-aligned run (answerable from totals alone).
    if n_objects > shard_size:
        runs.append((shard_size, (n_objects // shard_size) * shard_size))
    scattereds = [
        np.sort(rng.choice(n_objects, size=int(rng.integers(1, 60)), replace=False))
        for _ in range(3)
    ]
    points = [int(x) for x in rng.integers(0, n_objects, size=8)]
    return schema, cards, n_objects, shard_size, codes, predicates, runs, scattereds, points


def _answer_surface(index, predicates, runs, scattereds, points):
    """Every query surface of one index, flattened into a comparable list."""
    answers = []
    for predicate in predicates:
        for a, b in runs:
            answers.append(index.count(predicate, np.arange(a, b)))
            answers.append(index.any_match(predicate, np.arange(a, b)))
        starts = np.array([a for a, _ in runs], dtype=np.int64)
        stops = np.array([b for _, b in runs], dtype=np.int64)
        answers.append(index.any_match_runs(predicate, starts, stops).tolist())
        for indices in scattereds:
            answers.append(index.count(predicate, indices))
        for point in points:
            answers.append(index.matches(predicate, point))
    batch = [(np.arange(a, b), p) for p in predicates for a, b in runs[:3]]
    batch += [(s, p) for p in predicates[:2] for s in scattereds]
    answers.append(index.any_match_batch(batch))
    answers.append(index.value_rows(points))
    return answers


def _reference_surface(dense, predicates, runs, scattereds, points):
    """:func:`_answer_surface`'s list, computed with plain NumPy over the
    in-RAM dataset's masks — independent of any index."""
    answers = []
    for predicate in predicates:
        mask = dense.mask(predicate)
        for a, b in runs:
            answers.append(int(mask[a:b].sum()))
            answers.append(bool(mask[a:b].any()))
        answers.append([bool(mask[a:b].any()) for a, b in runs])
        for indices in scattereds:
            answers.append(int(mask[indices].sum()))
        for point in points:
            answers.append(bool(mask[point]))
    batch = [(np.arange(a, b), p) for p in predicates for a, b in runs[:3]]
    batch += [(s, p) for p in predicates[:2] for s in scattereds]
    answers.append([bool(dense.mask(p)[indices].any()) for indices, p in batch])
    answers.append([dense.value_row(point) for point in points])
    return answers


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_executor_modes_are_bit_identical(seed, tmp_path):
    (schema, cards, n_objects, shard_size, codes,
     predicates, runs, scattereds, points) = _make_case(seed)

    dense = LabeledDataset(schema, codes)
    reference = _reference_surface(dense, predicates, runs, scattereds, points)

    generate = functools.partial(_generate_chunk, seed, cards)
    path = str(tmp_path / f"codes_{seed}.npy")
    np.save(path, codes)

    surfaces = {
        "in-ram": _answer_surface(
            ShardedMembershipIndex.for_dataset(dense),
            predicates, runs, scattereds, points,
        ),
    }
    serial_ds = ShardedDataset.from_generator(
        schema, n_objects, shard_size, generate, max_resident_shards=2
    )
    surfaces["serial"] = _answer_surface(
        ShardedMembershipIndex(serial_ds), predicates, runs, scattereds, points
    )
    with ShardExecutor(mode="threads", max_workers=3) as threaded:
        ds = ShardedDataset.from_generator(
            schema, n_objects, shard_size, generate,
            executor=threaded, max_resident_shards=2,
        )
        surfaces["threads"] = _answer_surface(
            ShardedMembershipIndex.for_dataset(ds),
            predicates, runs, scattereds, points,
        )
    with ShardExecutor(mode="processes", max_workers=2) as pooled:
        ds = ShardedDataset.from_memmap(
            schema, path, shard_size, executor=pooled, max_resident_shards=2
        )
        surfaces["processes"] = _answer_surface(
            ShardedMembershipIndex.for_dataset(ds),
            predicates, runs, scattereds, points,
        )

    for mode, answers in surfaces.items():
        assert answers == reference, f"{mode} diverged from NumPy at seed {seed}"


@pytest.mark.parametrize("seed", [5, 6])
def test_shard_stats_accounting_identical_where_deterministic(seed):
    """Serial and threaded builds ledger identically when nothing can
    evict: each shard loads exactly once, the peak equals the shard
    count, and re-running the same queries serially reproduces the exact
    same counters."""
    (schema, cards, n_objects, shard_size, codes,
     predicates, runs, scattereds, points) = _make_case(seed)
    generate = functools.partial(_generate_chunk, seed, cards)
    n_shards = -(-n_objects // shard_size)

    ledgers = {}
    for mode in ("serial", "serial-again", "threads"):
        executor = (
            ShardExecutor(mode="threads", max_workers=3)
            if mode == "threads"
            else ShardExecutor()
        )
        with executor:
            ds = ShardedDataset.from_generator(
                schema, n_objects, shard_size, generate,
                executor=executor, max_resident_shards=n_shards,
            )
            index = ShardedMembershipIndex.for_dataset(ds)
            _answer_surface(index, predicates, runs, scattereds, points)
            ledgers[mode] = (
                ds.stats.loads,
                ds.stats.evictions,
                ds.stats.resident_shards,
                ds.stats.peak_resident_shards,
                ds.stats.resident_bytes,
                ds.stats.peak_resident_bytes,
            )
    assert ledgers["serial"] == ledgers["serial-again"]
    assert ledgers["serial"] == ledgers["threads"]
    loads, evictions = ledgers["serial"][0], ledgers["serial"][1]
    assert loads == n_shards  # fused build touches each chunk exactly once
    assert evictions == 0


def test_processes_mode_requires_picklable_source():
    schema = Schema.from_dict({"gender": ["male", "female"]})
    with ShardExecutor(mode="processes") as executor:
        with pytest.raises(InvalidParameterError, match="pickl"):
            ShardedDataset.from_generator(
                schema, 100, 25,
                lambda s, a, b: np.zeros((b - a, 1), dtype=np.int16),
                executor=executor,
            )
        dense = LabeledDataset(schema, np.zeros((100, 1), dtype=np.int16))
        with pytest.raises(InvalidParameterError, match="chunk source"):
            ShardedDataset.from_dataset(dense, 25, executor=executor)


# ----------------------------------------------------------------------
# chaos: a pool worker dies mid-build
# ----------------------------------------------------------------------
def _killer_chunk(
    flag_path: str, shard_index: int, start: int, stop: int
) -> np.ndarray:
    """Generate rows, but SIGKILL the calling process the first time
    shard 1 is requested (the flag file makes the kill one-shot, so a
    retry on a fresh pool generates normally)."""
    if shard_index == 1 and not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("killed")
            fh.flush()
            os.fsync(fh.fileno())
        os.kill(os.getpid(), signal.SIGKILL)
    return _chunk_rows(99, (2,), start, stop)


def test_sigkill_mid_build_surfaces_library_error_and_retry_is_identical(tmp_path):
    schema = Schema.from_dict({"gender": ["male", "female"]})
    generate = functools.partial(_killer_chunk, str(tmp_path / "killed.flag"))

    with ShardExecutor(mode="processes", max_workers=1) as executor:
        ds = ShardedDataset.from_generator(
            schema, 400, 100, generate, executor=executor
        )
        index = ShardedMembershipIndex.for_dataset(ds)
        with pytest.raises(ShardExecutionError, match="worker died") as caught:
            index.shard_totals(FEMALE)
        # A single `except ReproError` clause catches it, and the
        # original BrokenProcessPool rides along as the cause.
        assert isinstance(caught.value, ReproError)
        assert caught.value.__cause__ is not None

    # Retry on a fresh executor (the flag file disarms the kill):
    # bit-identical to the serial reference build.
    with ShardExecutor(mode="processes", max_workers=1) as executor:
        ds = ShardedDataset.from_generator(
            schema, 400, 100, generate, executor=executor
        )
        retried = ShardedMembershipIndex.for_dataset(ds).shard_totals(FEMALE)
    serial_ds = ShardedDataset.from_generator(schema, 400, 100, generate)
    reference = ShardedMembershipIndex(serial_ds).shard_totals(FEMALE)
    np.testing.assert_array_equal(retried, reference)


def test_executor_recovers_with_fresh_pool_after_worker_death(tmp_path):
    """The *same* executor object discards its broken pool and can map
    again — later builds lazily spin up a fresh pool."""
    schema = Schema.from_dict({"gender": ["male", "female"]})
    generate = functools.partial(
        _killer_chunk, str(tmp_path / "killed2.flag")
    )
    with ShardExecutor(mode="processes", max_workers=1) as executor:
        ds = ShardedDataset.from_generator(
            schema, 400, 100, generate, executor=executor
        )
        index = ShardedMembershipIndex.for_dataset(ds)
        with pytest.raises(ShardExecutionError):
            index.shard_totals(FEMALE)
        # Same executor, fresh pool, disarmed generator: exact answer.
        totals = index.shard_totals(FEMALE)
        serial = ShardedMembershipIndex(
            ShardedDataset.from_generator(schema, 400, 100, generate)
        ).shard_totals(FEMALE)
        np.testing.assert_array_equal(totals, serial)
