"""The membership index over in-RAM datasets: one shard, every predicate
pinned, answers equal to a plain-NumPy reference and row-at-a-time."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import AuditSession, IntersectionalAuditSpec
from repro.crowd.oracle import GroundTruthOracle
from repro.data.dataset import LabeledDataset
from repro.data.groups import Negation, SuperGroup, group
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex, as_run
from repro.data.synthetic import binary_dataset, intersectional_dataset
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")


@pytest.fixture
def dataset(rng):
    return binary_dataset(500, 60, rng=rng)


@pytest.fixture
def multi_dataset(rng):
    schema = Schema.from_dict(
        {"gender": ["male", "female"], "race": ["white", "black", "asian"]}
    )
    joint = {
        ("male", "white"): 200,
        ("female", "white"): 90,
        ("male", "black"): 40,
        ("female", "black"): 12,
        ("female", "asian"): 8,
    }
    return intersectional_dataset(schema, joint, rng=rng)


class TestAsRun:
    def test_detects_contiguous_ascending(self):
        assert as_run(np.arange(5, 12)) == (5, 12)
        assert as_run(np.array([3])) == (3, 4)

    def test_rejects_non_runs(self):
        assert as_run(np.array([], dtype=np.int64)) is None
        assert as_run(np.array([1, 3])) is None
        assert as_run(np.array([2, 1])) is None
        assert as_run(np.array([1, 2, 2, 3])) is None
        # Same endpoints/length as a run, but not ascending by 1.
        assert as_run(np.array([0, 2, 1, 3])) is None


class TestMembershipIndex:
    def test_shared_per_dataset(self, dataset):
        assert (
            ShardedMembershipIndex.for_dataset(dataset)
            is ShardedMembershipIndex.for_dataset(dataset)
        )

    def test_dense_dataset_is_one_shard_over_its_own_codes(self, dataset):
        shards = ShardedMembershipIndex.for_dataset(dataset).dataset
        assert (shards.n_shards, len(shards)) == (1, len(dataset))
        chunk = shards.chunk(0)
        assert np.shares_memory(chunk, dataset.codes)  # a view, not a copy
        assert not chunk.flags.writeable

    def test_prefix_counts_match_mask(self, dataset):
        index = ShardedMembershipIndex.for_dataset(dataset)
        mask = dataset.mask(FEMALE)
        counts = [index.count(FEMALE, np.arange(0, i)) for i in range(len(dataset) + 1)]
        assert counts[0] == 0
        assert counts[-1] == mask.sum()
        assert np.array_equal(np.diff(counts), mask.astype(np.int64))

    @pytest.mark.parametrize("predicate", [
        FEMALE,
        Negation(FEMALE),
        SuperGroup([group(gender="female"), group(gender="male")]),
    ])
    def test_any_match_equals_row_at_a_time(self, dataset, rng, predicate):
        index = ShardedMembershipIndex.for_dataset(dataset)
        mask = dataset.mask(predicate)
        for _ in range(50):
            if rng.random() < 0.5:  # contiguous run
                start = int(rng.integers(0, len(dataset)))
                stop = int(rng.integers(start, len(dataset) + 1))
                indices = np.arange(start, stop)
            else:  # scattered
                size = int(rng.integers(0, 40))
                indices = rng.choice(len(dataset), size=size, replace=False)
            expected = any(
                predicate.matches_row(dataset.value_row(int(i))) for i in indices
            )
            assert index.any_match(predicate, indices) == expected
            assert expected == bool(mask[indices].any())
            assert index.count(predicate, indices) == int(mask[indices].sum())

    def test_any_match_batch_mixes_runs_and_scatter(self, multi_dataset, rng):
        index = ShardedMembershipIndex.for_dataset(multi_dataset)
        predicates = [
            group(race="black"),
            group(gender="female", race="asian"),
            Negation(group(gender="male")),
        ]
        queries = []
        for _ in range(120):
            predicate = predicates[int(rng.integers(len(predicates)))]
            shape = rng.random()
            if shape < 0.4:
                start = int(rng.integers(0, len(multi_dataset)))
                stop = int(rng.integers(start, len(multi_dataset) + 1))
                indices = np.arange(start, stop)
            elif shape < 0.8:
                size = int(rng.integers(1, 30))
                indices = rng.choice(len(multi_dataset), size=size, replace=False)
            else:
                indices = np.empty(0, dtype=np.int64)
            queries.append((indices, predicate))
        answers = index.any_match_batch(queries)
        for (indices, predicate), answer in zip(queries, answers):
            expected = any(
                predicate.matches_row(multi_dataset.value_row(int(i)))
                for i in indices
            )
            assert answer == expected

    def test_any_match_runs_vectorized(self, dataset):
        index = ShardedMembershipIndex.for_dataset(dataset)
        starts = np.array([0, 100, 250, 499])
        stops = np.array([50, 100, 400, 500])
        hits = index.any_match_runs(FEMALE, starts, stops)
        for start, stop, hit in zip(starts, stops, hits):
            expected = bool(dataset.mask(FEMALE)[start:stop].any())
            assert bool(hit) == expected

    def test_matches_equals_mask(self, dataset):
        index = ShardedMembershipIndex.for_dataset(dataset)
        mask = dataset.mask(FEMALE)
        assert [index.matches(FEMALE, i) for i in range(len(dataset))] == mask.tolist()

    def test_value_rows_match_value_row(self, multi_dataset, rng):
        index = ShardedMembershipIndex.for_dataset(multi_dataset)
        indices = rng.choice(len(multi_dataset), size=25, replace=False)
        rows = index.value_rows(indices)
        assert rows == [multi_dataset.value_row(int(i)) for i in indices]
        assert index.value_rows([]) == []

    def test_value_rows_bounds_checked_like_value_row(self, dataset):
        """Negative indices must raise, not silently wrap to the end of
        the dataset the way raw fancy-indexing would."""
        from repro.errors import OracleError

        index = ShardedMembershipIndex.for_dataset(dataset)
        with pytest.raises(OracleError):
            index.value_rows([0, -1])
        with pytest.raises(OracleError):
            index.value_rows([len(dataset)])


class TestPinning:
    def test_scattered_first_touch_pins_so_a_later_run_does_not_rebuild(self, dataset):
        """Whatever shape a predicate's first query has, a budget that
        can pin it pins it then: the later run query reuses the table."""
        one_shard = ShardedMembershipIndex(
            ShardedDataset.from_dataset(dataset, shard_size=len(dataset))
        )
        for index in (one_shard, ShardedMembershipIndex.for_dataset(dataset)):
            index.any_match(FEMALE, np.array([3, 400, 5]))
            index.any_match(FEMALE, np.arange(10, 450))
            report = index.memory_report()
            assert report["prefix_builds"] == 1
            assert report["pinned_predicates"] == 1

    def test_point_first_touch_pins_too(self, dataset):
        index = ShardedMembershipIndex(
            ShardedDataset.from_dataset(dataset, shard_size=len(dataset))
        )
        index.matches(FEMALE, 7)
        index.count(FEMALE, np.arange(0, 300))
        assert index.memory_report()["prefix_builds"] == 1

    def test_unpinnable_budget_keeps_the_per_shard_path(self, dataset):
        """Five shards, a two-table budget: a scattered query only loads
        and tabulates the shards it touches, as before."""
        shards = ShardedDataset.from_dataset(
            dataset, shard_size=100, max_resident_shards=2
        )
        index = ShardedMembershipIndex(shards)
        assert index.count(FEMALE, np.array([3, 450])) == int(
            dataset.mask(FEMALE)[[3, 450]].sum()
        )
        report = index.memory_report()
        assert shards.stats.loads == 2
        assert report["prefix_builds"] == 2
        assert report["pinned_predicates"] == 0

    def test_intersectional_audit_pins_every_predicate_once(self, rng):
        """Algorithm 3 over an in-RAM dataset touches more predicates than
        the default resident budget of four: each is built exactly once
        and pinned, and the per-shard LRU is never used."""
        schema = Schema.from_dict({
            "gender": ["male", "female"],
            "race": ["white", "black", "asian", "other"],
        })
        joint = {
            ("male", "white"): 300, ("female", "white"): 60,
            ("male", "black"): 25, ("female", "black"): 10,
            ("male", "asian"): 30, ("female", "asian"): 5,
            ("male", "other"): 15, ("female", "other"): 18,
        }
        oracle = GroundTruthOracle(intersectional_dataset(schema, joint, rng=rng))
        with AuditSession(oracle, seed=3) as session:
            session.run(IntersectionalAuditSpec(schema=schema, tau=30))
        index = oracle.membership_index
        report = index.memory_report()
        assert report["pinned_predicates"] > 4
        assert report["prefix_builds"] == report["pinned_predicates"]
        assert report["prefix_builds"] == len(index._totals)
        assert report["prefix_evictions"] == 0
        assert len(index._prefixes.entries) == 0
        assert report["chunk_loads"] == 1 and report["chunk_evictions"] == 0


class TestValidation:
    def test_unknown_predicate_raises_like_dataset(self, dataset):
        from repro.errors import UnknownGroupError

        index = ShardedMembershipIndex.for_dataset(dataset)
        with pytest.raises(UnknownGroupError):
            index.any_match(group(age="old"), np.arange(5))

    def test_empty_dataset(self):
        schema = Schema.from_dict({"gender": ["male", "female"]})
        empty = LabeledDataset(schema, np.empty((0, 1), dtype=np.int16))
        index = ShardedMembershipIndex.for_dataset(empty)
        none = np.empty(0, dtype=np.int64)
        assert index.any_match(FEMALE, none) is bool(empty.mask(FEMALE)[none].any())
        assert index.count(FEMALE, none) == int(empty.mask(FEMALE)[none].sum()) == 0
        assert index.any_match_batch([(none, FEMALE)]) == [False]
        assert index.value_rows([]) == []

    def test_oracle_index_must_answer_over_the_same_dataset(self, dataset):
        shared = ShardedMembershipIndex.for_dataset(dataset)
        assert GroundTruthOracle(dataset, index=shared).membership_index is shared
        other = ShardedMembershipIndex(
            ShardedDataset.from_dataset(dataset, shard_size=len(dataset))
        )
        with pytest.raises(InvalidParameterError, match="different dataset"):
            GroundTruthOracle(dataset, index=other)
