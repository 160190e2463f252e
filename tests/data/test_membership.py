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
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex, bitmap_floor
from repro.data.synthetic import binary_dataset, intersectional_dataset
from repro.engine.requests import IndexKey
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


class TestIndexKeyShape:
    """``IndexKey.of`` is where a query's shape is decided; the index
    answers from the key and never re-detects it."""

    def test_contiguous_ascending_is_a_run(self):
        assert IndexKey.of(np.arange(5, 12)) is IndexKey.of_run(5, 12)
        assert IndexKey.of(np.array([3])) is IndexKey.of_run(3, 4)
        assert IndexKey.of(np.arange(5, 12)).is_run

    @pytest.mark.parametrize("indices", [
        [],
        [1, 3],  # gap
        [2, 1],  # descending
        [1, 2, 2, 3],  # duplicate
        [0, 2, 1, 3],  # same endpoints/length as a run, not ascending by 1
    ])
    def test_anything_else_is_scattered(self, indices):
        array = np.array(indices, dtype=np.int64)
        key = IndexKey.of(array)
        assert not key.is_run
        assert key is IndexKey.of_scattered(array)
        assert np.array_equal(key.to_array(), array)


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
        counts = [
            index.count(FEMALE, IndexKey.of_run(0, i)) for i in range(len(dataset) + 1)
        ]
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
            key = IndexKey.of(indices)
            assert index.any_match(predicate, key) == expected
            assert expected == bool(mask[indices].any())
            assert index.count(predicate, key) == int(mask[indices].sum())

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
        answers = index.any_match_batch(
            [(predicate, IndexKey.of(indices)) for indices, predicate in queries]
        )
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


class TestBitmapBudget:
    def test_first_touch_builds_the_bitmap_a_later_run_reuses(self, dataset):
        """Whatever shape a predicate's first query has, it builds the
        value bitmap once; a later run query reuses it and adds only a
        rank directory, without loading a chunk."""
        one_shard = ShardedMembershipIndex(
            ShardedDataset.from_dataset(dataset, shard_size=len(dataset))
        )
        for index in (one_shard, ShardedMembershipIndex.for_dataset(dataset)):
            index.any_match(FEMALE, IndexKey.of(np.array([3, 400, 5])))
            index.any_match(FEMALE, IndexKey.of_run(10, 450))
            report = index.memory_report()
            assert report["bitmap_builds"] == 1
            assert report["rank_builds"] == 1
            assert report["bitmap_evictions"] == 0
            assert report["chunk_loads"] == 1

    def test_point_first_touch_builds_it_too(self, dataset):
        index = ShardedMembershipIndex(
            ShardedDataset.from_dataset(dataset, shard_size=len(dataset))
        )
        index.matches(FEMALE, 7)
        index.count(FEMALE, IndexKey.of_run(0, 300))
        assert index.memory_report()["bitmap_builds"] == 1

    def test_budget_below_one_bitmap_still_answers_exactly(self, dataset):
        """Single-row shards ask a two-table budget (16 bytes), below one
        64-byte bitmap: the index floors it at a bitmap per schema value
        plus a rank directory, so the first query builds the bitmap in one
        pass and the second reuses it instead of streaming again."""
        shards = ShardedDataset.from_dataset(dataset, shard_size=1, max_resident_shards=2)
        index = ShardedMembershipIndex(shards)
        for indices in ([3, 450], [7, 8, 499]):
            assert index.count(FEMALE, IndexKey.of(np.array(indices))) == int(
                dataset.mask(FEMALE)[indices].sum()
            )
        report = index.memory_report()
        assert shards.stats.loads == len(dataset)
        assert report["bitmap_builds"] == 1 and report["bitmap_evictions"] == 0
        assert report["peak_bitmap_bytes"] == 64
        assert report["cap_bytes"] >= bitmap_floor(shards)

    def test_intersectional_audit_builds_every_bitmap_once(self, rng):
        """Algorithm 3 over an in-RAM dataset touches more predicates than
        the default resident budget of four: each value bitmap is built
        exactly once, in one chunk load, and nothing is ever evicted."""
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
        assert report["indexed_predicates"] > 4
        assert report["bitmap_builds"] == len({
            condition for predicate in index._conditions
            for condition in index._conditions[predicate]
        })
        assert report["rank_builds"] <= report["indexed_predicates"]
        assert report["bitmap_evictions"] == 0
        assert report["chunk_loads"] == 1 and report["chunk_evictions"] == 0


class TestValidation:
    def test_unknown_predicate_raises_like_dataset(self, dataset):
        from repro.errors import UnknownGroupError

        index = ShardedMembershipIndex.for_dataset(dataset)
        with pytest.raises(UnknownGroupError):
            index.any_match(group(age="old"), IndexKey.of_run(0, 5))

    def test_empty_dataset(self):
        schema = Schema.from_dict({"gender": ["male", "female"]})
        empty = LabeledDataset(schema, np.empty((0, 1), dtype=np.int16))
        index = ShardedMembershipIndex.for_dataset(empty)
        none = np.empty(0, dtype=np.int64)
        key = IndexKey.of(none)
        assert index.any_match(FEMALE, key) is bool(empty.mask(FEMALE)[none].any())
        assert index.count(FEMALE, key) == int(empty.mask(FEMALE)[none].sum()) == 0
        assert index.any_match_batch([(FEMALE, key)]) == [False]
        assert index.value_rows([]) == []

    def test_oracle_index_must_answer_over_the_same_dataset(self, dataset):
        shared = ShardedMembershipIndex.for_dataset(dataset)
        assert GroundTruthOracle(dataset, index=shared).membership_index is shared
        other = ShardedMembershipIndex(
            ShardedDataset.from_dataset(dataset, shard_size=len(dataset))
        )
        with pytest.raises(InvalidParameterError, match="different dataset"):
            GroundTruthOracle(dataset, index=other)
