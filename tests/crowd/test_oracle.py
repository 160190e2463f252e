"""Unit tests for the oracle layer (ledgers, budgets, three backends)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.oracle import (
    CrowdOracle,
    FlakyOracle,
    GroundTruthOracle,
    TaskLedger,
)
from repro.crowd.platform import CrowdPlatform
from repro.crowd.workers import Worker
from repro.data.groups import Negation, group
from repro.data.synthetic import binary_dataset
from repro.engine.requests import IndexKey, set_query_key
from repro.errors import BudgetExceededError, InvalidParameterError, OracleError

FEMALE = group(gender="female")


@pytest.fixture
def dataset(rng):
    return binary_dataset(50, 10, rng=rng)


class TestTaskLedger:
    def test_counting(self):
        ledger = TaskLedger()
        ledger.charge_set()
        ledger.charge_set()
        ledger.charge_point()
        assert (ledger.n_set_queries, ledger.n_point_queries, ledger.total) == (2, 1, 3)

    def test_budget_enforcement(self):
        ledger = TaskLedger(budget=2)
        ledger.charge_set()
        ledger.charge_point()
        with pytest.raises(BudgetExceededError):
            ledger.charge_set()

    def test_round_counting(self):
        ledger = TaskLedger()
        ledger.note_round()
        ledger.charge_set_batch(5)
        assert (ledger.n_rounds, ledger.n_set_queries) == (1, 5)

    def test_batch_budget_is_atomic(self):
        ledger = TaskLedger(budget=10)
        ledger.charge_set_batch(5)
        with pytest.raises(BudgetExceededError):
            ledger.charge_set_batch(7)
        # The refused batch charged nothing.
        assert ledger.n_set_queries == 5
        ledger.charge_point_batch(5)  # exactly exhausts the budget
        assert ledger.total == 10


class TestBatchQueries:
    def test_set_batch_matches_single_asks(self, dataset, rng):
        batched = GroundTruthOracle(dataset)
        single = GroundTruthOracle(dataset)
        queries = [
            (rng.choice(len(dataset), size=int(rng.integers(1, 8)), replace=False), FEMALE)
            for _ in range(20)
        ]
        queries.append((np.arange(len(dataset)), group(gender="male")))
        answers = batched.ask_set_batch(queries)
        assert answers == [single.ask_set(i, p) for i, p in queries]

    def test_batch_charges_per_query_but_one_round(self, dataset):
        oracle = GroundTruthOracle(dataset)
        oracle.ask_set_batch([(np.arange(5), FEMALE)] * 7)
        assert oracle.ledger.n_set_queries == 7
        assert oracle.ledger.n_rounds == 1

    def test_point_batch_matches_single_asks(self, dataset):
        batched = GroundTruthOracle(dataset)
        single = GroundTruthOracle(dataset)
        indices = [0, 3, 17, 49]
        assert batched.ask_point_batch(indices) == [
            single.ask_point(i) for i in indices
        ]
        assert batched.ledger.n_point_queries == 4
        assert batched.ledger.n_rounds == 1

    @pytest.mark.parametrize("indices", [[], [3], [1, 2, 5]])
    @pytest.mark.parametrize("kind", ["ground-truth", "flaky"])
    def test_point_batch_takes_numpy_arrays_like_lists(self, dataset, indices, kind):
        def make():
            if kind == "flaky":
                return FlakyOracle(
                    dataset, np.random.default_rng(0), point_error_rate=0.5
                )
            return GroundTruthOracle(dataset)

        from_list, from_array = make(), make()
        rows = from_array.ask_point_batch(np.array(indices, dtype=np.int64))
        assert rows == from_list.ask_point_batch(list(indices))
        assert (from_array.ledger.n_point_queries, from_array.ledger.n_rounds) == (
            from_list.ledger.n_point_queries, from_list.ledger.n_rounds,
        )

    def test_empty_batches_are_free(self, dataset):
        oracle = GroundTruthOracle(dataset)
        assert oracle.ask_set_batch([]) == []
        assert oracle.ask_point_batch([]) == []
        assert oracle.ledger.total == 0
        assert oracle.ledger.n_rounds == 0

    def test_unaffordable_batch_charges_nothing(self, dataset):
        oracle = GroundTruthOracle(dataset, budget=3)
        with pytest.raises(BudgetExceededError):
            oracle.ask_set_batch([(np.arange(5), FEMALE)] * 4)
        assert oracle.ledger.total == 0

    def test_flaky_batch_error_rate(self, dataset):
        oracle = FlakyOracle(
            dataset, np.random.default_rng(0), set_error_rate=1.0
        )
        truth = GroundTruthOracle(dataset)
        queries = [(np.arange(10), FEMALE), (np.arange(10, 20), FEMALE)]
        flipped = oracle.ask_set_batch(queries)
        straight = truth.ask_set_batch(queries)
        assert flipped == [not answer for answer in straight]


class TestIndexKeyBoundary:
    """The oracle keys every set query once; hooks receive that key."""

    @staticmethod
    def set_hook_oracle(dataset, seen):
        class Recording(GroundTruthOracle):
            def _answer_set(self, indices, predicate, index_key):
                seen.append(index_key)
                return super()._answer_set(indices, predicate, index_key)

        return Recording(dataset)

    @staticmethod
    def batch_hook_oracle(dataset, seen):
        class Recording(GroundTruthOracle):
            def _answer_set_batch(self, queries, index_keys):
                seen.extend(index_keys)
                return super()._answer_set_batch(queries, index_keys)

        return Recording(dataset)

    QUERIES = [np.arange(5, 15), np.array([2, 9, 4]), np.empty(0, dtype=np.int64)]

    def test_unkeyed_ask_set_passes_the_interned_key(self, dataset):
        seen = []
        oracle = self.set_hook_oracle(dataset, seen)
        for indices in self.QUERIES:
            oracle.ask_set(indices, FEMALE)
        assert len(seen) == len(self.QUERIES)
        for indices, key in zip(self.QUERIES, seen):
            assert key is IndexKey.of(indices)

    def test_unkeyed_ask_set_batch_passes_the_interned_keys(self, dataset):
        for make in (self.set_hook_oracle, self.batch_hook_oracle):
            seen = []
            make(dataset, seen).ask_set_batch(
                [(indices, FEMALE) for indices in self.QUERIES]
            )
            assert len(seen) == len(self.QUERIES)
            for indices, key in zip(self.QUERIES, seen):
                assert key is IndexKey.of(indices)

    def test_a_callers_key_reaches_the_hook_unchanged(self, dataset):
        # Equal to the interned run key but a distinct object, so identity
        # shows the oracle forwarded it rather than re-deriving one.
        own = IndexKey(5, 15, None, hash((5, 15)))
        assert own == IndexKey.of_run(5, 15) and own is not IndexKey.of_run(5, 15)
        indices = np.arange(5, 15)
        seen = []
        self.set_hook_oracle(dataset, seen).ask_set(
            indices, FEMALE, key=(FEMALE, own)
        )
        assert seen[0] is own
        for make in (self.set_hook_oracle, self.batch_hook_oracle):
            seen = []
            make(dataset, seen).ask_set_batch(
                [(indices, FEMALE), (indices, FEMALE)],
                keys=[(FEMALE, own), set_query_key(indices, FEMALE)],
            )
            assert seen[0] is own and seen[1] is IndexKey.of_run(5, 15)


class TestGroundTruthOracle:
    def test_set_answers_match_ground_truth(self, dataset):
        oracle = GroundTruthOracle(dataset)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:3], FEMALE) is True
        males = dataset.positions(group(gender="male"))
        assert oracle.ask_set(males[:5], FEMALE) is False

    def test_negated_predicate(self, dataset):
        oracle = GroundTruthOracle(dataset)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:4], Negation(FEMALE)) is False

    def test_point_answers(self, dataset):
        oracle = GroundTruthOracle(dataset)
        index = int(dataset.positions(FEMALE)[0])
        assert oracle.ask_point(index) == {"gender": "female"}
        assert oracle.ask_point_membership(index, FEMALE) is True

    def test_tasks_are_charged(self, dataset):
        oracle = GroundTruthOracle(dataset)
        oracle.ask_set([0, 1], FEMALE)
        oracle.ask_point(0)
        oracle.ask_point_membership(1, FEMALE)
        assert oracle.ledger.n_set_queries == 1
        assert oracle.ledger.n_point_queries == 2

    def test_budget(self, dataset):
        oracle = GroundTruthOracle(dataset, budget=1)
        oracle.ask_point(0)
        with pytest.raises(BudgetExceededError):
            oracle.ask_point(1)

    def test_out_of_range_point(self, dataset):
        with pytest.raises(OracleError):
            GroundTruthOracle(dataset).ask_point(999)


class TestCrowdOracle:
    def test_delegates_to_platform(self, dataset, rng):
        workers = [Worker(worker_id=i, set_error_rate=0.0, point_error_rate=0.0) for i in range(3)]
        platform = CrowdPlatform(dataset, workers, rng)
        oracle = CrowdOracle(platform)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:2], FEMALE) is True
        assert oracle.ask_point(int(members[0])) == {"gender": "female"}
        # Oracle tasks and platform HITs agree 1:1.
        assert oracle.ledger.total == platform.ledger.n_hits == 2


class TestFlakyOracle:
    def test_zero_error_equals_ground_truth(self, dataset, rng):
        oracle = FlakyOracle(dataset, rng)
        truth = GroundTruthOracle(dataset)
        for start in range(0, 50, 5):
            indices = list(range(start, start + 5))
            assert oracle.ask_set(indices, FEMALE) == truth.ask_set(indices, FEMALE)

    def test_full_error_always_flips(self, dataset, rng):
        oracle = FlakyOracle(dataset, rng, set_error_rate=1.0)
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:3], FEMALE) is False

    def test_point_errors_produce_valid_labels(self, dataset, rng):
        oracle = FlakyOracle(dataset, rng, point_error_rate=1.0)
        answer = oracle.ask_point(0)
        assert answer["gender"] in {"male", "female"}
        assert answer != dataset.value_row(0)

    def test_invalid_rates(self, dataset, rng):
        with pytest.raises(InvalidParameterError):
            FlakyOracle(dataset, rng, set_error_rate=2.0)


class TestPointAndHookContracts:
    def test_point_batch_bounds_checked(self, dataset):
        """Batched point queries reject out-of-range indices like the
        single-query path instead of wrapping via fancy-indexing."""
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(OracleError):
            oracle.ask_point_batch([0, -1])
        with pytest.raises(OracleError):
            oracle.ask_point_batch([len(dataset)])

    def test_subclassed_point_hook_sees_batched_queries(self, dataset):
        """A subclass overriding only _answer_point must observe every
        batched point query, exactly like the set-hook contract."""
        seen: list[int] = []

        class Tracing(GroundTruthOracle):
            def _answer_point(self, index):
                seen.append(index)
                return super()._answer_point(index)

        class TracingFlaky(FlakyOracle):
            def _answer_point(self, index):
                seen.append(index)
                return super()._answer_point(index)

        Tracing(dataset).ask_point_batch([0, 1, 2, 3])
        assert seen == [0, 1, 2, 3]
        seen.clear()
        TracingFlaky(dataset, np.random.default_rng(0)).ask_point_batch([5, 6])
        assert seen == [5, 6]

    def test_subclassed_set_hook_sees_every_query(self, dataset):
        """Same contract for set queries, sequential and batched."""
        seen: list[tuple] = []

        class Tracing(GroundTruthOracle):
            def _answer_set(self, indices, predicate, index_key):
                seen.append((int(indices[0]), int(indices[-1])))
                return super()._answer_set(indices, predicate, index_key)

        oracle = Tracing(dataset)
        oracle.ask_set(np.arange(0, 10), FEMALE)
        oracle.ask_set_batch(
            [(np.arange(10, 20), FEMALE), (np.array([1, 5, 9]), FEMALE)]
        )
        assert seen == [(0, 9), (10, 19), (1, 9)]
