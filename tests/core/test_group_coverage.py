"""Unit tests for Group-Coverage (Algorithm 1) — the core contribution."""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.core.bounds import lower_bound_tasks
from repro.core.group_coverage import group_coverage
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import SuperGroup, group
from repro.data.synthetic import (
    adversarial_tightness_dataset,
    binary_dataset,
    single_attribute_dataset,
)
from repro.engine import QueryEngine
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")


def run(dataset, tau, n, predicate=FEMALE, view=None):
    oracle = GroundTruthOracle(dataset)
    result = group_coverage(
        oracle, predicate, tau, n=n,
        view=view, dataset_size=None if view is not None else len(dataset),
    )
    return result, oracle


class TestVerdictCorrectness:
    @pytest.mark.parametrize("n_females,tau,expected", [
        (0, 5, False),
        (4, 5, False),
        (5, 5, True),
        (6, 5, True),
        (100, 5, True),
        (100, 100, True),
        (99, 100, False),
    ])
    def test_verdicts(self, rng, n_females, tau, expected):
        dataset = binary_dataset(500, n_females, rng=rng)
        result, _ = run(dataset, tau, n=25)
        assert result.covered is expected

    def test_exact_count_when_uncovered(self, rng):
        for n_females in (0, 1, 7, 30, 49):
            dataset = binary_dataset(2000, n_females, rng=rng)
            result, _ = run(dataset, 50, n=50)
            assert not result.covered
            assert result.count == n_females

    def test_discovered_indices_are_the_members(self, rng):
        dataset = binary_dataset(1000, 12, rng=rng)
        result, _ = run(dataset, 50, n=50)
        assert sorted(result.discovered_indices) == sorted(
            dataset.positions(FEMALE).tolist()
        )

    def test_count_equals_tau_when_covered(self, rng):
        dataset = binary_dataset(1000, 300, rng=rng)
        result, _ = run(dataset, 50, n=50)
        assert result.covered and result.count == 50


class TestEdgeCases:
    def test_tau_zero_is_free(self, rng):
        dataset = binary_dataset(100, 10, rng=rng)
        result, oracle = run(dataset, 0, n=10)
        assert result.covered and result.count == 0
        assert oracle.ledger.total == 0

    def test_empty_view(self, rng):
        dataset = binary_dataset(10, 3, rng=rng)
        result, oracle = run(dataset, 5, n=4, view=np.array([], dtype=np.int64))
        assert not result.covered and result.count == 0
        assert oracle.ledger.total == 0

    def test_n_equal_one_degenerates_to_point_scanning(self, rng):
        dataset = binary_dataset(40, 40, rng=rng)  # every object matches
        result, oracle = run(dataset, 5, n=1)
        assert result.covered
        assert oracle.ledger.n_set_queries == 5  # stops at tau singleton yeses

    def test_n_larger_than_dataset(self, rng):
        dataset = binary_dataset(30, 4, rng=rng)
        result, _ = run(dataset, 5, n=1000)
        assert not result.covered and result.count == 4

    def test_single_object_dataset(self):
        dataset = binary_dataset(1, 1, placement="front")
        result, _ = run(dataset, 1, n=10)
        assert result.covered and result.count == 1

    def test_view_restricts_search(self, rng):
        dataset = binary_dataset(100, 50, placement="front")
        # Search only the female-free back half.
        result, _ = run(dataset, 5, n=10, view=np.arange(50, 100))
        assert not result.covered and result.count == 0

    def test_invalid_parameters(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            group_coverage(oracle, FEMALE, 5, n=0, dataset_size=10)
        with pytest.raises(InvalidParameterError):
            group_coverage(oracle, FEMALE, -1, n=5, dataset_size=10)
        with pytest.raises(InvalidParameterError):
            group_coverage(oracle, FEMALE, 5, n=5)  # neither view nor size

    def test_negative_view_index_rejected(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            group_coverage(oracle, FEMALE, 5, view=np.array([0, -1, 2]))

    def test_view_index_beyond_dataset_size_rejected(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            group_coverage(
                oracle, FEMALE, 5, view=np.array([0, 5, 10]), dataset_size=10
            )
        # Without dataset_size the upper bound is unknowable and unchecked.
        result = group_coverage(oracle, FEMALE, 1, view=np.array([0, 5, 9]))
        assert result.tau == 1

    def test_duplicate_view_index_rejected(self):
        # Three distinct members listed six times: counting positions
        # would certify tau=5.
        dataset = binary_dataset(100, 100, placement="front")
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError, match="more than once"):
            group_coverage(oracle, FEMALE, 5, n=2, view=np.array([5, 5, 5, 5, 6, 7]))
        with pytest.raises(InvalidParameterError, match="index 7 more than once"):
            group_coverage(oracle, FEMALE, 2, view=np.array([7, 3, 7]))
        assert oracle.ledger.total == 0

    @pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
    def test_duplicate_view_index_rejected_in_engine_mode(self):
        # Two tree nodes over the same object share one query key; without
        # the check the engine waits forever on the node it dropped, so an
        # alarm turns that livelock into a failure.
        dataset = binary_dataset(100, 100, placement="front")
        oracle = GroundTruthOracle(dataset)

        def livelocked(signum, frame):
            raise AssertionError("engine livelocked on a duplicate view")

        previous = signal.signal(signal.SIGALRM, livelocked)
        signal.setitimer(signal.ITIMER_REAL, 10.0)
        try:
            with pytest.raises(InvalidParameterError, match="more than once"):
                group_coverage(
                    oracle, FEMALE, 5, n=2, view=np.array([5, 5, 5, 5, 6, 7]),
                    engine=QueryEngine(oracle),
                )
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert oracle.ledger.total == 0

    def test_unsorted_distinct_view_accepted(self):
        dataset = binary_dataset(100, 100, placement="front")
        result = group_coverage(
            GroundTruthOracle(dataset), FEMALE, 5, n=2, view=np.array([9, 2, 40, 7])
        )
        assert (result.covered, result.count) == (False, 4)

    def test_negative_dataset_size_rejected(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            group_coverage(oracle, FEMALE, 5, dataset_size=-1)


class TestTaskAccounting:
    def test_tasks_counted_via_ledger(self, rng):
        dataset = binary_dataset(200, 10, rng=rng)
        result, oracle = run(dataset, 50, n=20)
        assert result.tasks.n_set_queries == oracle.ledger.n_set_queries
        assert result.tasks.n_point_queries == 0

    def test_nested_runs_attribute_separately(self, rng):
        dataset = binary_dataset(200, 100, rng=rng)
        oracle = GroundTruthOracle(dataset)
        first = group_coverage(oracle, FEMALE, 10, n=20, dataset_size=200)
        second = group_coverage(oracle, FEMALE, 20, n=20, dataset_size=200)
        assert first.tasks.total + second.tasks.total == oracle.ledger.total

    def test_uncovered_pays_at_least_the_lower_bound(self, rng):
        dataset = binary_dataset(1000, 10, rng=rng)
        result, _ = run(dataset, 50, n=50)
        assert result.tasks.total >= lower_bound_tasks(1000, 50)

    def test_stays_under_the_concrete_upper_bound(self, rng):
        """Tasks <= ceil(N/n) + tau * (2*ceil(log2 n) + 1): every one of the
        <= tau yes-leaves pays at most one root-to-leaf path of <= log2(n)
        levels with <= 2 queries per level."""
        for n_females, tau, n in [(50, 50, 50), (30, 50, 20), (500, 100, 64)]:
            dataset = binary_dataset(5000, n_females, rng=rng)
            result, _ = run(dataset, tau, n=n)
            ceiling = np.ceil(5000 / n) + tau * (2 * np.ceil(np.log2(n)) + 1)
            assert result.tasks.total <= ceiling

    def test_pruning_pays_off_for_rare_groups(self, rng):
        """A rare uncovered group must cost far less than labeling all."""
        dataset = binary_dataset(10_000, 5, rng=rng)
        result, _ = run(dataset, 50, n=50)
        assert result.tasks.total < 0.05 * 10_000


class TestSiblingInference:
    def test_no_task_for_implied_sibling(self):
        """With one member at a known position, the d&c must exploit
        implied siblings: count tasks on a fully deterministic layout."""
        dataset = binary_dataset(8, 1, placement="front")  # member at index 0
        result, oracle = run(dataset, 5, n=8)
        # root yes, then left-yes/right-? chains: the right siblings of
        # "yes" lefts must still be asked, but "no" lefts imply sibling yes
        # for free. Exact expectation for member-at-0, n=8:
        # [0-7]y, [0-3]y, [4-7]n(pruned by sibling rule? no - right child),
        # Walk: root(1) -> children [0-3](2) yes, [4-7](3) no ->
        # [0-1](4) yes, [2-3](5) no -> [0](6) yes, [1](7) no.
        assert not result.covered and result.count == 1
        assert oracle.ledger.n_set_queries == 7

    def test_member_at_back_uses_implied_yes(self):
        """Member at the last position: every left child answers no, so
        every right sibling is implied — fewer tasks than member-at-front."""
        dataset = binary_dataset(8, 1, placement="back")
        result, oracle = run(dataset, 5, n=8)
        assert not result.covered and result.count == 1
        # root(1), [0-3](2) no -> [4-7] implied, [4-5](3) no -> [6-7]
        # implied, [6](4) no -> [7] implied (size 1, yes).
        assert oracle.ledger.n_set_queries == 4


class TestPredicateKinds:
    def test_supergroup_coverage(self, rng):
        dataset = single_attribute_dataset(
            {"white": 900, "black": 30, "asian": 25}, rng=rng
        )
        sg = SuperGroup([group(race="black"), group(race="asian")])
        result, _ = run(dataset, 50, n=50, predicate=sg)
        assert result.covered  # 30 + 25 = 55 >= 50

    def test_supergroup_uncovered_exact_union_count(self, rng):
        dataset = single_attribute_dataset(
            {"white": 950, "black": 20, "asian": 15}, rng=rng
        )
        sg = SuperGroup([group(race="black"), group(race="asian")])
        result, _ = run(dataset, 50, n=50, predicate=sg)
        assert not result.covered and result.count == 35


class TestAdversarialLayout:
    def test_tightness_construction_is_expensive_but_exact(self):
        dataset = adversarial_tightness_dataset(1024, 32)
        result, _ = run(dataset, 32, n=1024)
        assert not result.covered
        assert result.count == 31
        # The uniform spread forces deep isolation of every member.
        assert result.tasks.total > 31 * np.log2(1024 / 32)
