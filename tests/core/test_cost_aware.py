"""Unit tests for cost-aware auditing under size-dependent pricing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.cost_aware import (
    SpendingOracle,
    choose_set_size,
    cost_aware_group_coverage,
    dollar_cost_upper_bound,
)
from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.pricing import SizeDependentPricing
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.errors import BudgetExceededError, InvalidParameterError

FEMALE = group(gender="female")


class TestSizeDependentPricing:
    def test_linear_price(self):
        pricing = SizeDependentPricing(base_price=0.02, per_image=0.001)
        assert pricing.query_price(50) == pytest.approx(0.07)
        assert pricing.point_price() == pytest.approx(0.021)

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            SizeDependentPricing(base_price=-1)
        with pytest.raises(InvalidParameterError):
            SizeDependentPricing().query_price(0)


class TestDollarBound:
    def test_flat_pricing_favors_moderately_big_sets(self):
        """Under flat pricing the bound falls steeply away from tiny sets,
        then flattens (the N/n term vs the tau*log n isolation term)."""
        flat = SizeDependentPricing(base_price=0.1, per_image=0.0)
        costs = [dollar_cost_upper_bound(10_000, n, 50, flat) for n in (5, 10, 50)]
        assert costs[0] > costs[1] > costs[2]

    def test_steep_pricing_penalizes_big_sets(self):
        steep = SizeDependentPricing(base_price=0.001, per_image=0.05)
        small = dollar_cost_upper_bound(10_000, 5, 50, steep)
        large = dollar_cost_upper_bound(10_000, 400, 50, steep)
        assert small < large

    def test_fee_applied(self):
        pricing = SizeDependentPricing(base_price=0.1, per_image=0.0, service_fee_rate=1.0)
        doubled = dollar_cost_upper_bound(100, 10, 0, pricing)
        pricing_no_fee = SizeDependentPricing(base_price=0.1, per_image=0.0, service_fee_rate=0.0)
        assert doubled == pytest.approx(2 * dollar_cost_upper_bound(100, 10, 0, pricing_no_fee))

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            dollar_cost_upper_bound(-1, 10, 5, SizeDependentPricing())


class TestChooseSetSize:
    def test_optimum_moves_with_slope(self):
        flat = SizeDependentPricing(base_price=0.1, per_image=0.0)
        steep = SizeDependentPricing(base_price=0.001, per_image=0.05)
        assert choose_set_size(10_000, 50, flat) > choose_set_size(10_000, 50, steep)

    def test_respects_n_max(self):
        flat = SizeDependentPricing(base_price=0.1, per_image=0.0)
        assert choose_set_size(10_000, 50, flat, n_max=30) <= 30

    def test_invalid(self):
        with pytest.raises(InvalidParameterError):
            choose_set_size(100, 5, SizeDependentPricing(), n_max=0)


class TestSpendingOracle:
    def test_charges_by_display_size(self, rng):
        dataset = binary_dataset(100, 10, rng=rng)
        pricing = SizeDependentPricing(
            base_price=0.02, per_image=0.001, service_fee_rate=0.0
        )
        oracle = SpendingOracle(GroundTruthOracle(dataset), pricing)
        oracle.ask_set(np.arange(10), FEMALE)
        oracle.ask_point(0)
        assert oracle.dollars_spent == pytest.approx(0.03 + 0.021)
        assert oracle.ledger.total == 2

    def test_answers_delegate(self, rng):
        dataset = binary_dataset(100, 10, rng=rng)
        oracle = SpendingOracle(GroundTruthOracle(dataset), SizeDependentPricing())
        members = dataset.positions(FEMALE)
        assert oracle.ask_set(members[:3], FEMALE) is True
        assert oracle.ask_point(int(members[0])) == {"gender": "female"}


class TestCostAwareGroupCoverage:
    def test_verdict_matches_and_spend_below_bound(self, rng):
        dataset = binary_dataset(5_000, 200, rng=rng)
        pricing = SizeDependentPricing(base_price=0.02, per_image=0.002)
        outcome = cost_aware_group_coverage(
            GroundTruthOracle(dataset), FEMALE, 50, pricing, dataset_size=len(dataset)
        )
        assert outcome.result.covered
        assert outcome.dollars_spent <= outcome.predicted_cost_bound

    def test_beats_naive_fixed_n_under_steep_pricing(self, rng):
        """Under steep per-image pricing, the chosen (small) n must spend
        less than blindly using the paper's default n=50."""
        dataset = binary_dataset(5_000, 30, rng=rng)  # uncovered: full scan
        steep = SizeDependentPricing(base_price=0.001, per_image=0.05)

        outcome = cost_aware_group_coverage(
            GroundTruthOracle(dataset), FEMALE, 50, steep, dataset_size=len(dataset)
        )
        naive = SpendingOracle(GroundTruthOracle(dataset), steep)
        from repro.core.group_coverage import group_coverage

        naive_result = group_coverage(naive, FEMALE, 50, n=50, dataset_size=len(dataset))
        assert outcome.result.covered == naive_result.covered is False
        assert outcome.chosen_n < 50
        assert outcome.dollars_spent < naive.dollars_spent

    def test_tasks_are_charged_to_the_inner_ledger(self, rng):
        dataset = binary_dataset(5_000, 200, rng=rng)
        inner = GroundTruthOracle(dataset)
        outcome = cost_aware_group_coverage(
            inner, FEMALE, 50, SizeDependentPricing(), dataset_size=len(dataset)
        )
        assert outcome.result.tasks.total > 0
        assert inner.ledger.total == outcome.result.tasks.total

    def test_inner_budget_is_enforced(self, rng):
        dataset = binary_dataset(5_000, 200, rng=rng)
        inner = GroundTruthOracle(dataset, budget=10)
        with pytest.raises(BudgetExceededError):
            cost_aware_group_coverage(
                inner, FEMALE, 50, SizeDependentPricing(), dataset_size=len(dataset)
            )
        assert inner.ledger.total == 10

    def test_requires_view_or_size(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        with pytest.raises(InvalidParameterError):
            cost_aware_group_coverage(
                GroundTruthOracle(dataset), FEMALE, 5, SizeDependentPricing()
            )
