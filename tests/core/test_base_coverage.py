"""Unit tests for Base-Coverage (Algorithm 7)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.base_coverage import base_coverage
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")


class TestBaseCoverage:
    def test_covered_stops_at_tau_th_member(self):
        dataset = binary_dataset(100, 10, placement="front")
        oracle = GroundTruthOracle(dataset)
        result = base_coverage(oracle, FEMALE, 5, dataset_size=100)
        assert result.covered
        assert result.tasks.n_point_queries == 5  # members are up front
        assert result.count == 5

    def test_uncovered_scans_everything(self, rng):
        dataset = binary_dataset(300, 4, rng=rng)
        oracle = GroundTruthOracle(dataset)
        result = base_coverage(oracle, FEMALE, 5, dataset_size=300)
        assert not result.covered
        assert result.count == 4
        assert result.tasks.n_point_queries == 300

    def test_worst_case_members_at_back(self):
        dataset = binary_dataset(100, 5, placement="back")
        oracle = GroundTruthOracle(dataset)
        result = base_coverage(oracle, FEMALE, 5, dataset_size=100)
        assert result.covered
        assert result.tasks.n_point_queries == 100

    def test_discovered_indices(self):
        dataset = binary_dataset(50, 3, placement="front")
        result = base_coverage(
            GroundTruthOracle(dataset), FEMALE, 10, dataset_size=50
        )
        assert result.discovered_indices == (0, 1, 2)

    def test_uses_point_queries_only(self, rng):
        dataset = binary_dataset(60, 30, rng=rng)
        result = base_coverage(
            GroundTruthOracle(dataset), FEMALE, 10, dataset_size=60
        )
        assert result.tasks.n_set_queries == 0

    def test_tau_zero(self, rng):
        dataset = binary_dataset(10, 5, rng=rng)
        result = base_coverage(GroundTruthOracle(dataset), FEMALE, 0, dataset_size=10)
        assert result.covered and result.tasks.total == 0

    def test_view_restriction(self):
        dataset = binary_dataset(100, 50, placement="front")
        result = base_coverage(
            GroundTruthOracle(dataset), FEMALE, 5, view=np.arange(50, 100)
        )
        assert not result.covered and result.count == 0

    def test_invalid_parameters(self, rng):
        dataset = binary_dataset(10, 2, rng=rng)
        with pytest.raises(InvalidParameterError):
            base_coverage(GroundTruthOracle(dataset), FEMALE, -1, dataset_size=10)
        with pytest.raises(InvalidParameterError):
            base_coverage(GroundTruthOracle(dataset), FEMALE, 5)

    def test_duplicate_view_index_rejected(self):
        # An object listed twice would be labeled, and counted, twice.
        dataset = binary_dataset(100, 100, placement="front")
        oracle = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError, match="more than once"):
            base_coverage(oracle, FEMALE, 10, view=np.array([5, 5, 5, 5, 6, 7]))
        assert oracle.ledger.total == 0
