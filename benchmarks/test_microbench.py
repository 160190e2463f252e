"""Micro-benchmarks of the hot primitives.

These measure library throughput itself (not paper numbers): oracle query
latency, predicate mask caching, and a full Group-Coverage run at the
paper's default parameters. Useful for catching
performance regressions in the substrate.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.group_coverage import group_coverage
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset

FEMALE = group(gender="female")


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(100_000, 500, rng=np.random.default_rng(0))


def test_set_query_throughput(benchmark, dataset):
    oracle = GroundTruthOracle(dataset)
    indices = np.arange(0, 50)
    oracle.ask_set(indices, FEMALE)  # warm the mask cache

    benchmark(oracle.ask_set, indices, FEMALE)


def test_point_query_throughput(benchmark, dataset):
    oracle = GroundTruthOracle(dataset)
    benchmark(oracle.ask_point, 12345)


def test_mask_cache_hit(benchmark, dataset):
    dataset.mask(FEMALE)  # warm
    benchmark(dataset.mask, FEMALE)


def test_group_coverage_run(benchmark, dataset):
    def run():
        oracle = GroundTruthOracle(dataset)
        return group_coverage(
            oracle, FEMALE, 50, n=50, dataset_size=len(dataset)
        ).tasks.total

    tasks = benchmark(run)
    assert tasks > 0
