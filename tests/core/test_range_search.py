"""Pin the set-query sequences of the two plain divide-and-conquer loops.

:func:`~repro.core.classifier_coverage.partition_positive_set` and
:func:`~repro.core.resolution.find_members`' search strategy both walk a
FIFO of index ranges, asking each range and halving its "yes" ranges
(the left half ends at the floor of the midpoint). Every ``ask_set``
call is hashed in order as (predicate, index bytes), together with the
results and the ledger, and compared with digests recorded from the
tree-node implementation the range loops replaced.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core.classifier_coverage import partition_positive_set
from repro.core.resolution import find_members
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset

FEMALE = group(gender="female")


def logged(oracle: GroundTruthOracle):
    """Hash every ``ask_set`` call ``oracle`` receives, in order."""
    digest = hashlib.sha256()
    ask_set = oracle.ask_set

    def ask(indices, predicate, *, key=None):
        digest.update(predicate.describe().encode())
        digest.update(np.ascontiguousarray(indices, dtype=np.int64).tobytes())
        return ask_set(indices, predicate, key=key)

    oracle.ask_set = ask
    return digest


def run_digest(digest, oracle, result) -> str:
    digest.update(repr(result).encode())
    digest.update(repr((oracle.ledger.total, oracle.ledger.n_rounds)).encode())
    return digest.hexdigest()[:16]


PARTITION_CASES = {
    # (dataset size, members, n, stop_after, seed): digest
    (400, 300, 50, None, 0): "9beebce9b597fcad",
    (400, 300, 7, 120, 1): "997c0b5a1ac6ee35",
    (257, 250, 16, None, 2): "f10d794d5ee9ef39",
    (120, 40, 1, None, 3): "89cc5e701cc89998",
    (300, 295, 64, 200, 4): "5a32a33503fb11c8",
}


@pytest.mark.parametrize("case", list(PARTITION_CASES), ids=str)
def test_partition_positive_set_sequence(case):
    size, members, n, stop_after, seed = case
    rng = np.random.default_rng(seed)
    dataset = binary_dataset(size, members, rng=rng)
    oracle = GroundTruthOracle(dataset)
    digest = logged(oracle)
    positives = np.sort(rng.choice(size, size=size * 3 // 4, replace=False))
    result = partition_positive_set(
        oracle, FEMALE, positives, n=n, stop_after=stop_after
    )
    assert run_digest(digest, oracle, result) == PARTITION_CASES[case]


SEARCH_CASES = {
    # (pool size, members, k, n, strategy, seed): digest
    (1000, 40, 5, 50, "search", 0): "248eea8c5946b1e8",
    (1000, 40, 40, 50, "search", 1): "e8f1e626043f7a23",
    (777, 13, 30, 20, "search", 2): "8659b88d7a0a2065",
    (500, 9, 3, 1, "search", 3): "26ceb39b4f2729e5",
    (2000, 30, 12, 50, "auto", 4): "a5ed2172ffa3b8e6",
}


@pytest.mark.parametrize("case", list(SEARCH_CASES), ids=str)
def test_find_members_search_sequence(case):
    size, members, k, n, strategy, seed = case
    rng = np.random.default_rng(seed)
    pool = binary_dataset(size, members, rng=rng)
    oracle = GroundTruthOracle(pool)
    digest = logged(oracle)
    view = rng.permutation(size)[: size * 9 // 10]
    found, usage = find_members(
        oracle, FEMALE, k, view=view, pool_size=size, n=n, strategy=strategy,
        rng=np.random.default_rng(seed),
    )
    assert run_digest(digest, oracle, (found, usage)) == SEARCH_CASES[case]
