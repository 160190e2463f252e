"""Randomized equivalence: vectorized answering == row-at-a-time answering.

The vectorized scale path (membership index, prefix-count runs, interned
query keys, keyed oracle hooks) must be a pure optimization: for every
audit kind, every oracle kind, and every view shape, verdicts, counts,
and task charges must be bit-identical to an oracle that evaluates
``matches_row`` per object in pure Python — the reference semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.group_coverage import group_coverage
from repro.core.intersectional_coverage import intersectional_coverage
from repro.core.multiple_coverage import multiple_coverage
from repro.crowd.oracle import FlakyOracle, GroundTruthOracle, Oracle
from repro.data.groups import Negation, SuperGroup, group
from repro.data.schema import Schema
from repro.data.synthetic import intersectional_dataset

SCHEMA = Schema.from_dict(
    {"gender": ["male", "female"], "race": ["white", "black"]}
)


class RowAtATimeOracle(Oracle):
    """Reference semantics: per-object Python evaluation, no vectorization."""

    def __init__(self, dataset, *, budget=None):
        super().__init__(dataset.schema, budget=budget)
        self.dataset = dataset

    def _answer_set(self, indices, predicate, index_key):
        return any(
            predicate.matches_row(self.dataset.value_row(int(i))) for i in indices
        )

    def _answer_point(self, index):
        return self.dataset.value_row(index)


class RowAtATimeFlakyOracle(RowAtATimeOracle):
    """Row-at-a-time truth + the same flip stream FlakyOracle draws."""

    def __init__(self, dataset, rng, *, set_error_rate=0.0):
        super().__init__(dataset)
        self.rng = rng
        self.set_error_rate = set_error_rate

    def _answer_set(self, indices, predicate, index_key):
        truth = super()._answer_set(indices, predicate, index_key)
        if self.rng.random() < self.set_error_rate:
            return not truth
        return truth


def random_dataset(rng):
    joint = {
        ("male", "white"): int(rng.integers(50, 400)),
        ("female", "white"): int(rng.integers(0, 120)),
        ("male", "black"): int(rng.integers(0, 60)),
        ("female", "black"): int(rng.integers(0, 25)),
    }
    return intersectional_dataset(SCHEMA, joint, rng=rng)


def random_view(rng, n_objects):
    """Half the time a full arange (run-keyed), else a scattered subset."""
    if rng.random() < 0.5:
        return None
    size = int(rng.integers(1, n_objects + 1))
    return np.sort(rng.choice(n_objects, size=size, replace=False))


def random_predicate(rng):
    choices = [
        group(gender="female"),
        group(gender="female", race="black"),
        SuperGroup([group(race="black"), group(gender="female", race="white")]),
        Negation(group(gender="male")),
    ]
    return choices[int(rng.integers(len(choices)))]


@pytest.mark.parametrize("trial", range(12))
def test_group_coverage_bit_identical(trial):
    rng = np.random.default_rng(100 + trial)
    dataset = random_dataset(rng)
    predicate = random_predicate(rng)
    view = random_view(rng, len(dataset))
    tau = int(rng.integers(1, 40))
    n = int(rng.integers(2, 60))

    reference = group_coverage(
        RowAtATimeOracle(dataset), predicate, tau,
        n=n, view=view, dataset_size=len(dataset),
    )
    vectorized = group_coverage(
        GroundTruthOracle(dataset), predicate, tau,
        n=n, view=view, dataset_size=len(dataset),
    )
    assert vectorized.covered == reference.covered
    assert vectorized.count == reference.count
    assert vectorized.discovered_indices == reference.discovered_indices
    assert vectorized.tasks.n_set_queries == reference.tasks.n_set_queries
    assert vectorized.tasks.n_point_queries == reference.tasks.n_point_queries


@pytest.mark.parametrize("trial", range(8))
def test_group_coverage_flaky_bit_identical(trial):
    """Same rng seed -> same flip stream -> identical noisy verdicts."""
    rng = np.random.default_rng(300 + trial)
    dataset = random_dataset(rng)
    predicate = random_predicate(rng)
    tau = int(rng.integers(1, 30))

    reference = group_coverage(
        RowAtATimeFlakyOracle(
            dataset, np.random.default_rng(trial), set_error_rate=0.15
        ),
        predicate, tau, n=16, dataset_size=len(dataset),
    )
    vectorized = group_coverage(
        FlakyOracle(
            dataset, np.random.default_rng(trial), set_error_rate=0.15
        ),
        predicate, tau, n=16, dataset_size=len(dataset),
    )
    assert vectorized.covered == reference.covered
    assert vectorized.count == reference.count
    assert vectorized.discovered_indices == reference.discovered_indices
    assert vectorized.tasks.total == reference.tasks.total


@pytest.mark.parametrize("engine", [False, True], ids=["sequential", "engine"])
@pytest.mark.parametrize("trial", range(4))
def test_multiple_coverage_bit_identical(trial, engine):
    rng = np.random.default_rng(500 + trial)
    dataset = random_dataset(rng)
    groups = (
        group(gender="male"),
        group(gender="female"),
    )
    tau = int(rng.integers(2, 30))

    reference = multiple_coverage(
        RowAtATimeOracle(dataset), groups, tau,
        n=20, rng=np.random.default_rng(trial), dataset_size=len(dataset),
    )

    kwargs = {}
    if engine:
        from repro.engine import QueryEngine

        oracle = GroundTruthOracle(dataset)
        kwargs = {"engine": QueryEngine(oracle)}
    else:
        oracle = GroundTruthOracle(dataset)
    vectorized = multiple_coverage(
        oracle, groups, tau,
        n=20, rng=np.random.default_rng(trial), dataset_size=len(dataset),
        **kwargs,
    )

    for ref_entry, vec_entry in zip(reference.entries, vectorized.entries):
        assert vec_entry.group == ref_entry.group
        assert vec_entry.covered == ref_entry.covered
        assert vec_entry.count == ref_entry.count
    assert vectorized.super_groups == reference.super_groups
    if not engine:  # engine mode may save tasks through its cache
        assert vectorized.tasks.total == reference.tasks.total


@pytest.mark.parametrize("trial", range(3))
def test_intersectional_coverage_bit_identical(trial):
    rng = np.random.default_rng(700 + trial)
    dataset = random_dataset(rng)
    tau = int(rng.integers(2, 20))

    reference = intersectional_coverage(
        RowAtATimeOracle(dataset), SCHEMA, tau,
        n=16, rng=np.random.default_rng(trial), dataset_size=len(dataset),
    )
    vectorized = intersectional_coverage(
        GroundTruthOracle(dataset), SCHEMA, tau,
        n=16, rng=np.random.default_rng(trial), dataset_size=len(dataset),
    )

    assert (
        sorted(p.describe() for p in vectorized.mups)
        == sorted(p.describe() for p in reference.mups)
    )
    for ref_entry, vec_entry in zip(
        reference.leaf_report.entries, vectorized.leaf_report.entries
    ):
        assert vec_entry.covered == ref_entry.covered
        assert vec_entry.count == ref_entry.count
    assert vectorized.tasks.total == reference.tasks.total


@pytest.mark.parametrize("trial", range(6))
def test_oracle_answers_match_per_query(trial):
    """ask_set / ask_set_batch / ask_point_batch against the reference."""
    rng = np.random.default_rng(900 + trial)
    dataset = random_dataset(rng)
    vectorized = GroundTruthOracle(dataset)
    reference = RowAtATimeOracle(dataset)
    queries = []
    for _ in range(40):
        predicate = random_predicate(rng)
        if rng.random() < 0.5:
            start = int(rng.integers(0, len(dataset)))
            stop = int(rng.integers(start, len(dataset) + 1))
            indices = np.arange(start, stop)
        else:
            indices = rng.choice(
                len(dataset), size=int(rng.integers(0, 30)), replace=False
            )
        queries.append((indices, predicate))

    batch = vectorized.ask_set_batch(queries)
    for (indices, predicate), batched_answer in zip(queries, batch):
        assert vectorized.ask_set(indices, predicate) == batched_answer
        assert reference.ask_set(indices, predicate) == batched_answer

    points = rng.choice(len(dataset), size=15, replace=False).tolist()
    assert vectorized.ask_point_batch(points) == [
        reference.ask_point(index) for index in points
    ]


def test_point_batch_bounds_checked(trial=0):
    """Batched point queries reject out-of-range indices like the
    single-query path instead of wrapping via fancy-indexing."""
    from repro.errors import OracleError

    dataset = random_dataset(np.random.default_rng(40))
    oracle = GroundTruthOracle(dataset)
    with pytest.raises(OracleError):
        oracle.ask_point_batch([0, -1])
    with pytest.raises(OracleError):
        oracle.ask_point_batch([len(dataset)])


def test_subclassed_point_hook_sees_batched_queries():
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

    dataset = random_dataset(np.random.default_rng(41))
    Tracing(dataset).ask_point_batch([0, 1, 2, 3])
    assert seen == [0, 1, 2, 3]
    seen.clear()
    TracingFlaky(dataset, np.random.default_rng(0)).ask_point_batch([5, 6])
    assert seen == [5, 6]


def test_subclassed_set_hook_sees_every_query():
    """Same contract for set queries, sequential and batched."""
    seen: list[tuple] = []

    class Tracing(GroundTruthOracle):
        def _answer_set(self, indices, predicate, index_key):
            seen.append((int(indices[0]), int(indices[-1])))
            return super()._answer_set(indices, predicate, index_key)

    dataset = random_dataset(np.random.default_rng(42))
    oracle = Tracing(dataset)
    oracle.ask_set(np.arange(0, 10), group(gender="female"))
    oracle.ask_set_batch(
        [(np.arange(10, 20), group(gender="female")),
         (np.array([1, 5, 9]), group(gender="female"))]
    )
    assert seen == [(0, 9), (10, 19), (1, 9)]
