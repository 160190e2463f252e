"""Property-based tests (hypothesis) for the core invariants.

These are the strongest correctness guarantees in the suite: for *any*
dataset composition, placement, and parameterization, the crowdsourced
algorithms must agree with ground truth and respect their cost bounds.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classifiers.metrics import BinaryConfusion
from repro.classifiers.simulated import solve_confusion
from repro.core.aggregate import aggregate_groups, expected_count
from repro.core.base_coverage import base_coverage
from repro.core.classifier_coverage import classifier_coverage
from repro.core.group_coverage import group_coverage
from repro.core.sampling import LabeledPool
from repro.crowd.aggregation import majority_vote
from repro.crowd.oracle import GroundTruthOracle
from repro.data.dataset import LabeledDataset
from repro.data.groups import Group, group
from repro.data.schema import Schema
from repro.data.synthetic import intersectional_dataset
from repro.patterns.combiner import LeafCoverage, combine_leaf_coverage
from repro.patterns.graph import PatternGraph
from repro.patterns.tabular import assess_tabular_coverage

FEMALE = group(gender="female")
GENDER_SCHEMA = Schema.from_dict({"gender": ["male", "female"]})


def dataset_from_bools(members: list[bool]) -> LabeledDataset:
    codes = np.array(members, dtype=np.int16).reshape(-1, 1)
    return LabeledDataset(GENDER_SCHEMA, codes)


# ----------------------------------------------------------------------
# Group-Coverage (Algorithm 1)
# ----------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=1, max_size=200),
    n=st.integers(min_value=1, max_value=64),
    tau=st.integers(min_value=0, max_value=64),
)
def test_group_coverage_verdict_matches_ground_truth(members, n, tau):
    dataset = dataset_from_bools(members)
    oracle = GroundTruthOracle(dataset)
    result = group_coverage(oracle, FEMALE, tau, n=n, dataset_size=len(dataset))
    true_count = sum(members)

    # Verdict correctness (Lemma 3.1).
    assert result.covered == (true_count >= tau)
    # The reported count never overstates the truth.
    assert result.count <= true_count
    if result.covered:
        assert result.count == tau
    else:
        # Exact count for uncovered groups (needed by Pattern-Combiner).
        assert result.count == true_count
        assert sorted(result.discovered_indices) == [
            i for i, m in enumerate(members) if m
        ]

    # Cost bounds: uncovered runs must touch every chunk; every run stays
    # under the concrete ceiling ceil(N/n) + tau * (2*ceil(log2 n) + 1).
    n_chunks = math.ceil(len(members) / n)
    if not result.covered and tau > 0:
        assert result.tasks.total >= n_chunks
    depth = math.ceil(math.log2(n)) if n > 1 else 0
    assert result.tasks.total <= n_chunks + tau * (2 * depth + 1)


@settings(max_examples=60, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=1, max_size=120),
    n=st.integers(min_value=1, max_value=32),
    tau=st.integers(min_value=0, max_value=32),
)
def test_base_coverage_verdict_and_cost(members, n, tau):
    dataset = dataset_from_bools(members)
    oracle = GroundTruthOracle(dataset)
    result = base_coverage(oracle, FEMALE, tau, dataset_size=len(dataset))
    true_count = sum(members)
    assert result.covered == (true_count >= tau)
    if tau == 0:
        assert result.tasks.total == 0
    elif result.covered:
        # Stops exactly at the tau-th member's position.
        positions = [i for i, m in enumerate(members) if m]
        assert result.tasks.total == positions[tau - 1] + 1
    else:
        assert result.tasks.total == len(members)


@settings(max_examples=60, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=1, max_size=150),
    n=st.integers(min_value=2, max_value=64),
    tau=st.integers(min_value=1, max_value=40),
)
def test_group_coverage_never_beats_information_bound(members, n, tau):
    """Sanity: certifying coverage needs >= tau set queries with yes
    answers; our count lower bound implies tasks >= tau when covered."""
    dataset = dataset_from_bools(members)
    result = group_coverage(
        GroundTruthOracle(dataset), FEMALE, tau, n=n, dataset_size=len(dataset)
    )
    if result.covered:
        assert result.tasks.total >= tau


# ----------------------------------------------------------------------
# Pattern-Combiner vs tabular brute force
# ----------------------------------------------------------------------
@st.composite
def small_schema_and_counts(draw):
    n_attributes = draw(st.integers(min_value=1, max_value=3))
    cards = [draw(st.integers(min_value=2, max_value=3)) for _ in range(n_attributes)]
    schema = Schema.from_dict(
        {
            f"a{i}": [f"v{i}_{j}" for j in range(card)]
            for i, card in enumerate(cards)
        }
    )
    graph = PatternGraph(schema)
    counts = {
        tuple(leaf.values): draw(st.integers(min_value=0, max_value=80))
        for leaf in graph.leaves()
    }
    tau = draw(st.integers(min_value=1, max_value=60))
    return schema, counts, tau


@settings(max_examples=60, deadline=None)
@given(small_schema_and_counts())
def test_pattern_combiner_matches_tabular_reference(case):
    schema, counts, tau = case
    dataset = intersectional_dataset(schema, counts, shuffle=False)
    graph = PatternGraph(schema)
    reference = assess_tabular_coverage(dataset, tau, graph=graph)

    # Feed the combiner what a perfect Group-Coverage pass would report.
    leaf_results = {}
    for leaf in graph.leaves():
        count = counts[tuple(leaf.values)]
        leaf_results[leaf] = LeafCoverage(
            covered=count >= tau, count=min(count, tau) if count >= tau else count
        )
    report = combine_leaf_coverage(graph, leaf_results, tau)

    for pattern in graph:
        assert report.verdict(pattern).covered == reference.verdict(pattern).covered
    assert set(report.mups) == set(reference.mups)
    # MUP maximality: parents covered, children of MUPs uncovered.
    for mup in report.mups:
        assert all(report.verdict(p).covered for p in graph.parents(mup))
        for child in graph.children(mup):
            assert not report.verdict(child).covered


# ----------------------------------------------------------------------
# Aggregate (Algorithm 6)
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    sampled=st.lists(st.integers(min_value=0, max_value=30), min_size=2, max_size=6),
    tau=st.integers(min_value=1, max_value=80),
    dataset_size=st.integers(min_value=10, max_value=5000),
)
def test_aggregate_partitions_and_respects_tau(sampled, tau, dataset_size):
    pool = LabeledPool()
    index = 0
    groups = []
    for i, count in enumerate(sampled):
        value = f"g{i}"
        groups.append(Group({"race": value}))
        for _ in range(count):
            pool.add(index, {"race": value})
            index += 1
    supers = aggregate_groups(pool, dataset_size, tau, groups)

    # Partition: every group appears in exactly one super-group.
    flattened = [member for s in supers for member in s]
    assert sorted(g.describe() for g in flattened) == sorted(
        g.describe() for g in groups
    )
    # Merge invariant: a non-singleton super-group's expected total < tau.
    for s in supers:
        if len(s) > 1:
            total = sum(expected_count(pool, member, dataset_size) for member in s)
            assert total < tau


# ----------------------------------------------------------------------
# Classifier-Coverage (Algorithm 4)
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    members=st.lists(st.booleans(), min_size=2, max_size=150),
    predicted=st.data(),
    tau=st.integers(min_value=1, max_value=30),
    n=st.integers(min_value=2, max_value=32),
)
def test_classifier_coverage_verdict_for_arbitrary_predictions(
    members, predicted, tau, n
):
    dataset = dataset_from_bools(members)
    prediction_mask = predicted.draw(
        st.lists(st.booleans(), min_size=len(members), max_size=len(members))
    )
    predicted_indices = np.flatnonzero(np.array(prediction_mask, dtype=bool))
    result = classifier_coverage(
        GroundTruthOracle(dataset),
        FEMALE,
        tau,
        predicted_indices,
        n=n,
        rng=np.random.default_rng(0),
        dataset_size=len(dataset),
    )
    assert result.covered == (sum(members) >= tau)
    if not result.covered:
        assert result.count == sum(members)


# ----------------------------------------------------------------------
# Crowd primitives
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(st.lists(st.booleans(), min_size=1, max_size=15))
def test_majority_vote_matches_counting(answers):
    winner = majority_vote(answers)
    true_count = sum(answers)
    false_count = len(answers) - true_count
    if true_count > false_count:
        assert winner is True
    elif false_count > true_count:
        assert winner is False
    else:
        assert winner is answers[0]  # deterministic tie-break: first seen


# ----------------------------------------------------------------------
# Confusion-profile solver
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(
    tp=st.integers(min_value=0, max_value=200),
    fp=st.integers(min_value=0, max_value=200),
    fn=st.integers(min_value=0, max_value=200),
    tn=st.integers(min_value=0, max_value=200),
)
def test_solve_confusion_roundtrip(tp, fp, fn, tn):
    """Any realizable confusion's (accuracy, precision) must be re-solvable
    to a confusion with the same metrics."""
    if tp + fp + fn + tn == 0:
        return
    original = BinaryConfusion(tp=tp, fp=fp, fn=fn, tn=tn)
    solved = solve_confusion(
        original.n_positive,
        fp + tn,
        accuracy=original.accuracy,
        precision=original.precision,
        tolerance=0.01,
    )
    assert abs(solved.accuracy - original.accuracy) <= 0.01
    assert abs(solved.precision - original.precision) <= 0.01
