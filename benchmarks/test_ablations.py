"""Benches A1–A3 — ablations on design choices the paper leaves
unquantified (see :mod:`repro.experiments.ablations`)."""

from __future__ import annotations

from repro.experiments.ablations import (
    render_ablation_aggregation,
    render_ablation_sampling_budget,
    render_ablation_set_size,
    render_ablation_worker_bias,
    run_ablation_aggregation,
    run_ablation_sampling_budget,
    run_ablation_set_size,
    run_ablation_worker_bias,
)


def test_ablation_set_size(once):
    """A1: larger set queries cost fewer tasks but degrade verdict accuracy
    once per-answer error grows with set size."""
    points = once(run_ablation_set_size)
    print()
    print(render_ablation_set_size(points))
    # Cost falls sharply from tiny to medium sets.
    assert points[0].mean_tasks > 3 * points[3].mean_tasks
    # Small, low-error sets keep verdicts essentially perfect.
    assert points[0].verdict_accuracy >= 0.9
    # Accuracy at the largest (noisiest) size should not beat the smallest.
    assert points[-1].verdict_accuracy <= points[0].verdict_accuracy


def test_ablation_aggregation(once):
    """A2: Dawid-Skene matches or beats majority vote as pools get spammy."""
    comparisons = once(run_ablation_aggregation)
    print()
    print(render_ablation_aggregation(comparisons))
    for comparison in comparisons:
        assert comparison.dawid_skene_errors <= comparison.majority_errors + 2
    # In the clean pool both schemes are near-perfect.
    assert comparisons[0].majority_errors <= 2


def test_ablation_sampling_budget(once):
    """A3: some sampling helps on the effective setting; verdicts stay
    correct across the sweep."""
    points = once(run_ablation_sampling_budget)
    print()
    print(render_ablation_sampling_budget(points))
    assert all(p.verdicts_correct for p in points)
    by_c = {p.c: p.mean_tasks for p in points}
    # The paper's c=2 beats no sampling at all on this setting.
    assert by_c[2.0] < by_c[0.0]


def test_ablation_worker_bias(once):
    """A6: systematic anti-minority bias breaks point-query pipelines even
    under majority vote; set-query pipelines stay correct."""
    points = once(run_ablation_worker_bias)
    print()
    print(render_ablation_worker_bias(points))
    clean, *biased = points
    assert clean.base_coverage_accuracy >= 0.9
    assert clean.group_coverage_accuracy >= 0.9
    for point in biased:
        assert point.group_coverage_accuracy >= point.base_coverage_accuracy
    # At heavy bias the baseline collapses while Group-Coverage holds.
    heavy = points[-1]
    assert heavy.base_coverage_accuracy <= 0.5
    assert heavy.group_coverage_accuracy >= 0.9
