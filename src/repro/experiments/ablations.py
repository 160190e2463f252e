"""Ablation studies beyond the paper's figures (A1–A3 below).

The paper flags several design choices without quantifying them; these
ablations fill the gaps:

* **A1 — set-query size vs crowd reliability.** §6.5.1 warns that large
  set queries yield "less reliable answers". We model per-answer error
  growing with set size and measure both cost and verdict accuracy across
  ``n``, exposing the cost/reliability trade-off.
* **A2 — majority vote vs Dawid–Skene.** With a spammy worker pool,
  compare aggregation error of the paper's majority vote against EM truth
  inference over the same recorded HITs.
* **A3 — sampling budget ``c``.** Algorithm 2 labels ``c·tau`` samples up
  front; the paper picks ``c = 2``. Sweep ``c`` on the effective-1 setting
  to show the sweet spot.
* **A4/A5** live in :mod:`benchmarks.test_extensions` (cost-aware set
  sizing; pruned MUP search).
* **A6 — systematic worker bias.** §1 worries that crowdsourcing "can
  potentially add human bias into the process". We plant workers who
  systematically label female faces as male and show that redundancy does
  *not* save point-query pipelines (majority of biased answers is still
  biased), while set queries — which only ask about presence — remain
  robust at the same bias levels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.group_coverage import group_coverage
from repro.core.multiple_coverage import multiple_coverage
from repro.crowd.oracle import CrowdOracle, GroundTruthOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.workers import Worker
from repro.data.groups import Group, group
from repro.data.synthetic import binary_dataset, single_attribute_dataset
from repro.experiments.harness import trial_rngs
from repro.experiments.reporting import render_table
from repro.experiments.settings import multi_group_settings

__all__ = [
    "SetSizeReliabilityPoint",
    "run_ablation_set_size",
    "AggregationComparison",
    "run_ablation_aggregation",
    "SamplingBudgetPoint",
    "run_ablation_sampling_budget",
    "WorkerBiasPoint",
    "run_ablation_worker_bias",
    "render_ablation_set_size",
    "render_ablation_aggregation",
    "render_ablation_sampling_budget",
    "render_ablation_worker_bias",
]

FEMALE = group(gender="female")


# ----------------------------------------------------------------------
# A1 — set-query size vs reliability
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SetSizeReliabilityPoint:
    n: int
    worker_error_rate: float
    mean_tasks: float
    verdict_accuracy: float


def run_ablation_set_size(
    *,
    seed: int = 53,
    n_trials: int = 10,
    n_total: int = 5_000,
    n_females: int = 50,
    tau: int = 50,
    n_values: Sequence[int] = (5, 10, 25, 50, 100, 200),
    base_error: float = 0.002,
    error_per_item: float = 0.0006,
) -> list[SetSizeReliabilityPoint]:
    """Sweep ``n`` with per-answer error ``base + error_per_item * n``:
    bigger sets are cheaper but the crowd misjudges them more often."""
    points: list[SetSizeReliabilityPoint] = []
    for n in n_values:
        error_rate = min(base_error + error_per_item * n, 0.49)
        tasks: list[int] = []
        correct = 0
        for rng in trial_rngs(seed + n, n_trials):
            dataset = binary_dataset(n_total, n_females, rng=rng)
            truth = dataset.count(FEMALE) >= tau
            workers = [
                Worker(worker_id=i, set_error_rate=error_rate, point_error_rate=0.01)
                for i in range(9)
            ]
            platform = CrowdPlatform(dataset, workers, rng, record_hits=False)
            result = group_coverage(
                CrowdOracle(platform), FEMALE, tau, n=n, dataset_size=n_total
            )
            tasks.append(result.tasks.total)
            correct += int(result.covered == truth)
        points.append(
            SetSizeReliabilityPoint(
                n=n,
                worker_error_rate=error_rate,
                mean_tasks=float(np.mean(tasks)),
                verdict_accuracy=correct / n_trials,
            )
        )
    return points


def render_ablation_set_size(points: list[SetSizeReliabilityPoint]) -> str:
    rows = [
        [p.n, f"{p.worker_error_rate:.2%}", f"{p.mean_tasks:.0f}", f"{p.verdict_accuracy:.0%}"]
        for p in points
    ]
    return render_table(
        ["n", "per-answer error", "mean tasks", "verdict accuracy"],
        rows,
        title="Ablation A1 — set-query size vs noisy-crowd reliability "
        "(N=5000, f=tau=50, 3-vote majority)",
    )


# ----------------------------------------------------------------------
# A2 — majority vote vs Dawid–Skene
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AggregationComparison:
    spammer_fraction: float
    n_hits: int
    majority_errors: int
    dawid_skene_errors: int


def run_ablation_aggregation(
    *,
    seed: int = 59,
    n_total: int = 3_000,
    n_females: int = 50,
    tau: int = 50,
    n: int = 25,
    spammer_fractions: Sequence[float] = (0.0, 0.2, 0.4),
    assignments_per_hit: int = 5,
) -> list[AggregationComparison]:
    """Run Group-Coverage through increasingly spammy pools and re-infer
    the recorded HITs with Dawid–Skene."""
    from repro.crowd.workers import make_worker_pool

    comparisons: list[AggregationComparison] = []
    for i, fraction in enumerate(spammer_fractions):
        rng = np.random.default_rng(seed + i)
        dataset = binary_dataset(n_total, n_females, rng=rng)
        workers = make_worker_pool(
            40, rng, error_rate=0.01, spammer_fraction=fraction,
            spammer_error_rate=0.45,
        )
        platform = CrowdPlatform(
            dataset, workers, rng, assignments_per_hit=assignments_per_hit,
            record_hits=True,
        )
        group_coverage(CrowdOracle(platform), FEMALE, tau, n=n, dataset_size=n_total)
        majority_errors, ds_errors = platform.reaggregate_set_hits_with_dawid_skene()
        comparisons.append(
            AggregationComparison(
                spammer_fraction=fraction,
                n_hits=platform.ledger.n_hits,
                majority_errors=majority_errors,
                dawid_skene_errors=ds_errors,
            )
        )
    return comparisons


def render_ablation_aggregation(comparisons: list[AggregationComparison]) -> str:
    rows = [
        [f"{c.spammer_fraction:.0%}", c.n_hits, c.majority_errors, c.dawid_skene_errors]
        for c in comparisons
    ]
    return render_table(
        ["spammer fraction", "#HITs", "majority-vote errors", "Dawid-Skene errors"],
        rows,
        title="Ablation A2 — aggregation scheme under spammy pools "
        "(5 assignments/HIT)",
    )


# ----------------------------------------------------------------------
# A3 — sampling budget c
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SamplingBudgetPoint:
    c: float
    mean_tasks: float
    verdicts_correct: bool


def run_ablation_sampling_budget(
    *,
    seed: int = 61,
    n_trials: int = 5,
    tau: int = 50,
    n: int = 50,
    c_values: Sequence[float] = (0.0, 1.0, 2.0, 4.0, 8.0),
) -> list[SamplingBudgetPoint]:
    """Sweep Algorithm 2's sampling budget on the effective-1 setting."""
    setting = multi_group_settings()[0]
    groups = [Group({"group": value}) for value in setting.counts]
    points: list[SamplingBudgetPoint] = []
    for c in c_values:
        tasks: list[int] = []
        correct = True
        for rng in trial_rngs(seed, n_trials):
            dataset = single_attribute_dataset(
                dict(setting.counts), attribute="group", rng=rng
            )
            report = multiple_coverage(
                GroundTruthOracle(dataset), groups, tau, n=n, c=c, rng=rng,
                dataset_size=len(dataset),
            )
            tasks.append(report.tasks.total)
            for entry in report.entries:
                correct &= entry.covered == (
                    setting.counts[entry.group.value_of("group")] >= tau
                )
        points.append(
            SamplingBudgetPoint(
                c=c, mean_tasks=float(np.mean(tasks)), verdicts_correct=correct
            )
        )
    return points


def render_ablation_sampling_budget(points: list[SamplingBudgetPoint]) -> str:
    rows = [
        [p.c, f"{p.mean_tasks:.0f}", "yes" if p.verdicts_correct else "NO"]
        for p in points
    ]
    return render_table(
        ["c", "mean tasks", "verdicts correct"],
        rows,
        title="Ablation A3 — Multiple-Coverage sampling budget "
        "(effective-1 setting, sigma=4)",
    )


# ----------------------------------------------------------------------
# A6 — systematic worker bias against the minority group
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkerBiasPoint:
    biased_fraction: float
    base_coverage_accuracy: float
    group_coverage_accuracy: float


def run_ablation_worker_bias(
    *,
    seed: int = 67,
    n_trials: int = 10,
    n_total: int = 2_000,
    n_females: int = 60,
    tau: int = 50,
    n: int = 25,
    biased_fractions: Sequence[float] = (0.0, 0.3, 0.6),
) -> list[WorkerBiasPoint]:
    """Plant workers who always label female images as male and measure
    verdict accuracy of the point-query baseline vs Group-Coverage.

    The group is marginally covered (60 members, tau=50): a pipeline that
    loses ~20 % of female labels to bias flips to "uncovered". Set
    queries only ask about presence and are answered with the workers'
    ordinary (unbiased) set-error rate, so Group-Coverage is unaffected.
    """
    from repro.core.base_coverage import base_coverage

    points: list[WorkerBiasPoint] = []
    for fraction in biased_fractions:
        base_correct = 0
        group_correct = 0
        for trial, rng in enumerate(trial_rngs(seed + int(fraction * 100), n_trials)):
            dataset = binary_dataset(n_total, n_females, rng=rng)
            truth = dataset.count(FEMALE) >= tau
            n_biased = int(round(9 * fraction))
            workers = [
                Worker(
                    worker_id=i,
                    set_error_rate=0.005,
                    point_error_rate=0.005,
                    value_error_rates=(
                        {("gender", "female"): 1.0} if i < n_biased else {}
                    ),
                )
                for i in range(9)
            ]
            base_platform = CrowdPlatform(dataset, workers, rng, record_hits=False)
            base_result = base_coverage(
                CrowdOracle(base_platform), FEMALE, tau, dataset_size=n_total
            )
            base_correct += int(base_result.covered == truth)

            group_platform = CrowdPlatform(dataset, workers, rng, record_hits=False)
            group_result = group_coverage(
                CrowdOracle(group_platform), FEMALE, tau, n=n, dataset_size=n_total
            )
            group_correct += int(group_result.covered == truth)
        points.append(
            WorkerBiasPoint(
                biased_fraction=fraction,
                base_coverage_accuracy=base_correct / n_trials,
                group_coverage_accuracy=group_correct / n_trials,
            )
        )
    return points


def render_ablation_worker_bias(points: list[WorkerBiasPoint]) -> str:
    rows = [
        [
            f"{p.biased_fraction:.0%}",
            f"{p.base_coverage_accuracy:.0%}",
            f"{p.group_coverage_accuracy:.0%}",
        ]
        for p in points
    ]
    return render_table(
        ["biased workers", "Base-Coverage verdict accuracy", "Group-Coverage verdict accuracy"],
        rows,
        title="Ablation A6 — systematic anti-minority labeling bias "
        "(f=60, tau=50, 3-vote majority)",
    )
