"""Coverage resolution: acquiring the missing samples.

Detecting a coverage gap is half the story — the coverage literature the
paper builds on ([4], and our §6.4 reproduction) *resolves* gaps by
acquiring more samples of the uncovered groups. This module closes the
loop for the crowdsourced setting:

* :func:`acquisition_plan` reads a multi-group report and computes each
  uncovered group's deficit (``tau - certified count``),
* :func:`find_members` locates ``k`` members of a group inside an
  *unlabeled acquisition pool*. Mirroring Algorithm 4's partition/label
  decision, it first estimates the group's density from a small point
  sample and then either **scans** (point queries — cheaper for dense
  groups, ≈ ``k / density`` tasks) or **searches** (the same
  divide-and-conquer set queries Algorithm 1 uses — cheaper for rare
  groups, ≈ ``k · 2·log₂ n`` plus pruned chunks),
* :func:`resolve_coverage` executes a plan against a pool and returns the
  acquired indices per group plus the crowd cost.

Together with :mod:`repro.downstream`, this reproduces the paper's
§6.4 storyline end to end: detect the gap, buy the missing samples,
retrain, and watch the disparity close.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from repro.core.base_coverage import scan_members
from repro.core.results import MultipleCoverageReport, TaskUsage
from repro.core.views import resolve_view
from repro.crowd.oracle import Oracle
from repro.data.groups import Group, GroupPredicate
from repro.errors import InvalidParameterError

__all__ = ["AcquisitionPlan", "acquisition_plan", "find_members", "resolve_coverage"]


@dataclass(frozen=True)
class AcquisitionPlan:
    """How many samples each uncovered group still needs."""

    tau: int
    deficits: Mapping[Group, int]

    @property
    def total_needed(self) -> int:
        return sum(self.deficits.values())

    def describe(self) -> str:
        if not self.deficits:
            return "nothing to acquire: every group is covered"
        lines = [f"acquisition plan (tau={self.tau}):"]
        lines.extend(
            f"  {group.describe()}: need {deficit} more"
            for group, deficit in self.deficits.items()
        )
        return "\n".join(lines)


def acquisition_plan(report: MultipleCoverageReport, tau: int) -> AcquisitionPlan:
    """Deficits of every uncovered group in a Multiple-Coverage report.

    Uses each entry's certified count (exact for uncovered groups when the
    report was produced with member attribution; otherwise a lower bound,
    making the plan conservative — it may over-acquire, never under).
    """
    if tau <= 0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    deficits = {
        entry.group: tau - entry.count
        for entry in report.entries
        if not entry.covered
    }
    return AcquisitionPlan(tau=tau, deficits=deficits)


def find_members(
    oracle: Oracle,
    predicate: GroupPredicate,
    k: int,
    *,
    view: np.ndarray | None = None,
    pool_size: int | None = None,
    n: int = 50,
    strategy: str = "auto",
    density_sample_size: int = 20,
    rng: np.random.Generator | None = None,
) -> tuple[list[int], TaskUsage]:
    """Locate up to ``k`` members of ``predicate`` in an unlabeled pool.

    Parameters
    ----------
    strategy:
        ``"search"`` — divide-and-conquer set queries (chunk the pool,
        prune "no" ranges, split "yes" ranges down to singletons); best
        for rare groups.
        ``"scan"`` — point-label the pool in order until ``k`` members
        appear; best for dense groups (``k / density`` expected tasks).
        ``"auto"`` (default) — spend ``density_sample_size`` point queries
        estimating the density, then pick: scan iff the estimated density
        exceeds ``1 / (2·log₂ n)``, the break-even of the two cost models.
        Sampled members count toward ``k`` and are never re-asked.

    Returns
    -------
    (members, usage)
        Member indices found (fewer than ``k`` if the pool runs dry) and
        the tasks consumed (including any density sample).

    >>> import numpy as np
    >>> from repro.crowd import GroundTruthOracle
    >>> from repro.data import binary_dataset, group
    >>> pool = binary_dataset(1000, 40, rng=np.random.default_rng(2))
    >>> found, usage = find_members(
    ...     GroundTruthOracle(pool), group(gender="female"), 5,
    ...     pool_size=len(pool), strategy="search")
    >>> len(found), all(pool.matches(i, group(gender="female")) for i in found)
    (5, True)
    """
    if k < 0:
        raise InvalidParameterError(f"k must be >= 0, got {k}")
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if strategy not in ("auto", "search", "scan"):
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    if view is None and pool_size is None:
        raise InvalidParameterError("provide either view or pool_size")
    view = resolve_view(view, pool_size)

    ledger = oracle.ledger
    start_sets, start_points, start_rounds = (
        ledger.n_set_queries,
        ledger.n_point_queries,
        ledger.n_rounds,
    )

    def usage() -> TaskUsage:
        return TaskUsage(
            ledger.n_set_queries - start_sets,
            ledger.n_point_queries - start_points,
            ledger.n_rounds - start_rounds,
        )

    found: list[int] = []
    if k == 0 or len(view) == 0:
        return found, usage()

    if strategy == "auto":
        sample_size = min(density_sample_size, len(view))
        rng = rng or np.random.default_rng(0)
        sample_positions = rng.choice(len(view), size=sample_size, replace=False)
        _, members = scan_members(oracle, view[sample_positions], predicate, None)
        found.extend(members.tolist())
        density = len(members) / sample_size
        keep = np.ones(len(view), dtype=bool)
        keep[sample_positions] = False
        view = view[keep]
        break_even = 1.0 / (2.0 * max(math.log2(n), 1.0))
        strategy = "scan" if density >= break_even else "search"
        if len(found) >= k:
            return found[:k], usage()

    if strategy == "scan":
        found.extend(scan_members(oracle, view, predicate, k - len(found))[1].tolist())
        return found, usage()

    # A FIFO of [start, stop) ranges of the view.
    queue = deque((begin, min(begin + n, len(view))) for begin in range(0, len(view), n))
    while queue and len(found) < k:
        start, stop = queue.popleft()
        if not oracle.ask_set(view[start:stop], predicate):
            continue
        if stop - start == 1:
            found.append(int(view[start]))
            continue
        # The left half ends at the floor of the midpoint.
        middle = (start + stop + 1) // 2
        queue.append((start, middle))
        queue.append((middle, stop))
    return found, usage()


def resolve_coverage(
    oracle: Oracle,
    plan: AcquisitionPlan,
    *,
    pool_size: int,
    n: int = 50,
    strategy: str = "auto",
    rng: np.random.Generator | None = None,
) -> tuple[dict[Group, list[int]], TaskUsage]:
    """Execute an acquisition plan against an unlabeled pool.

    ``oracle`` must answer queries about the *pool*. Returns the acquired
    pool indices per group and the total crowd cost. Groups whose deficit
    cannot be met (pool runs dry) simply return fewer indices — callers
    should check lengths against the plan.
    """
    acquired: dict[Group, list[int]] = {}
    total = TaskUsage()
    remaining = np.arange(pool_size, dtype=np.int64)
    for group, deficit in plan.deficits.items():
        found, usage = find_members(
            oracle, group, deficit, view=remaining, n=n,
            strategy=strategy, rng=rng,
        )
        acquired[group] = found
        total = total + usage
        if found:
            # Objects acquired for one group leave the pool.
            remaining = remaining[~np.isin(remaining, np.asarray(found))]
    return acquired, total
