"""Base-Coverage (Algorithm 7): the one-point-query-per-object baseline.

The straightforward strategy the paper compares against: walk the dataset
object by object, asking the crowd whether each belongs to the target
group, and stop when ``tau`` members have been found (covered) or the data
is exhausted (uncovered). Costs Θ(position of the tau-th member) point
queries when covered and exactly ``N`` when uncovered.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.results import GroupCoverageResult, LedgerWindow
from repro.core.views import resolve_view
from repro.crowd.oracle import Oracle
from repro.data.groups import GroupPredicate
from repro.data.kernels import predicate_mask
from repro.errors import InvalidParameterError

__all__ = ["base_coverage", "execute_base_coverage", "scan_members"]


def scan_members(
    oracle: Oracle,
    indices: np.ndarray,
    predicate: GroupPredicate,
    tau: int | None,
) -> tuple[int, np.ndarray]:
    """Point-query ``indices`` in order until the ``tau``-th member
    (``tau=None``: to the end) through :meth:`~repro.crowd.oracle.Oracle.scan_points`.

    Returns the number of objects asked and the members among them, in
    order. A scan the task budget cut short raises the
    :class:`~repro.errors.BudgetExceededError` the next per-point ask
    would have raised, after the oracle recorded the paid prefix.
    """
    indices = np.asarray(indices, dtype=np.int64)
    rows = oracle.scan_points(indices, predicate, tau)
    members = indices[: len(rows)][predicate_mask(oracle.schema, rows, predicate)]
    if len(rows) < len(indices) and (tau is None or len(members) < tau):
        oracle.ledger.charge_point()  # the budget is spent: raises
    return len(rows), members


def execute_base_coverage(
    oracle: Oracle,
    predicate: GroupPredicate,
    tau: int,
    *,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    on_round: Callable[[], None] | None = None,
) -> GroupCoverageResult:
    """Execution backend of Algorithm 7 (see :func:`base_coverage`).

    Dispatched to by :meth:`repro.audit.AuditSession.run` for a
    :class:`~repro.audit.BaseAuditSpec`. The walk is one oracle
    :meth:`~repro.crowd.oracle.Oracle.scan_points` call, so ``on_round``
    (the session's progress hook) fires once, after the scan.
    """
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")
    view = resolve_view(view, dataset_size)

    window = LedgerWindow(oracle.ledger)
    members = np.empty(0, dtype=np.int64)
    if tau > 0:
        asked, members = scan_members(oracle, view, predicate, tau)
        if on_round is not None and asked:
            on_round()

    return GroupCoverageResult(
        predicate=predicate,
        covered=len(members) == tau,
        count=len(members),
        tau=tau,
        tasks=window.usage(),
        discovered_indices=tuple(members.tolist()),
    )


def base_coverage(
    oracle: Oracle,
    predicate: GroupPredicate,
    tau: int,
    *,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
) -> GroupCoverageResult:
    """Run Algorithm 7.

    Parameters mirror :func:`repro.core.group_coverage.group_coverage`
    minus the set-query bound (this baseline only issues point queries).
    Thin wrapper over :class:`~repro.audit.BaseAuditSpec` — the
    :class:`~repro.audit.AuditSession` API is the blessed entry point.

    >>> import numpy as np
    >>> from repro.crowd import GroundTruthOracle
    >>> from repro.data import binary_dataset, group
    >>> ds = binary_dataset(200, 120, rng=np.random.default_rng(0))
    >>> result = base_coverage(GroundTruthOracle(ds), group(gender="female"),
    ...                        tau=5, dataset_size=len(ds))
    >>> result.covered, result.tasks.n_point_queries <= 30
    (True, True)
    """
    from repro.audit.runners import run_spec
    from repro.audit.specs import BaseAuditSpec

    spec = BaseAuditSpec(predicate=predicate, tau=tau, view=view)
    return run_spec(oracle, spec, dataset_size=dataset_size)
