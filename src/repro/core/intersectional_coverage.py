"""Intersectional-Coverage (Algorithm 3): MUP discovery over crowd labels.

For multiple attributes the uncovered region is reported as *maximal
uncovered patterns* (MUPs). Algorithm 3 reduces the problem to the
fully-specified subgroups (the pattern-graph leaves — their count is what
every other pattern's count sums from), solves those with
Multiple-Coverage (sibling-constrained super-groups), and rolls verdicts
up the pattern graph with the Pattern-Combiner arithmetic — costing zero
additional crowd tasks beyond the leaf level.

Implementation note (our deviation from the paper): the paper's upward
propagation pseudo-code is replaced by the equivalent exact roll-up in
:func:`repro.patterns.combiner.combine_leaf_coverage`, which requires
exact counts for uncovered leaves; we obtain them by attributing the
members isolated inside uncovered super-groups with one point query each
(``attribute_supergroup_members=True``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.multiple_coverage import execute_multiple_coverage
from repro.core.results import IntersectionalCoverageReport, LedgerWindow
from repro.core.views import resolve_view
from repro.crowd.oracle import Oracle
from repro.data.schema import Schema
from repro.errors import InvalidParameterError
from repro.patterns.combiner import LeafCoverage, combine_leaf_coverage
from repro.patterns.graph import PatternGraph

if TYPE_CHECKING:
    from repro.engine.scheduler import QueryEngine

__all__ = ["intersectional_coverage", "execute_intersectional_coverage"]


def execute_intersectional_coverage(
    oracle: Oracle,
    schema: Schema,
    tau: int,
    *,
    n: int = 50,
    c: float = 2.0,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    engine: "QueryEngine | None" = None,
    on_round: Callable[[], None] | None = None,
) -> IntersectionalCoverageReport:
    """Execution backend of Algorithm 3 (see :func:`intersectional_coverage`).

    Dispatched to by :meth:`repro.audit.AuditSession.run` for an
    :class:`~repro.audit.IntersectionalAuditSpec`; ``on_round`` is
    forwarded to the leaf-level Multiple-Coverage solve.
    """
    if schema.n_attributes < 1:
        raise InvalidParameterError("schema must have at least one attribute")
    # Validate the search space up front: bad view indices fail here, not
    # deep inside the leaf solve after the sampling phase spent budget.
    view = resolve_view(view, dataset_size) if view is not None else None
    graph = PatternGraph(schema)
    leaves = graph.leaves()
    leaf_groups = [leaf.to_group() for leaf in leaves]

    window = LedgerWindow(oracle.ledger)
    leaf_report = execute_multiple_coverage(
        oracle,
        leaf_groups,
        tau,
        n=n,
        c=c,
        rng=rng,
        view=view,
        dataset_size=dataset_size,
        multi=True,
        attribute_supergroup_members=True,
        engine=engine,
        on_round=on_round,
    )

    leaf_results = {}
    for leaf, group in zip(leaves, leaf_groups):
        entry = leaf_report.entry_for(group)
        # Covered leaves carry the tau certificate; uncovered leaves carry
        # exact counts (guaranteed by attribute_supergroup_members=True).
        count = max(entry.count, tau) if entry.covered else entry.count
        leaf_results[leaf] = LeafCoverage(covered=entry.covered, count=count)

    pattern_report = combine_leaf_coverage(graph, leaf_results, tau)
    return IntersectionalCoverageReport(
        leaf_report=leaf_report,
        pattern_report=pattern_report,
        tasks=window.usage(),
        engine_stats=leaf_report.engine_stats,
    )


def intersectional_coverage(
    oracle: Oracle,
    schema: Schema,
    tau: int,
    *,
    n: int = 50,
    c: float = 2.0,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    engine: "QueryEngine | None" = None,
) -> IntersectionalCoverageReport:
    """Run Algorithm 3 over all attributes of ``schema``.

    Thin wrapper over :class:`~repro.audit.IntersectionalAuditSpec` — the
    :class:`~repro.audit.AuditSession` API is the blessed entry point.
    ``view`` entries are validated up front (negative indices raise
    :class:`InvalidParameterError`, as do indices ``>= dataset_size`` when
    both are supplied).

    Parameters mirror :func:`~repro.core.multiple_coverage.multiple_coverage`;
    the target groups are derived internally as the fully-specified
    subgroups (the Cartesian product of all attribute values). Passing an
    ``engine`` batches and deduplicates the leaf-level crowd work — the
    sibling-constrained super-groups then share cached answers — without
    changing verdicts under a deterministic oracle.

    Returns
    -------
    IntersectionalCoverageReport
        Leaf verdicts, the full pattern-graph report, and the MUPs.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crowd import GroundTruthOracle
    >>> from repro.data import Schema, intersectional_dataset
    >>> schema = Schema.from_dict(
    ...     {"gender": ["male", "female"], "race": ["white", "black"]})
    >>> ds = intersectional_dataset(
    ...     schema,
    ...     {("male", "white"): 500, ("female", "white"): 120,
    ...      ("male", "black"): 80, ("female", "black"): 4},
    ...     rng=np.random.default_rng(5))
    >>> report = intersectional_coverage(
    ...     GroundTruthOracle(ds), schema, tau=50,
    ...     rng=np.random.default_rng(6), dataset_size=len(ds))
    >>> [m.describe() for m in report.mups]
    ['female-black']
    """
    from repro.audit.runners import run_spec
    from repro.audit.session import warn_on_adhoc_engine
    from repro.audit.specs import IntersectionalAuditSpec

    warn_on_adhoc_engine("intersectional_coverage", oracle, engine)
    spec = IntersectionalAuditSpec(schema=schema, tau=tau, n=n, c=c, view=view)
    return run_spec(oracle, spec, engine=engine, rng=rng, dataset_size=dataset_size)
