"""Multiple-Coverage (Algorithm 2): many non-intersectional groups at once.

For an attribute with cardinality ``c`` the naive plan runs Group-Coverage
``c`` times. Algorithm 2 spends ``c·tau`` point queries on a sampling
phase first and uses the estimates to (a) pre-credit every group's
threshold with its already-labeled members and (b) merge expected-minority
groups into super-groups (Algorithm 6), so that a *single* Group-Coverage
run can certify several groups uncovered together.

The known failure mode (§6.5.2, the "adversarial" setting) is faithfully
reproduced: when a super-group turns out to be *covered*, nothing is
learned about its individual members and the algorithm must re-run
Group-Coverage for each of them — the aggregation penalty.

Execution modes
---------------
Phase 3 is one driver: each super-group is a Group-Coverage stepper,
and a covered merged super-group's completion hook spawns its members'
penalty re-runs. Without an ``engine`` the steppers go through
:func:`~repro.core.group_coverage.run_sequential`, one FIFO generation
scan at a time, every query in the paper's order; the sampling phase
and each member attribution are one point scan
(:func:`~repro.core.sampling.label_points`). Passing an ``engine``
(:class:`repro.engine.QueryEngine`) hands the same steppers and hook to
:meth:`~repro.engine.QueryEngine.run` instead, and additionally:

* batches the sampling phase into one point-query round-trip,
* runs every super-group's Group-Coverage tree concurrently, batching the
  ready frontiers across runs,
* registers the super-group -> member implication with the engine's
  answer cache, so the covered-super-group penalty re-runs get every
  chunk the super-group run pruned answered for free, and
* batches the member-attribution point queries of uncovered super-groups.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.aggregate import aggregate_groups
from repro.core.group_coverage import GroupCoverageStepper, run_sequential
from repro.core.results import (
    GroupCoverageResult,
    GroupEntry,
    LedgerWindow,
    MultipleCoverageReport,
)
from repro.core.sampling import LabeledPool, label_points, label_samples
from repro.core.views import resolve_view
from repro.crowd.oracle import Oracle
from repro.data.groups import Group, SuperGroup
from repro.data.kernels import predicate_mask
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.engine.scheduler import QueryEngine

__all__ = ["multiple_coverage", "execute_multiple_coverage"]


def _run_supergroups(
    oracle: Oracle,
    engine: "QueryEngine | None",
    super_groups: Sequence[SuperGroup],
    pool: LabeledPool,
    tau: int,
    n: int,
    remaining_view: np.ndarray,
    attribute_supergroup_members: bool,
    on_round: Callable[[], None] | None = None,
) -> dict[Group, GroupEntry]:
    """Phase 3: one Group-Coverage run per super-group, plus per-member
    re-runs when a merged super-group comes back covered (the
    aggregation penalty).

    Sequential mode builds a super-group's entries — attribution point
    queries included — as soon as its last run finishes, before the next
    super-group starts, as the paper's loop does. Engine mode runs every
    tree concurrently and attributes afterwards, in super-group order."""
    speculation = engine.speculation if engine is not None else 0
    # A run is for one member (a singleton super-group's only run, or a
    # penalty re-run) or, with member None, for a merged super-group.
    roles: dict[GroupCoverageStepper, tuple[SuperGroup, Group | None]] = {}
    runs: dict[SuperGroup, GroupCoverageResult] = {}
    member_runs: dict[SuperGroup, dict[Group, GroupCoverageResult]] = {}
    entries: dict[Group, GroupEntry] = {}
    # Attribution code rows, so an object a noisy oracle let two
    # super-groups discover is paid for once.
    labeled: dict[int, np.ndarray] = {}

    def make_stepper(
        super_group: SuperGroup, member: Group | None, tau_prime: int
    ) -> GroupCoverageStepper:
        if member is None and engine is not None:
            # A "no" for the super-group over a range rules out every
            # member on that range — the penalty re-runs cash this in.
            engine.cache.register_implication(super_group, super_group.members)
        stepper = GroupCoverageStepper(
            super_group if member is None else member,
            max(tau_prime, 0),
            n=n,
            view=remaining_view,
            speculation=speculation,
        )
        roles[stepper] = (super_group, member)
        return stepper

    def add_entries(super_group: SuperGroup) -> None:
        own_runs = member_runs.get(super_group)
        counts = {member: pool.count(member) for member in super_group}
        if own_runs is None and attribute_supergroup_members:
            # Uncovered together: attribute every isolated member to the
            # first group it matches, one point query each; counts
            # become exact.
            indices = runs[super_group].discovered_indices
            fresh = [index for index in indices if index not in labeled]
            labeled.update(zip(fresh, label_points(oracle, fresh, batched=engine is not None)))
            codes = np.array(
                [labeled[index] for index in indices], dtype=np.int16
            ).reshape(len(indices), oracle.schema.n_attributes)
            matches = np.array(
                [predicate_mask(oracle.schema, codes, member) for member in super_group]
            )
            first = matches.argmax(axis=0)[matches.any(axis=0)]
            found = np.bincount(first, minlength=len(super_group))
            for member, extra in zip(super_group, found.tolist()):
                counts[member] += extra
        for member in super_group:
            if own_runs is None:
                covered, exact = False, attribute_supergroup_members
            else:
                member_run = own_runs[member]
                covered, exact = member_run.covered, not member_run.covered
                counts[member] += member_run.count
            entries[member] = GroupEntry(
                group=member,
                covered=covered,
                count=counts[member],
                count_is_exact=exact,
                via_supergroup=super_group,
            )

    def on_complete(stepper: GroupCoverageStepper) -> Iterable[GroupCoverageStepper]:
        super_group, member = roles.pop(stepper)
        run = stepper.result()
        if member is None:
            runs[super_group] = run
            if run.covered:
                # Penalty path: the merged minorities are jointly covered,
                # so each member must be examined individually (sample
                # credits still apply).
                member_runs[super_group] = {}
                return (
                    make_stepper(super_group, sibling, tau - pool.count(sibling))
                    for sibling in super_group
                )
        else:
            member_runs.setdefault(super_group, {})[member] = run
            if len(member_runs[super_group]) < len(super_group):
                return []
        if engine is None:
            add_entries(super_group)
        return []

    roots = (
        make_stepper(
            super_group,
            super_group.members[0] if len(super_group) == 1 else None,
            tau - sum(pool.count(member) for member in super_group),
        )
        for super_group in super_groups
    )

    if engine is None:
        run_sequential(oracle, roots, on_complete=on_complete, on_round=on_round)
    else:
        engine.run(roots, on_complete=on_complete, on_round=on_round)
        for super_group in super_groups:
            add_entries(super_group)
    return entries


def execute_multiple_coverage(
    oracle: Oracle,
    groups: Sequence[Group],
    tau: int,
    *,
    n: int = 50,
    c: float = 2.0,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    multi: bool = False,
    attribute_supergroup_members: bool = False,
    engine: "QueryEngine | None" = None,
    on_round: Callable[[], None] | None = None,
) -> MultipleCoverageReport:
    """Execution backend of Algorithm 2 (see :func:`multiple_coverage`).

    Dispatched to by :meth:`repro.audit.AuditSession.run` for a
    :class:`~repro.audit.MultipleAuditSpec`; ``on_round`` fires after
    each Group-Coverage answer/engine batch in phase 3.
    """
    if tau <= 0:
        raise InvalidParameterError(f"tau must be positive, got {tau}")
    if not groups:
        raise InvalidParameterError("multiple_coverage needs at least one group")
    view = resolve_view(view, dataset_size)
    if engine is not None:
        engine.ensure_executes_for(oracle)

    window = LedgerWindow(oracle.ledger)
    engine_snapshot = engine.snapshot() if engine is not None else None

    # Phase 1: sampling. Labeled objects leave the unlabeled pool for good.
    remaining_view, pool = label_samples(
        oracle, view, tau, c=c, rng=rng, batched=engine is not None
    )

    # Phase 2: super-group formation from the sampled estimates. N in the
    # expectation formula is the full (pre-sampling) search-space size, as
    # in the pseudo-code.
    super_groups = aggregate_groups(
        pool, len(view), tau, list(groups), multi=multi
    )

    # Phase 3: the Group-Coverage runs.
    entries = _run_supergroups(
        oracle, engine, super_groups, pool, tau, n,
        remaining_view, attribute_supergroup_members, on_round,
    )

    return MultipleCoverageReport(
        entries=tuple(entries[g] for g in groups),
        super_groups=super_groups,
        sampled_counts={g: pool.count(g) for g in groups},
        tasks=window.usage(),
        engine_stats=(
            engine.stats_since(engine_snapshot) if engine is not None else None
        ),
    )


def multiple_coverage(
    oracle: Oracle,
    groups: Sequence[Group],
    tau: int,
    *,
    n: int = 50,
    c: float = 2.0,
    rng: np.random.Generator,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    multi: bool = False,
    attribute_supergroup_members: bool = False,
    engine: "QueryEngine | None" = None,
) -> MultipleCoverageReport:
    """Run Algorithm 2.

    Thin wrapper over :class:`~repro.audit.MultipleAuditSpec` — the
    :class:`~repro.audit.AuditSession` API is the blessed entry point.

    Parameters
    ----------
    oracle:
        Answer source (ledger-charged).
    groups:
        The target groups (an attribute's values, or fully-specified
        subgroups when called from Intersectional-Coverage).
    tau:
        Coverage threshold.
    n:
        Set-query size bound for the inner Group-Coverage runs.
    c:
        Sampling budget multiplier; the sampling phase labels ``c·tau``
        random objects (``c=2`` is the paper's default; ``c=0`` disables
        sampling and aggregation degrades to singletons).
    view / dataset_size:
        The search space, as in :func:`~repro.core.group_coverage.group_coverage`.
    multi:
        Enforce the sibling constraint during aggregation (set by
        Intersectional-Coverage).
    attribute_supergroup_members:
        When a super-group is certified *uncovered*, spend one point query
        per isolated member to attribute it to its individual group, making
        every per-group count exact. Our extension, not in the paper:
        Intersectional-Coverage sets it because its pattern roll-up needs
        exact leaf counts (see :mod:`repro.core.intersectional_coverage`);
        costs at most ``tau - 1`` extra point queries per uncovered
        super-group.
    engine:
        A :class:`repro.engine.QueryEngine` bound to ``oracle``. When
        given, all phases batch their queries and the super-group runs
        execute concurrently with shared cached answers; verdicts and
        counts match the sequential mode under a deterministic oracle.

    Returns
    -------
    MultipleCoverageReport
    """
    from repro.audit.runners import run_spec
    from repro.audit.session import warn_on_adhoc_engine
    from repro.audit.specs import MultipleAuditSpec

    warn_on_adhoc_engine("multiple_coverage", oracle, engine)
    spec = MultipleAuditSpec(
        groups=tuple(groups),
        tau=tau,
        n=n,
        c=c,
        multi=multi,
        attribute_supergroup_members=attribute_supergroup_members,
        view=view,
    )
    return run_spec(oracle, spec, engine=engine, rng=rng, dataset_size=dataset_size)
