"""Group-Coverage (Algorithm 1): divide-and-conquer coverage identification.

Given a view over the dataset, a target group ``g``, a threshold ``tau``,
and a set-query size bound ``n``, decide whether the view holds at least
``tau`` members of ``g`` while issuing as few crowd tasks as possible.

The algorithm is a group-testing style divide and conquer:

* Partition the view into ⌈N/n⌉ chunks; each chunk roots a binary tree.
* A set query with answer **no** prunes its whole subtree. A "no" on a
  *left* child additionally implies — for free — a "yes" on its queued
  right sibling (the parent contained a member; the left half does not).
* A set query with answer **yes** splits the range in half. Disjointness
  of sibling ranges turns "both children yes" into one extra *certain*
  member, tracked through each node's ``checked`` flag; the count lower
  bound ``cnt`` therefore never overstates ``|g|``.
* Stop as soon as ``cnt == tau`` (covered), or when the queue drains
  (uncovered — and then ``cnt`` is the exact member count, every member
  having been isolated in a size-1 "yes" node).

Cost: Θ(N/n + τ·log n) set queries in the worst case (Theorem 3.2 /
Lemma 3.3), against the Θ(N/n) lower bound any algorithm must pay when the
group is uncovered.

The algorithm lives in :class:`GroupCoverageStepper`, a *resumable*
formulation that emits pending set queries and consumes answers. The
:func:`group_coverage` entry point drives the same stepper in two modes:
legacy sequential (one oracle ask per query, the paper's execution
model), or through a :class:`repro.engine.QueryEngine`, which batches the
ready frontier of every tree into few oracle round-trips and shares
answers with concurrent runs. Under a deterministic oracle both modes
produce identical verdicts, counts, and discovered members; engine mode
may consume a slightly different number of tasks (cache hits save
queries, speculative final-round batches waste some around early stops).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Mapping

import numpy as np

from repro.core.results import GroupCoverageResult, LedgerWindow, TaskUsage
from repro.core.tree import PrunableQueue, TreeNode
from repro.core.views import resolve_view
from repro.crowd.oracle import Oracle
from repro.data.groups import GroupPredicate
from repro.data.sharded import as_run
from repro.engine.requests import IndexKey, QueryKey, SetRequest
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.engine.scheduler import QueryEngine
    from repro.engine.stats import EngineStats

__all__ = ["GroupCoverageStepper", "group_coverage", "execute_group_coverage"]


def _validate(n: int, tau: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"set-query size bound n must be >= 1, got {n}")
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")


class GroupCoverageStepper:
    """Algorithm 1 as a resumable state machine.

    The stepper owns the execution trees and the FIFO discipline of the
    sequential algorithm but externalises the oracle: callers pull ready
    queries from :meth:`pending` and push answers through :meth:`feed`
    until :attr:`done`.

    *Ready* means dispatchable now: every queued root and left child, plus
    each right child whose left sibling already answered "yes" (a left
    sibling's "no" implies the right child's "yes" for free, so asking it
    early would waste a task). That is exactly the per-tree frontier —
    trees never depend on each other — which is what lets an engine batch
    across trees and across concurrent runs.

    Answers are *applied* in the sequential algorithm's global FIFO order
    regardless of arrival order, so ``covered``/``count``/``discovered``
    match the sequential execution exactly under a deterministic oracle.
    """

    def __init__(
        self,
        predicate: GroupPredicate,
        tau: int,
        *,
        n: int = 50,
        view: np.ndarray,
        speculation: int = 0,
    ) -> None:
        _validate(n, tau)
        if speculation < 0:
            raise InvalidParameterError(
                f"speculation must be >= 0, got {speculation}"
            )
        self.predicate = predicate
        self.tau = tau
        self.n = n
        self.speculation = speculation
        # Bounds-checks negativity (the stepper has no dataset_size to
        # check the upper bound against; group_coverage does that).
        self._view = resolve_view(view, None)
        # When the view is one contiguous ascending run (the vanilla
        # arange case), every tree node's indices are the run
        # [view0+b, view0+e+1) — its IndexKey is then O(1) to build, and
        # vectorized oracles answer it O(1) from prefix counts.
        self._view_run = as_run(self._view)
        self._cnt = 0
        self._discovered: list[int] = []
        self._unapplied = 0  # answers fed but not yet consumed by _advance
        self._queue = PrunableQueue()
        # Keyed by node object (identity hash): keys keep their nodes
        # alive, so a recycled memory address can never alias a stale
        # answer onto a fresh node.
        self._answers: dict[TreeNode, bool] = {}
        self._requests: dict[QueryKey, TreeNode] = {}
        self._done = False
        self._covered = False
        if tau == 0:
            self._done = True
            self._covered = True
        elif len(self._view) == 0:
            self._done = True
        else:
            total = len(self._view)
            for begin in range(0, total, n):  # init roots of the subtrees
                self._queue.add(TreeNode(begin, min(begin + n, total) - 1))

    # -- stepper protocol ------------------------------------------------
    @property
    def done(self) -> bool:
        return self._done

    @property
    def covered(self) -> bool:
        return self._covered

    @property
    def count(self) -> int:
        return self._cnt

    @property
    def discovered_indices(self) -> tuple[int, ...]:
        return tuple(self._discovered)

    def pending(self, limit: int | None = None) -> list[SetRequest]:
        """Every queued query that is ready to dispatch, in FIFO order.

        ``limit`` caps the scan (``limit=1`` is the sequential driver's
        O(1) "next query" — the FIFO front is always ready).

        Emission is additionally capped so that total *outstanding* work
        (queries in flight plus answers not yet consumed) never exceeds
        the certification deficit ``tau - count`` plus the
        ``speculation`` budget. One consumed answer raises the count by
        at most one, so a stop at ``count == tau`` leaves at most
        ``speculation`` paid-but-unused queries behind — the waste a
        covered run can incur is bounded by the speculation budget.
        Engine-mode callers set ``speculation`` to the engine's batch
        size: one batch of speculative look-ahead, which keeps uncovered
        groups and small-deficit runs batching wide (every query there
        is needed regardless). The FIFO front is always allowed through
        so progress never stalls."""
        if self._done:
            return []
        outstanding = len(self._requests) + self._unapplied
        emission_cap = max(
            (self.tau - self._cnt) + self.speculation - outstanding, 1
        )
        if limit is None or limit > emission_cap:
            limit = emission_cap
        ready: list[SetRequest] = []
        # The sequential driver (limit=1, nothing in flight) is the hot
        # path: skip building the in-flight set when there is none.
        in_flight = set(self._requests.values()) if self._requests else ()
        for node in self._queue:
            if len(ready) >= limit:
                break
            if node in self._answers or node in in_flight:
                # Answered, or emitted earlier and still awaiting its
                # answer — re-emitting would double-charge the oracle.
                continue
            parent = node.parent
            if (
                parent is not None
                and parent.right is node
                and self._answers.get(parent.left) is not True
            ):
                # A right child is only ever *asked* after its left
                # sibling answered "yes"; on "no" its answer is implied.
                continue
            segment = self._view[node.b_index : node.e_index + 1]
            index_key = (
                IndexKey.of_run(
                    self._view_run[0] + node.b_index,
                    self._view_run[0] + node.e_index + 1,
                )
                if self._view_run is not None
                else None
            )
            request = SetRequest(segment, self.predicate, index_key=index_key)
            self._requests[request.key] = node
            ready.append(request)
        return ready

    def feed(self, answers: Mapping[QueryKey, bool]) -> None:
        """Record answers for previously pending queries and advance."""
        for key, answer in answers.items():
            node = self._requests.pop(key, None)
            if node is None:
                raise InvalidParameterError(
                    "answer fed for a query this stepper never requested"
                )
            self._answers[node] = bool(answer)
            self._unapplied += 1
        self._advance()

    # -- result ----------------------------------------------------------
    def result(
        self,
        tasks: TaskUsage = TaskUsage(),
        engine_stats: "EngineStats | None" = None,
    ) -> GroupCoverageResult:
        if not self._done:
            raise InvalidParameterError(
                "stepper has not finished; result() is only valid when done"
            )
        return GroupCoverageResult(
            predicate=self.predicate,
            covered=self._covered,
            count=self._cnt,
            tau=self.tau,
            tasks=tasks,
            discovered_indices=tuple(self._discovered),
            engine_stats=engine_stats,
        )

    # -- internals -------------------------------------------------------
    def _advance(self) -> None:
        """Process answered nodes in global FIFO order (the sequential
        algorithm's exact pop order) until blocked, covered, or drained."""
        while not self._done:
            front = self._queue.peek()
            if front is None:
                # Queue drained below the threshold: every "yes" range was
                # driven down to singletons, so cnt is the exact member
                # count (Lemma 3.1).
                self._done = True
                return
            if front not in self._answers:
                return  # blocked on an unanswered query
            node = self._queue.pop()
            answer = self._answers[node]
            self._unapplied -= 1
            if node.is_root:
                if not answer:
                    continue  # prune the whole chunk
                self._cnt += 1
            else:
                if not answer:
                    if node.is_left_child:
                        # The parent held a member and the left half does
                        # not: the right sibling's answer is "yes" for free.
                        assert node.parent is not None and node.parent.right is not None
                        node = self._queue.remove(node.parent.right)
                    else:
                        # Right child "no": the left sibling already
                        # certified the parent's member; nothing new.
                        continue
                # `node` now carries a (possibly implied) "yes" answer.
                assert node.parent is not None
                if node.parent.checked:
                    # Both children contain members; disjoint ranges make
                    # that one additional certain member.
                    self._cnt += 1
                else:
                    node.parent.checked = True
            if node.size == 1:
                self._discovered.append(int(self._view[node.b_index]))
            if self._cnt == self.tau:
                self._done = True
                self._covered = True
                return
            if node.size > 1:
                left, right = node.split()
                self._queue.add(left)
                self._queue.add(right)


def execute_group_coverage(
    oracle: Oracle,
    predicate: GroupPredicate,
    tau: int,
    *,
    n: int = 50,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    engine: "QueryEngine | None" = None,
    on_round: "Callable[[], None] | None" = None,
) -> GroupCoverageResult:
    """Execution backend of Algorithm 1 (see :func:`group_coverage`).

    This is what :meth:`repro.audit.AuditSession.run` dispatches a
    :class:`~repro.audit.GroupAuditSpec` to; the :func:`group_coverage`
    function form is a thin wrapper over the same code. ``on_round`` is
    invoked after every oracle round-trip (each sequential answer, each
    engine batch) — the session's progress-callback hook.
    """
    _validate(n, tau)
    view = resolve_view(view, dataset_size)
    if engine is not None:
        engine.ensure_executes_for(oracle)

    window = LedgerWindow(oracle.ledger)
    stepper = GroupCoverageStepper(
        predicate,
        tau,
        n=n,
        view=view,
        speculation=engine.speculation if engine is not None else 0,
    )
    engine_stats: "EngineStats | None" = None
    if engine is None:
        # Legacy sequential mode: ask the front of the FIFO, one query per
        # round-trip, exactly as the paper executes Algorithm 1.
        while not stepper.done:
            request = stepper.pending(limit=1)[0]
            answer = oracle.ask_set(request.indices, predicate, key=request.key)
            stepper.feed({request.key: answer})
            if on_round is not None:
                on_round()
    else:
        snapshot = engine.snapshot()
        engine.drive(stepper, on_round=on_round)
        engine_stats = engine.stats_since(snapshot)

    return stepper.result(tasks=window.usage(), engine_stats=engine_stats)


def group_coverage(
    oracle: Oracle,
    predicate: GroupPredicate,
    tau: int,
    *,
    n: int = 50,
    view: np.ndarray | None = None,
    dataset_size: int | None = None,
    engine: "QueryEngine | None" = None,
) -> GroupCoverageResult:
    """Run Algorithm 1.

    This function form is a thin wrapper over the
    :class:`~repro.audit.GroupAuditSpec` +
    :class:`~repro.audit.AuditSession` API — the blessed entry point,
    which additionally offers batched multi-spec dispatch, progress
    callbacks, serializable report envelopes, and checkpoint/resume.
    Behavior, verdicts, and task accounting are identical.

    Parameters
    ----------
    oracle:
        Answer source; every set query is charged to its ledger.
    predicate:
        The target group ``g`` (a :class:`~repro.data.groups.Group`, a
        :class:`~repro.data.groups.SuperGroup`, or any predicate).
    tau:
        Coverage threshold. ``tau <= 0`` returns covered immediately with
        zero tasks (callers that pre-credit labeled samples rely on this).
    n:
        Maximum number of objects in one set query.
    view:
        Dataset indices to search, in physical order. Defaults to
        ``arange(dataset_size)``; ``dataset_size`` is required only when
        ``view`` is omitted. Entries must be valid dataset indices:
        negative entries raise :class:`InvalidParameterError`, and when
        ``dataset_size`` is supplied alongside ``view``, entries
        ``>= dataset_size`` do too.
    engine:
        A :class:`repro.engine.QueryEngine` bound to ``oracle``. When
        given, the run's ready queries are batched into few oracle
        round-trips and answers are shared (via the engine's cache) with
        any other runs on the same engine. When omitted, queries are
        asked strictly sequentially — the paper's execution model.

    Returns
    -------
    GroupCoverageResult
        Verdict, count lower bound (exact when uncovered), tasks used, and
        the indices of individually isolated members. Engine runs attach
        :class:`~repro.engine.stats.EngineStats`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crowd import GroundTruthOracle
    >>> from repro.data import binary_dataset, group
    >>> ds = binary_dataset(1000, 8, rng=np.random.default_rng(3))
    >>> result = group_coverage(
    ...     GroundTruthOracle(ds), group(gender="female"), tau=50,
    ...     n=50, dataset_size=len(ds))
    >>> (result.covered, result.count)
    (False, 8)

    The same audit through the engine issues the same queries in far
    fewer oracle round-trips:

    >>> from repro.engine import QueryEngine
    >>> oracle = GroundTruthOracle(ds)
    >>> batched = group_coverage(
    ...     oracle, group(gender="female"), tau=50, n=50,
    ...     dataset_size=len(ds), engine=QueryEngine(oracle))
    >>> (batched.covered, batched.count) == (result.covered, result.count)
    True
    >>> batched.tasks.n_rounds < result.tasks.n_rounds
    True
    """
    from repro.audit.runners import run_spec
    from repro.audit.session import warn_on_adhoc_engine
    from repro.audit.specs import GroupAuditSpec

    warn_on_adhoc_engine("group_coverage", oracle, engine)
    spec = GroupAuditSpec(predicate=predicate, tau=tau, n=n, view=view)
    return run_spec(oracle, spec, engine=engine, dataset_size=dataset_size)
