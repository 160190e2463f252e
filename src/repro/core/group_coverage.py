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
formulation of the FIFO. Two drivers share one contract (steppers in, an
``on_complete`` hook that may spawn follow-up steppers, an ``on_round``
progress hook). :func:`run_sequential` is the paper's execution model:
it asks every query in the FIFO's order, one task and one round-trip
each, but hands the oracle a whole *generation* of the FIFO at a time
(:meth:`GroupCoverageStepper.scan`, one
:meth:`~repro.crowd.oracle.Oracle.scan_sets` call). The FIFO is
breadth-first, so generation ``g + 1`` is exactly the children of
generation ``g``'s "yes" nodes; inside a generation only a sibling
depends on its left half's answer, and the scan honours that. The
per-query control plane therefore runs once per generation, in NumPy,
and a ground-truth oracle answers the generation in one vectorized
pass. :meth:`repro.engine.QueryEngine.run` instead pulls the ready
frontier of every tree (:meth:`~GroupCoverageStepper.pending` /
:meth:`~GroupCoverageStepper.feed`), batches it into few round-trips and
shares answers with concurrent runs. Under a deterministic oracle both
produce identical verdicts, counts, and discovered members; engine mode
may consume a slightly different number of tasks (cache hits save
queries, speculative final-round batches waste some around early stops).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import TYPE_CHECKING, Callable, Iterable, Mapping

import numpy as np

from repro.core.results import GroupCoverageResult, LedgerWindow, TaskUsage
from repro.core.tree import TreeNode
from repro.core.views import resolve_view, resolve_view_order
from repro.crowd.oracle import Oracle
from repro.data.groups import GroupPredicate
from repro.engine.requests import IndexKey, QueryKey, SetRequest
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.engine.scheduler import CompletionHook, QueryEngine
    from repro.engine.stats import EngineStats

__all__ = ["GroupCoverageStepper", "group_coverage", "execute_group_coverage", "run_sequential"]


def _validate(n: int, tau: int) -> None:
    if n < 1:
        raise InvalidParameterError(f"set-query size bound n must be >= 1, got {n}")
    if tau < 0:
        raise InvalidParameterError(f"tau must be >= 0, got {tau}")


class GroupCoverageStepper:
    """Algorithm 1 as a resumable state machine.

    The stepper owns the execution trees and the FIFO discipline of the
    sequential algorithm but externalises the oracle. It is driven one
    of two ways, never both:

    * :meth:`scan` asks the next FIFO generation in one
      :meth:`~repro.crowd.oracle.Oracle.scan_sets` call (the sequential
      driver), keeping the generation as arrays of view ranges;
    * :meth:`pending` / :meth:`feed` hand out ready queries and take
      their answers until :attr:`done` (the engine).

    *Ready* means dispatchable now: every queued root and left child, plus
    each right child whose left sibling already answered "yes" (a left
    sibling's "no" implies the right child's "yes" for free, so asking it
    early would waste a task). That is exactly the per-tree frontier —
    trees never depend on each other — which is what lets an engine batch
    across trees and across concurrent runs. The stepper keeps that
    frontier incrementally, as a heap of ready nodes ordered by when they
    were enqueued, so each query costs O(log frontier) to emit however
    long the queue grows.

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
        # Bounds-checks negativity and repeats (the stepper has no
        # dataset_size to check the upper bound against; group_coverage
        # does that).
        self._view, self._ascending = resolve_view_order(view, None)
        self._cnt = 0
        self._discovered: list[int] = []
        self._unapplied = 0  # answers fed but not yet consumed by _advance
        total = len(self._view)
        # The roots of the subtrees, as view ranges [start, stop); tau == 0
        # is covered before any query.
        starts = np.arange(0, total if tau > 0 else 0, n, dtype=np.int64)
        #: the FIFO generation :meth:`scan` asks next: view ranges, and
        #: whether they come as (left, right) sibling pairs
        self._generation = (starts, np.minimum(starts + n, total), False)
        self._scanned = False
        # Algorithm 1's FIFO as tree nodes, built by the first pending().
        # Its one removal (``Q.del(T.parent.right)``) always takes the
        # node directly behind the left child just popped, because
        # siblings are enqueued back to back.
        self._queue: deque[TreeNode] | None = None
        # Keyed by node object (identity hash): keys keep their nodes
        # alive, so a recycled memory address can never alias a stale
        # answer onto a fresh node.
        self._answers: dict[TreeNode, bool] = {}
        # In-flight queries: key -> (sequence number, node).
        self._requests: dict[QueryKey, tuple[int, TreeNode]] = {}
        self._covered = tau == 0
        self._done = not len(starts)

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
        """The ready queries not yet emitted, in FIFO order, at most
        ``limit`` of them (``limit=1`` is the sequential driver's "next
        query": the FIFO front is always ready there).

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
        is needed regardless). The oldest ready query is always allowed
        through so progress never stalls.

        Each emitted query is popped off the ready frontier, so a call
        costs O(emitted · log frontier), not a scan of the queue."""
        if self._done:
            return []
        self._grow_tree()
        outstanding = len(self._requests) + self._unapplied
        emission_cap = max(
            (self.tau - self._cnt) + self.speculation - outstanding, 1
        )
        if limit is None or limit > emission_cap:
            limit = emission_cap
        ready: list[SetRequest] = []
        frontier = self._ready
        view = self._view
        while frontier and len(ready) < limit:
            entry = heappop(frontier)
            node = entry[1]
            begin, end = node.b_index, node.e_index
            segment = view[begin : end + 1]
            if not self._ascending:
                index_key = IndexKey.of(segment)
            else:
                low, high = view.item(begin), view.item(end)
                # Strictly ascending entries span exactly end - begin
                # steps only when every step is +1: the node is a run.
                index_key = (
                    IndexKey.of_run(low, high + 1)
                    if high - low == end - begin
                    else IndexKey.of_scattered(segment)
                )
            request = SetRequest(segment, self.predicate, index_key=index_key)
            self._requests[request.key] = entry
            ready.append(request)
        return ready

    def feed(self, answers: Mapping[QueryKey, bool]) -> None:
        """Record answers for previously pending queries and advance."""
        self._grow_tree()
        for key, answer in answers.items():
            entry = self._requests.pop(key, None)
            if entry is None:
                raise InvalidParameterError(
                    "answer fed for a query this stepper never requested"
                )
            sequence, node = entry
            answer = bool(answer)
            self._answers[node] = answer
            self._unapplied += 1
            parent = node.parent
            if answer and parent is not None and parent.left is node:
                # The right sibling, enqueued right behind this node,
                # may now be asked.
                heappush(self._ready, (sequence + 1, parent.right))
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

    # -- generation scans --------------------------------------------------
    def scan(self, oracle: Oracle) -> None:
        """Ask the next FIFO generation through one
        :meth:`~repro.crowd.oracle.Oracle.scan_sets` call and apply its
        answers in FIFO order: the sequential algorithm's queries, in its
        order, each charged one task and one round-trip.

        Roots are unpaired; every later generation is the (left, right)
        halves of the last one's "yes" ranges of two or more objects. A
        "yes" on a root, or on a right half after a "yes" on its left,
        certifies one more member, and each size-1 "yes" range is a
        discovered member. The scan stops at the member that makes the
        count reach ``tau``. A scan the task budget cut short raises the
        :class:`~repro.errors.BudgetExceededError` the next per-query ask
        would have raised, after the oracle recorded the paid prefix."""
        if self._done:
            return
        if self._queue is not None:
            raise InvalidParameterError(
                "this stepper is driven query by query through pending()/feed()"
            )
        self._scanned = True
        starts, stops, paired = self._generation
        answers = oracle.scan_sets(
            self._view,
            starts,
            stops,
            self.predicate,
            self.tau - self._cnt,
            paired=paired,
            ascending=self._ascending,
        )
        reached = len(answers)
        if paired:
            rights = answers[1::2]
            self._cnt += int(np.count_nonzero(answers[0::2][: len(rights)] & rights))
        else:
            self._cnt += int(np.count_nonzero(answers))
        starts, stops = starts[:reached], stops[:reached]
        singletons = answers & (stops - starts == 1)
        self._discovered += self._view[starts[singletons]].tolist()
        if self._cnt == self.tau:
            self._done = self._covered = True
            return
        if reached < len(self._generation[0]):
            oracle.ledger.charge_set()  # the budget is spent: raises
        split = answers & ~singletons
        begin, end = starts[split], stops[split]
        # TreeNode.split: the left half ends at the floor of the midpoint.
        middle = (begin + end + 1) // 2
        self._generation = (
            np.column_stack([begin, middle]).ravel(),
            np.column_stack([middle, end]).ravel(),
            True,
        )
        self._done = not len(begin)

    # -- internals -------------------------------------------------------
    def _grow_tree(self) -> None:
        """Build the root nodes of the query-by-query drive, once."""
        if self._queue is not None:
            return
        if self._scanned:
            raise InvalidParameterError("this stepper is driven by generation scans")
        starts, stops, _ = self._generation
        roots = [TreeNode(begin, stop - 1) for begin, stop in zip(starts.tolist(), stops.tolist())]
        self._queue = deque(roots)
        self._enqueued = len(roots)  # FIFO sequence number of the next node
        # The ready frontier, a heap of (sequence number, node) for every
        # queued node that may be asked now and has not been emitted yet.
        self._ready: list[tuple[int, TreeNode]] = list(enumerate(roots))  # sorted: a heap

    def _advance(self) -> None:
        """Process answered nodes in global FIFO order (the sequential
        algorithm's exact pop order) until blocked, covered, or drained."""
        queue = self._queue
        answers = self._answers
        while not self._done:
            if not queue:
                # Queue drained below the threshold: every "yes" range was
                # driven down to singletons, so cnt is the exact member
                # count (Lemma 3.1).
                self._done = True
                return
            node = queue[0]
            answer = answers.pop(node, None)
            if answer is None:
                return  # blocked on an unanswered query
            queue.popleft()
            self._unapplied -= 1
            parent = node.parent
            if parent is None:
                if not answer:
                    continue  # prune the whole chunk
                self._cnt += 1
            else:
                if not answer:
                    if parent.left is node:
                        # The parent held a member and the left half does
                        # not: the right sibling's answer is "yes" for free.
                        node = queue.popleft()
                        assert node is parent.right, "siblings are enqueued back to back"
                    else:
                        # Right child "no": the left sibling already
                        # certified the parent's member; nothing new.
                        continue
                # `node` now carries a (possibly implied) "yes" answer.
                if parent.checked:
                    # Both children contain members; disjoint ranges make
                    # that one additional certain member.
                    self._cnt += 1
                else:
                    parent.checked = True
            singleton = node.b_index == node.e_index
            if singleton:
                self._discovered.append(self._view.item(node.b_index))
            if self._cnt == self.tau:
                self._done = True
                self._covered = True
                return
            if not singleton:
                left, right = node.split()
                queue.append(left)
                queue.append(right)
                heappush(self._ready, (self._enqueued, left))
                self._enqueued += 2


def run_sequential(
    oracle: Oracle,
    steppers: Iterable[GroupCoverageStepper],
    *,
    on_complete: "CompletionHook | None" = None,
    on_round: Callable[[], None] | None = None,
) -> None:
    """Drive ``steppers`` to done in the paper's order, under
    :meth:`QueryEngine.run`'s hook contract.

    Each stepper asks its FIFO one generation at a time
    (:meth:`GroupCoverageStepper.scan`, one
    :meth:`~repro.crowd.oracle.Oracle.scan_sets` call): the queries and
    their order are the one-query-at-a-time algorithm's, each charged one
    task and one round-trip, and ``on_round`` fires after every scan. A
    finished stepper — one born done included — is handed to
    ``on_complete``, which may return follow-up steppers; those run to
    done, depth first, before the next of ``steppers`` starts.
    """
    # One iterator per level: the roots, then each completion's spawns.
    # A stepper is drawn when it is about to run and dropped once done,
    # so lazy iterables keep one run's trees in memory at a time.
    stack = [iter(steppers)]
    while stack:
        stepper = next(stack[-1], None)
        if stepper is None:
            stack.pop()
            continue
        while not stepper.done:
            stepper.scan(oracle)
            if on_round is not None:
                on_round()
        if on_complete is not None:
            stack.append(iter(on_complete(stepper) or ()))
        del stepper


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
    invoked after every sequential generation scan and every engine
    batch — the session's progress-callback hook.
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
    if engine is None:
        run_sequential(oracle, [stepper], on_round=on_round)
        return stepper.result(tasks=window.usage())
    snapshot = engine.snapshot()
    engine.run([stepper], on_round=on_round)
    return stepper.result(
        tasks=window.usage(), engine_stats=engine.stats_since(snapshot)
    )


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
        asked in the sequential FIFO order, one task and one round-trip
        each — the paper's execution model.

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
