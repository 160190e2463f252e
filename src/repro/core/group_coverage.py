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
  member, so the count lower bound ``cnt`` never overstates ``|g|``.
* Stop as soon as ``cnt == tau`` (covered), or when the queue drains
  (uncovered — and then ``cnt`` is the exact member count, every member
  having been isolated in a size-1 "yes" node).

Cost: Θ(N/n + τ·log n) set queries in the worst case (Theorem 3.2 /
Lemma 3.3), against the Θ(N/n) lower bound any algorithm must pay when the
group is uncovered.

The algorithm lives in :class:`GroupCoverageStepper`, a *resumable*
formulation of the FIFO, under two drivers with one contract (steppers
in, an ``on_complete`` hook that may spawn follow-up steppers, an
``on_round`` progress hook). :func:`run_sequential` is the paper's
execution model, one task and one round-trip per query in FIFO order,
handing the oracle one breadth-first *generation* at a time
(:meth:`GroupCoverageStepper.scan`). :meth:`repro.engine.QueryEngine.run`
pulls every tree's ready frontier (:meth:`~GroupCoverageStepper.pending`
/ :meth:`~GroupCoverageStepper.feed`) into few round-trips and shares
answers with concurrent runs. Under a deterministic oracle both produce
identical verdicts, counts, and discovered members; engine mode may
consume a slightly different number of tasks (cache hits save queries,
speculative final-round batches waste some around early stops).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from repro.core.results import GroupCoverageResult, LedgerWindow, TaskUsage
from repro.core.views import resolve_view, resolve_view_order
from repro.crowd.oracle import Oracle
from repro.data.groups import GroupPredicate
from repro.engine.requests import IndexKey, QueryBatch
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


#: A FIFO node's answer state: not asked yet, asked and awaited, "no", "yes".
_UNASKED, _ASKED, _NO, _YES = 0, 1, 2, 3


class GroupCoverageStepper:
    """Algorithm 1 as a resumable state machine.

    The stepper owns Algorithm 1's FIFO as arrays, one row per node in
    enqueue order (view range ``[start, stop)``, answer state), and
    externalises the oracle. Roots come first and every later node is
    half of a sibling pair enqueued back to back, so a node's FIFO
    position says what it is. :meth:`scan` asks the rest of the head
    generation in NumPy (the sequential driver); :meth:`pending` /
    :meth:`feed` hand out the *ready* queries — every root and left
    half, and each right half whose left sibling answered "yes" — and
    take their answers back by FIFO position (the engine), reading a
    batch's few rows through memoryviews. Answers are *applied* in the
    global FIFO order whatever their arrival order, so results match the
    sequential execution exactly under a deterministic oracle.
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
        # does that). Contiguous, so a range's slice is a request payload,
        # and immutable, so an oracle may keep what it derives from it.
        self._view, self._ascending = resolve_view_order(view, None)
        self._cnt = 0
        self._discovered: list[int] = []
        total = len(self._view)
        # The roots' view ranges [start, stop) (none when tau == 0). Node p
        # is row p + 1 behind a sentinel row; rows past the tail are unasked.
        self._roots = roots = -(-total // n) if tau > 0 else 0
        self._start = np.empty(1 + 3 * roots, dtype=np.int64)
        self._stop = np.empty_like(self._start)
        self._state = np.zeros(len(self._start), dtype=np.int8)
        self._start[1 : roots + 1] = np.arange(0, n * roots, n)
        self._stop[1:roots] = self._start[2 : roots + 1]
        self._stop[roots : roots + 1] = total
        self._bind_rows()
        self._head = 0  # the first node not applied yet
        self._tail = self._gen_end = roots  # the next node; the next generation
        # The emission cursor: behind it every node was emitted, implied,
        # or is a right half waiting for its left sibling; those a late
        # "yes" frees wait in _late.
        self._next = 0
        self._late: list[int] = []
        self._in_flight = 0  # emitted, not answered
        self._unapplied = 0  # answered, not consumed by _advance
        self._covered = tau == 0
        self._done = not roots

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

    def pending(self, limit: int | None = None) -> QueryBatch:
        """The ready queries not yet emitted, in FIFO order, at most
        ``limit`` of them and, so that a stop at ``count == tau`` strands
        at most ``speculation`` paid queries, at most the deficit
        ``tau - count`` plus ``speculation`` minus the queries in flight
        or answered but not applied — but always the oldest one. The
        freed right halves come first, then the ready nodes from the
        cursor on (every root and every other node of the pairs, a
        ``range``): a call costs O(emitted), not a scan of the queue."""
        emitted: list[int] = []
        if not self._done:
            cap = self.tau - self._cnt + self.speculation - self._in_flight - self._unapplied
            limit = max(cap, 1) if limit is None else min(limit, max(cap, 1))
            if self._late:
                self._late.sort()
                emitted, self._late = self._late[:limit], self._late[limit:]
            roots, position, tail = self._roots, self._next, self._tail
            if position < tail and position >= roots and (position - roots) & 1:
                if self._state_at[position] == _YES:  # its left sibling's row
                    emitted.append(position)
                position += 1
            if position < roots:
                last = min(roots, position + limit - len(emitted))
                emitted += range(position, last)
                position = last
            if position >= roots and len(emitted) < limit:
                last = min(tail, position + 2 * (limit - len(emitted)))
                emitted += range(position, last, 2)
                position = last
            self._next = position
        start, stop, state = self._start_at, self._stop_at, self._state_at
        starts = [start[position + 1] for position in emitted]
        stops = [stop[position + 1] for position in emitted]
        for position in emitted:
            state[position + 1] = _ASKED
        self._in_flight += len(emitted)
        # Strictly ascending entries span exactly end - begin - 1 steps
        # only when every step is +1: the range is a run. A scattered
        # range's key is its slice of the view's bytes. The interned key
        # is looked up here, and built only when new.
        view, entry, data = self._view, self._view_at, self._view_bytes
        interned = IndexKey._interned
        keys = []
        for begin, end in zip(starts, stops):
            low, high = entry[begin], entry[end - 1]
            if not self._ascending:
                keys.append(IndexKey.of(view[begin:end]))
            elif high - low == end - begin - 1:
                keys.append(interned.get((low, high + 1)) or IndexKey.of_run(low, high + 1))
            else:
                payload = data[8 * begin : 8 * end].tobytes()
                keys.append(interned.get(payload) or IndexKey.of_scattered(view[begin:end]))
        return QueryBatch(self.predicate, emitted, keys)

    def feed(self, positions: Sequence[int], answers: Sequence[bool]) -> None:
        """Record the answers of previously emitted queries, each named
        once by its FIFO position from the batch, and advance."""
        if len(positions) != len(answers):
            raise InvalidParameterError(
                f"fed {len(answers)} answers for {len(positions)} positions"
            )
        roots, cursor, tail, state = self._roots, self._next, self._tail, self._state_at
        for position, answer in zip(positions, answers):
            if not 0 <= position < tail or state[position + 1] != _ASKED:
                raise InvalidParameterError(
                    "answer fed for a query this stepper never requested"
                )
            state[position + 1] = _YES if answer else _NO
            # A left half's "yes" frees its right sibling, enqueued right
            # behind it; the cursor finds it unless it has passed it.
            if answer and position >= roots and not (position - roots) & 1:
                if position + 1 < cursor:
                    self._late.append(position + 1)
        self._in_flight -= len(positions)
        self._unapplied += len(positions)
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
        """Ask the rest of the head generation through one
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
        would have raised, after the oracle recorded the paid prefix. A
        scan may follow :meth:`pending` / :meth:`feed` once nothing they
        emitted is outstanding and the head is not a lone right half."""
        if self._done:
            return
        head, roots = self._head, self._roots
        if self._in_flight or self._unapplied or (head >= roots and (head - roots) & 1):
            raise InvalidParameterError(
                "a generation scan cannot resume while queries emitted by "
                "pending() are outstanding or half a sibling pair is applied"
            )
        starts = self._start[head + 1 : self._gen_end + 1]
        stops = self._stop[head + 1 : self._gen_end + 1]
        paired = head >= roots
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
        asked = len(starts)
        starts, stops = starts[:reached], stops[:reached]
        singletons = answers & (stops - starts == 1)
        self._discovered += self._view[starts[singletons]].tolist()
        if self._cnt == self.tau:
            self._done = self._covered = True
            return
        if reached < asked:
            oracle.ledger.charge_set()  # the budget is spent: raises
        split = answers & ~singletons
        begin, end = starts[split], stops[split]
        row, count = self._room(2 * len(begin)), 2 * len(begin)
        # The left half ends at the floor of the midpoint.
        middle = (begin + end + 1) // 2
        self._start[row : row + count : 2], self._start[row + 1 : row + count : 2] = begin, middle
        self._stop[row : row + count : 2], self._stop[row + 1 : row + count : 2] = middle, end
        self._head = self._next = self._gen_end
        self._tail = self._gen_end = self._tail + count
        self._done = self._head == self._tail

    # -- internals -------------------------------------------------------
    def _advance(self) -> None:
        """Apply answered nodes in global FIFO order until blocked,
        covered, or drained. A right half whose left sibling said "no"
        applies with an implied "yes" (``Q.del(T.parent.right)``); a
        root's "yes", and a right half's asked "yes", certify a member."""
        if self._done:
            return
        roots, tau, cnt = self._roots, self.tau, self._cnt
        start, stop, state, entry = self._start_at, self._stop_at, self._state_at, self._view_at
        position, tail, gen_end = self._head, self._tail, self._gen_end
        consumed = 0
        halves: list[int] = []  # begin, end of each range to split
        before_gen_end = 0  # len(halves) when the head reached gen_end
        while position < tail:
            if position == gen_end:
                before_gen_end = len(halves)
            answer = state[position + 1]
            right = position >= roots and (position - roots) & 1
            if answer >= _NO:
                consumed += 1
                if answer == _NO:
                    position += 1
                    continue
                if position < roots or right:
                    cnt += 1
            elif not (right and state[position] == _NO):
                break  # blocked on an unanswered query
            begin, end = start[position + 1], stop[position + 1]
            position += 1
            if end - begin == 1:
                self._discovered.append(entry[begin])
            if cnt == tau:
                self._cnt = tau
                self._done = self._covered = True
                return
            if end - begin > 1:
                halves += (begin, end)
        self._cnt = cnt
        self._unapplied -= consumed
        if position >= gen_end:  # the head reached the next generation
            self._gen_end = tail + (len(halves) if position == gen_end else before_gen_end)
            if position == self._gen_end:
                self._gen_end = tail + len(halves)
        self._head = position
        self._next = max(self._next, position)
        row = self._room(len(halves))
        start, stop = self._start_at, self._stop_at
        for k in range(0, len(halves), 2):
            begin, end = halves[k], halves[k + 1]
            middle = (begin + end + 1) // 2  # the floor of the midpoint
            start[row + k], stop[row + k + 1] = begin, end
            stop[row + k] = start[row + k + 1] = middle
        self._tail += len(halves)
        # Queue drained below the threshold: every "yes" range was driven
        # down to singletons, so cnt is the exact member count (Lemma 3.1).
        self._done = position == self._tail

    def _room(self, count: int) -> int:
        """The tail's row, with room for ``count`` more (unasked) rows."""
        row = self._tail + 1
        if row + count > len(self._start):
            for name in ("_start", "_stop", "_state"):
                old = getattr(self, name)
                setattr(self, name, np.zeros(2 * (row + count), dtype=old.dtype))
                getattr(self, name)[:row] = old[:row]
            self._bind_rows()
        return row

    def _bind_rows(self) -> None:
        """Scalar accessors of the rows, the view and its bytes."""
        self._start_at = memoryview(self._start)
        self._stop_at = memoryview(self._stop)
        self._state_at = memoryview(self._state)
        self._view_at = memoryview(self._view)
        self._view_bytes = self._view_at.cast("B")


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
