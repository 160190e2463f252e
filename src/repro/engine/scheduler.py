"""The query-execution engine: batched, deduplicated, *asynchronous* dispatch.

Sits between the coverage algorithms (:mod:`repro.core`) and the crowd.
Algorithms are written as *steppers* — resumable state machines that
emit the set queries they are ready for and consume answers — and the
engine drives any number of them concurrently against one
:class:`~repro.crowd.backends.CrowdBackend`:

1. **collect** each admitted stepper's ready queries as one batch,
2. **dedup** them through the shared :class:`~repro.engine.cache.AnswerCache`,
   whose entries also hold the queries in flight (two runs asking the
   same question pay once),
3. **submit** the remainder to the backend in batches — each batch is a
   :class:`~repro.crowd.backends.Ticket` whose answers arrive later,
4. **absorb** completed tickets, feeding each stepper as far as its
   dependencies allow.

The core is non-blocking: :meth:`QueryEngine.pump` performs steps 1–3
and returns immediately with the submitted tickets;
:meth:`QueryEngine.absorb` performs step 4 for one completed ticket.
A long-lived driver (the multi-tenant
:class:`~repro.service.AuditService`) interleaves pumps and absorbs
across many concurrent audits, overlapping their crowd latency.
:meth:`QueryEngine.run` remains as a thin drain loop — pump, wait,
absorb, repeat — and over the default
:class:`~repro.crowd.backends.InlineBackend` it performs exactly the
blocking call sequence of the pre-backend engine, so verdicts, task
counts, and statistics are bit-identical for every existing caller.

The per-query task cost is unchanged (the paper's dollar cost model);
what the engine minimises is *round-trips* — the latency bottleneck of
real crowd platforms, which publish HITs in batches.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Protocol, Sequence

from repro.crowd.backends.base import CrowdBackend, Ticket
from repro.crowd.backends.inline import InlineBackend
from repro.engine.cache import ABSORBED, LOGGED, STAMP, YES, AnswerCache
from repro.engine.requests import IndexKey, QueryBatch, QueryKey
from repro.engine.stats import EngineStats
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.crowd.oracle import Oracle
    from repro.data.groups import GroupPredicate

__all__ = ["CoverageStepper", "Flow", "QueryEngine"]


#: ``on_complete`` callback: receives a finished stepper, may return new
#: steppers to schedule (e.g. Multiple-Coverage's per-member re-runs when
#: a super-group comes back covered).
CompletionHook = Callable[["CoverageStepper"], "Iterable[CoverageStepper] | None"]


class CoverageStepper(Protocol):
    """A resumable coverage run the engine can drive.

    The contract a stepper must honour:

    * ``pending()`` returns, as one :class:`~repro.engine.requests.QueryBatch`,
      every query whose dispatch does **not** depend on an unanswered
      query, excluding queries already emitted. It must be non-empty
      while ``done`` is false and no emitted query is outstanding — the
      engine treats an undone stepper with no pending work and nothing
      in flight as stalled.
    * ``feed(positions, answers)`` accepts answers for any subset of
      emitted queries, each named once by its batch position, and
      advances the run as far as the new answers allow.
    """

    @property
    def done(self) -> bool: ...

    def pending(self) -> QueryBatch: ...

    def feed(self, positions: Sequence[int], answers: Sequence[bool]) -> None: ...


class Flow:
    """One admitted stepper's execution state inside the engine.

    :meth:`QueryEngine.admit` returns the flow as a handle: drivers use
    it to read progress (:attr:`dispatched` set queries billed to this
    run, the :attr:`rounds` that carried them, :attr:`finished`), and to
    :meth:`~QueryEngine.retire` the run.
    ``spawned`` holds the flows the completion hook chained off this one
    (Multiple-Coverage's penalty re-runs), so a driver can account a
    whole completion tree to the audit that rooted it.
    """

    __slots__ = (
        "stepper", "on_complete", "outstanding", "dispatched", "rounds",
        "spawned", "finished", "retired", "fed",
    )

    def __init__(self, stepper: CoverageStepper, on_complete: CompletionHook | None):
        self.stepper = stepper
        self.on_complete = on_complete
        #: answers this flow is waiting on (in flight or queued on a ticket)
        self.outstanding = 0
        #: set queries dispatched to the crowd on this flow's behalf
        self.dispatched = 0
        #: pump rounds that dispatched at least one of those queries
        self.rounds = 0
        #: flows chained off this one's completion hook
        self.spawned: list[Flow] = []
        self.finished = False
        self.retired = False
        #: (positions, answers) a ticket being absorbed feeds this flow
        self.fed: tuple[list[int], list[bool]] | None = None


class QueryEngine:
    """Schedules set queries from concurrent coverage runs onto one crowd
    backend.

    Parameters
    ----------
    oracle:
        The answer source; every dispatched query is charged to its
        ledger exactly as in sequential mode. May be omitted when
        ``backend`` is given.
    backend:
        A :class:`~repro.crowd.backends.CrowdBackend` to dispatch
        through. Defaults to an
        :class:`~repro.crowd.backends.InlineBackend` over ``oracle`` —
        the zero-latency compatibility path. A backend must belong to
        exactly one engine (the engine's ticket table is the single
        source of truth for what is in flight).
    batch_size:
        Maximum queries per backend submission (HITs per published batch).
    speculation:
        Per-run look-ahead budget: how many queries beyond its
        certification deficit each coverage run may keep in flight.
        Defaults to ``batch_size``. Higher values buy fewer round-trips
        on sparse groups at the price of up to ``speculation`` wasted
        tasks per run that stops early (covered); ``0`` never wastes a
        task but serializes small-deficit runs.

    Notes
    -----
    The engine caches in the :class:`AnswerCache` of a
    :class:`~repro.audit.proxy.RecordingOracleProxy` oracle (its
    ``answer_cache``), so every engine over one proxy shares its answers;
    over any other oracle it keeps its own. Only answers an engine
    gathered are cache hits: one the proxy holds from a checkpoint or a
    sequential run is still dispatched and billed to its run, and the
    proxy answers it free.

    Batching is *speculative* around early stops: when a run reaches its
    threshold mid-round, in-flight queries past the stopping point are
    wasted (bounded by ``speculation`` per run). Verdicts and counts are
    unaffected — answers are applied in the exact order the sequential
    algorithm would have asked them.
    """

    def __init__(
        self,
        oracle: "Oracle | None" = None,
        *,
        backend: CrowdBackend | None = None,
        batch_size: int = 32,
        speculation: int | None = None,
    ) -> None:
        if batch_size < 1:
            raise InvalidParameterError(
                f"batch_size must be >= 1, got {batch_size}"
            )
        if speculation is not None and speculation < 0:
            raise InvalidParameterError(
                f"speculation must be >= 0, got {speculation}"
            )
        if oracle is None and backend is None:
            raise InvalidParameterError(
                "QueryEngine needs an oracle or a backend"
            )
        if backend is not None and oracle is not None and backend.oracle is not oracle:
            raise InvalidParameterError(
                "backend was constructed over a different oracle"
            )
        self.backend = backend if backend is not None else InlineBackend(oracle)
        self.oracle = self.backend.oracle
        self.batch_size = batch_size
        self.speculation = batch_size if speculation is None else speculation
        cache = getattr(self.oracle, "answer_cache", None)
        self.cache = cache if isinstance(cache, AnswerCache) else AnswerCache()
        self.scheduler_rounds = 0
        self.oracle_round_trips = 0
        self.dispatched_queries = 0
        self.deduped_queries = 0
        #: admitted, unfinished flows in admission order
        self._flows: list[Flow] = []
        #: ticket id -> the keys it carries, in submission order, and
        #: their in-flight cache entries (which hold the waiters)
        self._tickets: dict[int, tuple[list[QueryKey], list[list]]] = {}

    def ensure_executes_for(self, oracle: "Oracle") -> None:
        """Raise unless this engine dispatches to ``oracle`` — algorithms
        call this so a mismatched engine cannot silently charge one
        ledger while the algorithm snapshots another.

        An :class:`~repro.audit.AuditSession` hands algorithms a
        recording proxy around the oracle it was bound to; the proxy
        shares the raw oracle's ledger, so either side of the pair is
        accepted.
        """
        if self.oracle is oracle:
            return
        if getattr(oracle, "_session_inner", None) is self.oracle:
            return
        if getattr(self.oracle, "_session_inner", None) is oracle:
            return
        raise InvalidParameterError(
            "engine must be constructed over the same oracle it executes for"
        )

    # -- statistics ------------------------------------------------------
    def snapshot(self) -> EngineStats:
        """Counters now; pair with :meth:`stats_since` to attribute engine
        work to one algorithm run. All counters are the engine's own —
        round-trips other users of the same oracle pay (including an
        algorithm's direct point-query batches) are *not* included."""
        return EngineStats(
            scheduler_rounds=self.scheduler_rounds,
            oracle_round_trips=self.oracle_round_trips,
            dispatched_queries=self.dispatched_queries,
            deduped_queries=self.deduped_queries,
            cache_hits=self.cache.hits,
            cache_misses=self.cache.misses,
        )

    def stats_since(self, snapshot: EngineStats) -> EngineStats:
        return self.snapshot() - snapshot

    @property
    def stats(self) -> EngineStats:
        """Lifetime statistics of this engine."""
        return self.snapshot()

    # -- the non-blocking core -------------------------------------------
    def admit(
        self,
        stepper: CoverageStepper,
        *,
        on_complete: CompletionHook | None = None,
    ) -> Flow:
        """Register a stepper for scheduling; returns its :class:`Flow`.

        A stepper that is already done (tau=0, empty view) completes
        immediately — its ``on_complete`` fires before ``admit`` returns
        and any steppers it spawns are admitted in turn.
        """
        flow = Flow(stepper, on_complete)
        if stepper.done:
            self._finish(flow)
        else:
            self._flows.append(flow)
        return flow

    def retire(self, flow: Flow) -> None:
        """Withdraw an unfinished flow (a cancelled job): it is no longer
        pumped and answers arriving for it are cached but not fed. Paid
        queries stay paid — retirement abandons the audit, not the bill."""
        flow.retired = True
        if flow in self._flows:
            self._flows.remove(flow)

    def pump(self) -> list[Ticket]:
        """Issue every ready frontier: settle completions, collect each
        admitted flow's pending queries, answer what the cache and the
        in-flight table already know, and submit the rest to the backend
        in batches. Returns the tickets submitted by this call (answers
        may not be ready yet); hand each to :meth:`absorb` once gathered.
        """
        collected, tickets = self._pump()
        return tickets

    def absorb(self, ticket: Ticket, answers: Sequence[bool]) -> None:
        """Feed one completed ticket's answers back into the system:
        store them in the cache and advance every flow that was waiting
        on them. ``answers`` is what ``backend.gather(ticket)`` returned
        — parallel to the ticket's queries. Completion hooks do not fire
        here; they fire at the next :meth:`pump` (or :meth:`settle`), in
        admission order.
        """
        record = self._tickets.pop(ticket.ticket_id, None)
        if record is None:
            raise InvalidParameterError(
                f"ticket {ticket.ticket_id} is not outstanding on this engine"
            )
        keys, entries = record
        if len(answers) != len(keys):
            raise InvalidParameterError(
                f"ticket {ticket.ticket_id} carried {len(keys)} queries "
                f"but {len(answers)} answers were absorbed"
            )
        cache = self.cache
        #: flows fed by this ticket, in the order their first answer came
        touched: list[Flow] = []
        #: (super-group, the index keys it answered "no" for) per span
        negatives: list[tuple[GroupPredicate, list[IndexKey]]] = []
        last = fed_flow = None
        for (predicate, key), answer, entry in zip(keys, answers, entries):
            if predicate is not last:
                # A ticket carries each flow's dispatches back to back.
                table, last = cache.table(predicate), predicate
                implied = [] if predicate in cache.implications else None
                if implied is not None:
                    negatives.append((predicate, implied))
            table[key] = (YES | ABSORBED if answer else ABSORBED) | (entry[0] or 0) & LOGGED
            if implied is not None and not answer:
                implied.append(key)
            # The dispatcher: one flow for a whole span of the ticket.
            if entry[1] is not fed_flow:
                fed_flow, fed = entry[1], entry[1].fed
                if fed is None:
                    fed = fed_flow.fed = ([], [])
                    touched.append(fed_flow)
                positions_append, answers_append = fed[0].append, fed[1].append
            positions_append(entry[2])
            answers_append(answer)
            for waiter in range(3, len(entry), 2):  # flows that joined it in flight
                flow, joined = entry[waiter], entry[waiter].fed
                if joined is None:
                    joined = flow.fed = ([], [])
                    touched.append(flow)
                joined[0].append(entry[waiter + 1])
                joined[1].append(answer)
        for predicate, implied in negatives:
            cache.imply(predicate, implied, absorbed=True)
        feeds = [(flow, flow.fed) for flow in touched]
        for flow in touched:
            flow.fed = None
        for flow, (positions, fed_answers) in feeds:
            flow.outstanding -= len(positions)
            if not flow.retired:
                flow.stepper.feed(positions, fed_answers)

    def discard(self, ticket: Ticket) -> None:
        """Drop an outstanding ticket whose answers will never arrive
        (its gather failed). Waiting flows stop counting it as in
        flight; the queries themselves are abandoned — drivers retire or
        re-run the affected audits. A no-op for unknown tickets."""
        record = self._tickets.pop(ticket.ticket_id, None)
        if record is not None:
            for key, entry in zip(*record):
                self._release(key, entry)

    def _release(self, key: QueryKey, entry: list) -> None:
        """Take a query that will not be answered out of flight: its
        entry reverts to the answer held before (or paid since), if any,
        and its waiters stop counting it."""
        table = self.cache.tables.get(key[0], {})
        if table.get(key[1]) is entry:
            if entry[0] is None:
                del table[key[1]]
            else:
                table[key[1]] = entry[0]
        for flow in entry[1::2]:
            flow.outstanding -= 1

    def settle(self) -> None:
        """Fire completion hooks for every flow whose stepper finished,
        in admission order; spawned steppers are admitted (and, if born
        done, completed) depth-first. :meth:`pump` calls this first, so
        explicit calls are only needed to observe completions without
        pumping."""
        for flow in list(self._flows):
            if flow.stepper.done and not flow.finished:
                self._finish(flow)

    @property
    def outstanding_tickets(self) -> int:
        """Tickets submitted by this engine and not yet absorbed."""
        return len(self._tickets)

    @property
    def active_flows(self) -> int:
        """Admitted flows that have not finished (or been retired)."""
        return len(self._flows)

    @property
    def has_work(self) -> bool:
        """True while any flow is unfinished or any ticket unabsorbed."""
        return bool(self._flows or self._tickets)

    # -- scheduling ------------------------------------------------------
    def run(
        self,
        steppers: Iterable[CoverageStepper],
        *,
        on_complete: CompletionHook | None = None,
        on_round: Callable[[], None] | None = None,
    ) -> dict[CoverageStepper, int]:
        """Drive ``steppers`` (plus any their completions spawn) to done.

        A thin drain loop over the non-blocking core: pump the ready
        frontier, wait for the backend, absorb completions, repeat until
        every stepper this call admitted (and every stepper spawned from
        them) has finished. Completion order is deterministic: flows
        settle in admission order. ``on_round`` (when given) fires after
        every scheduler round — the progress hook audit sessions use.

        Flows admitted by *other* drivers keep advancing while this call
        runs (their frontiers share the same pumps); the call returns as
        soon as its own steppers are done, leaving the rest in flight.

        Returns
        -------
        dict
            Per-stepper count of set queries dispatched to the crowd on
            its behalf. A query several steppers asked in the same round
            is attributed to the first requester (the one that caused the
            dispatch); cache hits are attributed to nobody. Summed over
            all steppers this equals the window's dispatched-query total,
            so it splits the dollar bill of a shared run across its runs.
        """
        tracked = [self.admit(stepper, on_complete=on_complete) for stepper in steppers]

        def tree() -> list[Flow]:
            """The tracked flows and every flow chained off them, breadth-first."""
            flows = list(tracked)
            for flow in flows:
                flows.extend(flow.spawned)
            return flows

        try:
            while True:
                self.settle()
                if all(flow.finished or flow.retired for flow in tree()):
                    break
                collected, _ = self._pump()
                while self._tickets:
                    ticket = self.backend.next_done()
                    try:
                        answers = self.backend.gather(ticket)
                    except BaseException:
                        # The gather consumed the ticket backend-side;
                        # drop it here too or the drain spins forever on
                        # a ticket the backend no longer knows.
                        self.discard(ticket)
                        raise
                    self.absorb(ticket, answers)
                if collected:
                    if on_round is not None:
                        on_round()
                elif not self._flows:
                    # Tracked flows unfinished, yet nothing to collect and
                    # nothing in flight: the bookkeeping is broken.
                    raise RuntimeError(
                        "engine has unfinished flows but no pending work"
                    )
        except BaseException:
            # An aborted drive (budget exhaustion, oracle failure) must
            # not leave its steppers admitted: a later drive on this
            # engine would keep pumping them — and keep paying for them.
            for flow in tree():
                if not flow.finished:
                    self.retire(flow)
            raise
        return {flow.stepper: flow.dispatched for flow in tree()}

    # -- internals -------------------------------------------------------
    def _finish(self, flow: Flow) -> None:
        flow.finished = True
        if flow in self._flows:
            self._flows.remove(flow)
        if flow.on_complete is None:
            return
        for spawned in flow.on_complete(flow.stepper) or ():
            flow.spawned.append(self.admit(spawned, on_complete=flow.on_complete))

    def _pump(self) -> tuple[bool, list[Ticket]]:
        """One scheduler round: settle, collect, resolve, submit.

        Returns ``(collected, tickets)`` — ``collected`` is False when no
        flow had a ready query (every flow is waiting on in-flight
        answers), in which case no round is counted.
        """
        self.settle()
        if not self._flows:
            return False, []
        cache = self.cache
        cache.pumps += 1
        stamp = cache.pumps * STAMP  # above every code a hit in an earlier pump left
        hits = 0
        to_dispatch: list[QueryKey] = []
        #: the in-flight cache entry of each query in to_dispatch
        dispatched: list[list] = []
        #: (flow, index of its first query in to_dispatch)
        dispatchers: list[tuple[Flow, int]] = []
        feeds: list[tuple[Flow, list[int], list[bool]]] = []
        collected = False
        for flow in list(self._flows):
            if flow.outstanding:
                # Answers are in flight for this flow: its frontier
                # widens when they land, not before. Collecting only
                # quiescent flows makes each flow's emission trace — and
                # therefore its task bill — independent of how finely
                # the driver interleaves pumps and absorbs (a drain loop
                # and a one-ticket-at-a-time service dispatch the exact
                # same queries per flow).
                continue
            batch = flow.stepper.pending()
            if not len(batch):
                raise RuntimeError(
                    "stepper is not done but has no pending queries — "
                    "its dependency tracking is broken"
                )
            collected = True
            predicate = batch.predicate
            table = cache.table(predicate)
            fed_positions: list[int] = []
            fed_answers: list[bool] = []
            first, earlier_hits, waiting = len(to_dispatch), hits, 0
            for position, key in zip(batch.positions, batch.keys):
                # One probe: an answer (held, or read earlier this
                # round), a query in flight, or nothing.
                entry = table.get(key)
                if entry is None or entry.__class__ is int and not entry & ABSORBED:
                    # Unknown, or held without an engine having gathered
                    # it (replayed, or paid by a sequential run):
                    # dispatch; a proxy holding it answers free.
                    entry = table[key] = [entry, flow, position]
                    to_dispatch.append((predicate, key))
                    dispatched.append(entry)
                elif entry.__class__ is list:
                    # In flight (this round or an earlier pump): join the
                    # waiters instead of paying twice.
                    entry += flow, position
                    waiting += 1
                else:
                    # A code stamped this round: another flow asked the
                    # same question and the cache already answered it.
                    if entry < stamp:
                        hits += 1
                        table[key] = entry & (STAMP - 1) | stamp
                    fed_positions.append(position)
                    fed_answers.append(entry & YES == YES)
            self.deduped_queries += waiting + len(fed_positions) - (hits - earlier_hits)
            flow.outstanding += waiting + len(to_dispatch) - first
            if len(to_dispatch) > first:
                dispatchers.append((flow, first))
                flow.dispatched += len(to_dispatch) - first
            if fed_positions:
                feeds.append((flow, fed_positions, fed_answers))
        cache.count(hits, len(to_dispatch))
        if collected:
            self.scheduler_rounds += 1
        for flow, fed_positions, fed_answers in feeds:
            flow.stepper.feed(fed_positions, fed_answers)
        tickets: list[Ticket] = []
        submitted = 0
        try:
            for start in range(0, len(to_dispatch), self.batch_size):
                chunk = to_dispatch[start : start + self.batch_size]
                ticket = self.backend.submit(chunk)
                self.oracle_round_trips += 1
                self._tickets[ticket.ticket_id] = (
                    chunk, dispatched[start : start + self.batch_size]
                )
                tickets.append(ticket)
                submitted += len(chunk)
        except BaseException:
            # A refused batch (budget exhaustion) publishes nothing: the
            # unsubmitted queries must leave the in-flight table, or
            # every later audit asking the same question would wait
            # forever on a ticket that does not exist.
            for key, entry in zip(to_dispatch[submitted:], dispatched[submitted:]):
                self._release(key, entry)
                entry[1].dispatched -= 1  # the dispatcher carried the attribution
            self.dispatched_queries += submitted
            raise
        finally:
            for flow, first in dispatchers:
                if first < submitted:
                    flow.rounds += 1
        self.dispatched_queries += len(to_dispatch)
        return collected, tickets

