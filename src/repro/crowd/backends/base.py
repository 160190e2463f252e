"""The asynchronous crowd-backend protocol: ``submit`` / ``poll`` / ``gather``.

The paper's cost model charges per crowd task, but a deployed audit
system is dominated by *latency*: a published batch of HITs comes back
seconds to minutes later, and the auditor should have other batches (and
other audits) in flight while it waits. The blocking
:meth:`~repro.crowd.oracle.Oracle.ask_set_batch` call cannot express
that, so the engine talks to the crowd through a
:class:`CrowdBackend` instead:

* :meth:`~CrowdBackend.submit` publishes one batch of set queries and
  returns a :class:`Ticket` immediately — the caller keeps working.
* :meth:`~CrowdBackend.poll` lists the tickets whose answers are ready.
* :meth:`~CrowdBackend.gather` collects one ticket's answers (blocking
  until they exist; a ticket is gathered exactly once).
* :meth:`~CrowdBackend.next_done` blocks until *some* outstanding
  ticket is ready and returns it — the wait primitive drain loops use.

Task charging is untouched: every backend routes the batch through
``oracle.ask_set_batch``, so the ledger bills one task per query and one
round-trip per batch exactly as before; what a backend adds is a *clock*
between publication and availability. Three implementations ship:

* :class:`~repro.crowd.backends.inline.InlineBackend` — answers are
  ready the moment ``submit`` returns. Driving an engine through it is
  bit-identical to the old blocking dispatch.
* :class:`~repro.crowd.backends.latency.LatencyModelBackend` — answers
  are withheld until a simulated per-worker latency elapses on a
  virtual clock, so round-trips have a clock cost, not just a dollar
  cost.
* :class:`~repro.crowd.backends.threaded.ThreadedBackend` — real
  concurrency on a thread pool, the shape an external platform adapter
  (MTurk, Toloka, an HTTP labeling service) plugs into.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.crowd.oracle import Oracle
    from repro.engine.requests import QueryKey

__all__ = ["Ticket", "CrowdBackend"]


@dataclass(frozen=True)
class Ticket:
    """Receipt for one submitted batch of set queries.

    Tickets are value objects handed back by :meth:`CrowdBackend.submit`
    and passed to :meth:`~CrowdBackend.gather`; the backend keys its
    bookkeeping on :attr:`ticket_id`.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crowd.backends import InlineBackend
    >>> from repro.crowd.oracle import GroundTruthOracle
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.groups import group
    >>> from repro.engine.requests import set_query_key
    >>> ds = binary_dataset(100, 10, rng=np.random.default_rng(0))
    >>> backend = InlineBackend(GroundTruthOracle(ds))
    >>> ticket = backend.submit([set_query_key(np.arange(100), group(gender="female"))])
    >>> (ticket.ticket_id, ticket.n_queries)
    (0, 1)

    Attributes
    ----------
    ticket_id:
        Monotonically increasing per backend; submission order is ticket
        order.
    n_queries:
        How many set queries the batch carried (the answer list
        :meth:`~CrowdBackend.gather` returns has this length).
    submitted_at:
        The backend clock's time at submission — virtual seconds for the
        latency backend, ``0.0`` where no clock is modeled.
    """

    ticket_id: int
    n_queries: int
    submitted_at: float = 0.0


class CrowdBackend(ABC):
    """Asynchronous boundary between the query engine and the crowd.

    Subclasses implement :meth:`_submit` (publish the batch),
    :meth:`_ready` (is a ticket's answer available), :meth:`_gather`
    (block for and return one ticket's answers), and :meth:`_next_done`
    (block until some ticket is ready). The base class owns ticket
    identity and the submitted-but-ungathered table, so the lifecycle
    — submit once, gather exactly once — is enforced uniformly.

    Every backend is constructed over the :class:`~repro.crowd.oracle.Oracle`
    it ultimately answers from; ledger charging (one task per query, one
    round-trip per batch, atomic budget enforcement) happens inside the
    oracle exactly as in the blocking API.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crowd.backends import InlineBackend
    >>> from repro.crowd.oracle import GroundTruthOracle
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.groups import group
    >>> from repro.engine.requests import set_query_key
    >>> ds = binary_dataset(100, 10, rng=np.random.default_rng(0))
    >>> backend = InlineBackend(GroundTruthOracle(ds))       # any CrowdBackend
    >>> ticket = backend.submit([set_query_key(np.arange(100), group(gender="female"))])
    >>> ticket in backend.poll() or backend.next_done() is ticket
    True
    >>> backend.gather(ticket)
    [True]
    >>> backend.outstanding
    0
    """

    def __init__(self, oracle: "Oracle") -> None:
        self.oracle = oracle
        self._next_ticket_id = 0
        #: submitted, not yet gathered — insertion (= submission) ordered.
        self._open: dict[int, Ticket] = {}
        #: per-ticket worker-vote attributions captured at dispatch.
        self._votes: dict[int, list[tuple[tuple[int, bool], ...]]] = {}
        # Looked up once: a proxy's miss costs a static lookup each time.
        drain = getattr(oracle, "drain_set_votes", None)
        self._drain_votes = drain if callable(drain) else None

    # -- public lifecycle -------------------------------------------------
    def submit(self, queries: "Sequence[QueryKey]") -> Ticket:
        """Publish one batch of set queries, each named by its
        :data:`~repro.engine.requests.QueryKey`; returns its
        :class:`Ticket`.

        Charging happens at submission (the batch is published — the
        crowd gets paid whether or not the caller ever gathers), so a
        batch the remaining budget cannot absorb raises
        :class:`~repro.errors.BudgetExceededError` here, before a ticket
        exists.
        """
        queries = tuple(queries)
        if not queries:
            raise InvalidParameterError("cannot submit an empty batch")
        ticket = Ticket(
            ticket_id=self._next_ticket_id,
            n_queries=len(queries),
            submitted_at=self._now(),
        )
        self._submit(ticket, queries)
        # Registered only after _submit succeeds: a refused batch (budget,
        # adapter failure at publish time) leaves no dangling ticket.
        self._next_ticket_id += 1
        self._open[ticket.ticket_id] = ticket
        return ticket

    def poll(self) -> "list[Ticket]":
        """Outstanding tickets whose answers are ready now (non-blocking),
        in submission order."""
        return [t for t in self._open.values() if self._ready(t)]

    def gather(self, ticket: Ticket) -> list[bool]:
        """Block until ``ticket``'s answers exist and return them, in the
        order the queries were submitted. Each ticket is gathered exactly
        once; a second gather (or a foreign ticket) raises."""
        if self._open.get(ticket.ticket_id) is not ticket:
            raise InvalidParameterError(
                f"ticket {ticket.ticket_id} is not outstanding on this backend "
                "(already gathered, or submitted elsewhere)"
            )
        try:
            answers = self._gather(ticket)
        finally:
            # Consumed either way: a failed dispatch (adapter error,
            # asynchronous budget refusal) surfaces here exactly once,
            # and the ticket must not wedge poll()/next_done() forever.
            del self._open[ticket.ticket_id]
        return list(map(bool, answers))

    def next_done(self) -> Ticket:
        """Block until some outstanding ticket is ready; return it
        (still outstanding — the caller gathers it). Raises when nothing
        is outstanding, so drain loops cannot wait forever."""
        if not self._open:
            raise InvalidParameterError(
                "no outstanding tickets; submit before waiting"
            )
        return self._next_done()

    @property
    def outstanding(self) -> int:
        """Tickets submitted and not yet gathered."""
        return len(self._open)

    def close(self) -> None:
        """Release backend resources (threads, adapters). Idempotent."""

    # -- implementation hooks ---------------------------------------------
    def _now(self) -> float:
        """The backend clock's current time (0.0 when unmodeled)."""
        return 0.0

    @abstractmethod
    def _submit(self, ticket: Ticket, queries: "Sequence[QueryKey]") -> None: ...

    @abstractmethod
    def _ready(self, ticket: Ticket) -> bool: ...

    @abstractmethod
    def _gather(self, ticket: Ticket) -> Sequence[bool]: ...

    def _next_done(self) -> Ticket:
        """Default wait: first submitted ready ticket; subclasses with a
        real notion of time or threads override."""
        for ticket in self._open.values():
            if self._ready(ticket):
                return ticket
        raise InvalidParameterError(
            "no outstanding ticket can become ready "
            f"({type(self).__name__} has no clock to advance)"
        )

    def take_votes(self, ticket: Ticket) -> "list[tuple[tuple[int, bool], ...]]":
        """Per-query worker-vote attributions for a dispatched ticket:
        one ``((worker_id, answer), ...)`` tuple per query, in submission
        order — the raw material an online reliability estimator
        (:mod:`repro.crowd.reliability`) consumes. Empty when the
        oracle does not expose worker identities (e.g. ground truth) and
        the backend does not synthesize them. May be called once per
        ticket, any time after submission; consuming is idempotent-safe
        (a second call returns an empty list)."""
        return self._votes.pop(ticket.ticket_id, [])

    # -- shared helper ----------------------------------------------------
    def _dispatch(
        self, queries: "Sequence[QueryKey]", *, ticket: "Ticket | None" = None
    ) -> list[bool]:
        """Route one batch through the oracle's blocking batch API —
        the charging path every simulated backend shares. When a ticket
        is given and the oracle buffers per-HIT worker votes
        (``drain_set_votes``), the attributions are captured for
        :meth:`take_votes`."""
        answers = self.oracle.ask_set_batch(queries)
        if ticket is not None and self._drain_votes is not None:
            votes = self._drain_votes()
            if votes:
                self._votes[ticket.ticket_id] = list(votes)
        return answers
