"""Real concurrency: batches dispatched on a thread pool.

:class:`ThreadedBackend` is the shape an *external* platform adapter
plugs into — the thing that actually publishes HITs to MTurk, Toloka, or
an internal labeling service over HTTP. ``submit`` hands the batch to a
worker thread and returns immediately; ``gather``/``next_done`` block on
the corresponding future.

By default the batch is answered by the oracle under a lock (the
:class:`~repro.crowd.oracle.TaskLedger` is not thread-safe, and atomic
batch budget enforcement must stay atomic). A real adapter replaces that
with its own I/O by passing ``adapter=``: a callable taking the
sequence of :data:`~repro.engine.requests.QueryKey` and returning one
bool per query. Adapters do their own charging/pricing — the ledger
only sees batches the default dispatch path answers.
"""

from __future__ import annotations

import threading
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from typing import TYPE_CHECKING, Callable, Sequence

from repro.crowd.backends.base import CrowdBackend, Ticket
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.engine.requests import QueryKey

__all__ = ["ThreadedBackend"]


class ThreadedBackend(CrowdBackend):
    """Thread-pool dispatch behind the submit/poll/gather protocol.

    Parameters
    ----------
    oracle:
        The answer source for the default (locked) dispatch path.
    max_workers:
        Concurrent in-flight batches (pool threads).
    adapter:
        Optional external dispatch: ``adapter(queries) -> Sequence[bool]``,
        run on a pool thread per batch. Exceptions it raises surface at
        :meth:`gather` of the affected ticket.

    Notes
    -----
    Errors raised by dispatch (including
    :class:`~repro.errors.BudgetExceededError` from the oracle's ledger)
    are captured in the future and re-raised when the ticket is
    gathered — asynchronous publication means refusal is asynchronous
    too.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crowd.oracle import GroundTruthOracle
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.groups import group
    >>> from repro.engine.requests import set_query_key
    >>> ds = binary_dataset(100, 10, rng=np.random.default_rng(0))
    >>> backend = ThreadedBackend(GroundTruthOracle(ds), max_workers=2)
    >>> ticket = backend.submit([set_query_key(np.arange(100), group(gender="female"))])
    >>> backend.gather(backend.next_done())
    [True]
    >>> backend.close()
    """

    def __init__(
        self,
        oracle,
        *,
        max_workers: int = 4,
        adapter: "Callable[[Sequence[QueryKey]], Sequence[bool]] | None" = None,
    ) -> None:
        if max_workers < 1:
            raise InvalidParameterError(
                f"max_workers must be >= 1, got {max_workers}"
            )
        super().__init__(oracle)
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="crowd-backend"
        )
        self._oracle_lock = threading.Lock()
        self._adapter = adapter
        self._futures: dict[int, Future] = {}
        self._closed = False

    def _call(self, ticket: Ticket, queries: "Sequence[QueryKey]") -> Sequence[bool]:
        if self._adapter is not None:
            # External adapters do their own dispatch; worker identities
            # (if any) are theirs to surface — no votes are captured.
            return self._adapter(queries)
        with self._oracle_lock:
            # Vote capture happens inside the oracle lock: the drain is
            # atomic with the dispatch, so concurrent batches cannot
            # interleave their attributions.
            return self._dispatch(queries, ticket=ticket)

    def _submit(self, ticket: Ticket, queries: "Sequence[QueryKey]") -> None:
        if self._closed:
            raise InvalidParameterError("backend is closed")
        self._futures[ticket.ticket_id] = self._pool.submit(
            self._call, ticket, queries
        )

    def _ready(self, ticket: Ticket) -> bool:
        return self._futures[ticket.ticket_id].done()

    def _gather(self, ticket: Ticket) -> Sequence[bool]:
        future = self._futures.pop(ticket.ticket_id)
        try:
            return future.result()
        except BaseException:
            # The ticket is consumed either way; the caller sees the
            # dispatch error exactly once.
            raise

    def _next_done(self) -> Ticket:
        done, _ = wait(self._futures.values(), return_when=FIRST_COMPLETED)
        finished = {id(f) for f in done}
        # Deterministic among simultaneously-done tickets: submission order.
        for ticket in self._open.values():
            if id(self._futures[ticket.ticket_id]) in finished:
                return ticket
        raise RuntimeError("wait() returned but no outstanding ticket is done")

    def close(self) -> None:
        """Shut the pool down after in-flight batches finish (idempotent)."""
        if not self._closed:
            self._closed = True
            self._pool.shutdown(wait=True)
