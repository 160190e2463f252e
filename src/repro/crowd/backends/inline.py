"""The zero-latency backend: answers are ready at submission.

:class:`InlineBackend` is the compatibility backend — it publishes a
batch by calling ``oracle.ask_set_batch`` synchronously and holds the
answers until they are gathered. A drain loop over it performs exactly
the call sequence the blocking engine used to make (one
``ask_set_batch`` per chunk, in chunk order), so verdicts, task counts,
and engine statistics are bit-identical to the pre-backend design. It is
the default backend of :class:`~repro.engine.QueryEngine`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.crowd.backends.base import CrowdBackend, Ticket

if TYPE_CHECKING:
    from repro.engine.requests import QueryKey

__all__ = ["InlineBackend"]


class InlineBackend(CrowdBackend):
    """Synchronous dispatch behind the asynchronous protocol.

    ``submit`` answers the batch immediately through the oracle (ledger
    charging and budget enforcement happen right there, as in the
    blocking API); ``poll`` reports every outstanding ticket ready;
    ``gather`` never blocks.

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
    >>> ticket = backend.submit([set_query_key(np.arange(50), group(gender="female")),
    ...                          set_query_key(np.arange(0), group(gender="female"))])
    >>> backend.gather(ticket)                    # ready immediately
    [True, False]
    >>> backend.oracle.ledger.n_rounds            # one round-trip per batch
    1
    """

    def __init__(self, oracle) -> None:
        super().__init__(oracle)
        self._answers: dict[int, list[bool]] = {}

    def _submit(self, ticket: Ticket, queries: "Sequence[QueryKey]") -> None:
        self._answers[ticket.ticket_id] = self._dispatch(queries, ticket=ticket)

    def _ready(self, ticket: Ticket) -> bool:
        return True

    def _gather(self, ticket: Ticket) -> Sequence[bool]:
        return self._answers.pop(ticket.ticket_id)

    def _next_done(self) -> Ticket:
        return next(iter(self._open.values()))
