"""A backend that charges round-trips a *clock* cost, not just dollars.

Real crowd platforms answer a published batch of HITs seconds to
minutes later: each assignment sits in a worker's queue, each worker
labels at their own pace, and the batch is done when its slowest worker
finishes. :class:`LatencyModelBackend` reproduces that shape without
real waiting — answers are computed at submission (through the oracle,
so dollar charging is unchanged) but *withheld* until a simulated
completion time on a virtual clock.

The latency of a batch comes from a per-worker model
(:class:`LatencyModel`): the batch's HITs are dealt round-robin to a
simulated worker pool, each worker's service times are log-normal draws
scaled by a per-worker speed factor, a worker finishes their share
sequentially, and the batch completes when the last worker does (plus a
fixed publication overhead). Two audits that overlap their outstanding
batches therefore finish in roughly the time of one — the wall-clock
win :mod:`repro.service` exists to harvest, measured for real in
``benchmarks/bench_service.py``.

The clock only moves when someone *waits*: ``gather`` on an unready
ticket advances it to that ticket's completion time, ``next_done``
advances it to the earliest completion among outstanding tickets.
``clock.now()`` after a drain is the simulated makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.crowd.backends.base import CrowdBackend, Ticket
from repro.errors import InvalidParameterError

if TYPE_CHECKING:
    from repro.engine.requests import QueryKey

__all__ = ["SimulatedClock", "LatencyModel", "LatencyModelBackend"]


class SimulatedClock:
    """A virtual clock that moves only when a caller waits on it.

    Examples
    --------
    >>> clock = SimulatedClock()
    >>> clock.advance_to(12.5)
    >>> clock.advance_to(3.0)    # never backward
    >>> clock.now()
    12.5
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def now(self) -> float:
        """Current simulated time in virtual seconds."""
        return self._now

    def advance_to(self, instant: float) -> None:
        """Jump forward to ``instant`` (never backward)."""
        if instant > self._now:
            self._now = float(instant)


@dataclass(frozen=True)
class LatencyModel:
    """Per-worker latency distributions for one simulated worker pool.

    Attributes
    ----------
    n_workers:
        Pool size a published batch is dealt across (round-robin). A
        batch wider than the pool queues several HITs on each worker,
        who serves them sequentially — exactly why oversized batches
        stop helping latency at some point.
    median_seconds:
        Median per-HIT service time of an average worker.
    sigma:
        Log-normal shape of per-HIT service times (0 = deterministic).
    worker_sigma:
        Log-normal spread of per-*worker* speed factors, drawn once per
        backend: some workers are consistently fast, some consistently
        slow.
    publish_overhead_seconds:
        Fixed cost per published batch (platform acceptance, worker
        discovery) paid before any HIT starts.

    Examples
    --------
    >>> import numpy as np
    >>> model = LatencyModel(n_workers=4, median_seconds=30.0, sigma=0.0,
    ...                      worker_sigma=0.0, publish_overhead_seconds=5.0)
    >>> rng = np.random.default_rng(0)
    >>> # 8 deterministic HITs over 4 workers: 2 sequential HITs each.
    >>> model.batch_seconds(8, model.draw_speed_factors(rng), rng)
    65.0
    """

    n_workers: int = 8
    median_seconds: float = 30.0
    sigma: float = 0.25
    worker_sigma: float = 0.2
    publish_overhead_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise InvalidParameterError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.median_seconds <= 0 or self.publish_overhead_seconds < 0:
            raise InvalidParameterError(
                "median_seconds must be > 0 and publish_overhead_seconds >= 0"
            )
        if self.sigma < 0 or self.worker_sigma < 0:
            raise InvalidParameterError("sigma parameters must be >= 0")

    def draw_speed_factors(self, rng: np.random.Generator) -> np.ndarray:
        """One speed multiplier per worker (applied to every HIT they take)."""
        return np.exp(rng.normal(0.0, self.worker_sigma, size=self.n_workers))

    def batch_seconds(
        self, n_queries: int, speed_factors: np.ndarray, rng: np.random.Generator
    ) -> float:
        """Simulated completion time of one batch of ``n_queries`` HITs."""
        times = self.median_seconds * np.exp(
            rng.normal(0.0, self.sigma, size=n_queries)
        )
        workers = np.arange(n_queries) % len(speed_factors)
        per_worker = np.zeros(len(speed_factors))
        np.add.at(per_worker, workers, times)
        per_worker *= speed_factors
        return self.publish_overhead_seconds + float(per_worker.max(initial=0.0))


class LatencyModelBackend(CrowdBackend):
    """Simulated-latency crowd dispatch on a virtual clock.

    Parameters
    ----------
    oracle:
        Where answers (and charges) come from, as everywhere.
    model:
        The :class:`LatencyModel`; defaults model a small MTurk-like
        pool with ~30 s median HITs.
    rng:
        Randomness for worker speeds and per-HIT times. Latency draws
        never touch the oracle's answer randomness, so verdicts with a
        seeded noisy oracle are unaffected by the latency model.
    clock:
        A :class:`SimulatedClock`; a fresh one when omitted. Pass a
        shared clock to let several backends tell one story of time.
    attribute_workers:
        When ``True`` and the oracle itself exposes no worker votes,
        synthesize per-query attributions from the latency model's
        round-robin deal (query ``i`` answered by simulated worker
        ``i % n_workers``), so reliability estimators can run over
        oracles without a platform identity (e.g. ground truth or flaky
        oracles). Real platform votes, when available, always win.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.crowd.oracle import GroundTruthOracle
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.groups import group
    >>> from repro.engine.requests import set_query_key
    >>> ds = binary_dataset(100, 10, rng=np.random.default_rng(0))
    >>> backend = LatencyModelBackend(GroundTruthOracle(ds))
    >>> ticket = backend.submit([set_query_key(np.arange(100), group(gender="female"))])
    >>> backend.poll()                      # not ready: no virtual time passed
    []
    >>> backend.gather(ticket)              # waiting advances the clock
    [True]
    >>> backend.clock.now() > 0.0
    True
    """

    def __init__(
        self,
        oracle,
        *,
        model: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        clock: SimulatedClock | None = None,
        attribute_workers: bool = False,
    ) -> None:
        super().__init__(oracle)
        self.attribute_workers = attribute_workers
        self.model = model if model is not None else LatencyModel()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.clock = clock if clock is not None else SimulatedClock()
        self._speed_factors = self.model.draw_speed_factors(self.rng)
        self._answers: dict[int, list[bool]] = {}
        self._ready_at: dict[int, float] = {}

    def _now(self) -> float:
        return self.clock.now()

    def _submit(self, ticket: Ticket, queries: "Sequence[QueryKey]") -> None:
        # Dollars at submission (the HITs are published and will be
        # worked whatever happens next); availability later.
        answers = self._dispatch(queries, ticket=ticket)
        self._answers[ticket.ticket_id] = answers
        if self.attribute_workers and ticket.ticket_id not in self._votes:
            # No platform identity behind the oracle: attribute each
            # query to the simulated worker the round-robin deal gave it.
            self._votes[ticket.ticket_id] = [
                ((int(i % self.model.n_workers), bool(answer)),)
                for i, answer in enumerate(answers)
            ]
        self._ready_at[ticket.ticket_id] = self.clock.now() + self.model.batch_seconds(
            len(queries), self._speed_factors, self.rng
        )

    def _ready(self, ticket: Ticket) -> bool:
        return self.clock.now() >= self._ready_at[ticket.ticket_id]

    def _gather(self, ticket: Ticket) -> Sequence[bool]:
        # Blocking wait: simulated time passes until the batch is done.
        self.clock.advance_to(self._ready_at.pop(ticket.ticket_id))
        return self._answers.pop(ticket.ticket_id)

    def _next_done(self) -> Ticket:
        soonest = min(
            self._open.values(),
            key=lambda t: (self._ready_at[t.ticket_id], t.ticket_id),
        )
        self.clock.advance_to(self._ready_at[soonest.ticket_id])
        return soonest
