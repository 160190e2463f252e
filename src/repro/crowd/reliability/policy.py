"""`AdaptiveAssignmentPolicy`: reliability-adaptive vote routing.

The paper's platform model (§2.3) publishes every HIT to a *fixed*
number of workers and majority-votes the answers — redundancy is paid
whether or not the first answers already settle the outcome. This module
replaces the fixed fan-out with a sequential decision rule grounded in
the online Dawid–Skene posterior:

* **Routing** — assignments go to the workers the estimator currently
  trusts most (quarantined workers are excluded), with an exploration
  bonus so new and recovering workers keep receiving evidence.
* **Stopping** — votes are collected one at a time; after each vote the
  posterior log-odds of the aggregate is updated with that worker's
  estimated log-likelihood ratio, and collection stops as soon as the
  magnitude clears a calibrated threshold (bounded by minimum and
  maximum assignment counts). Unanimous early votes from trusted
  workers settle a HIT in fewer assignments than the fixed fan-out;
  conflicting votes escalate it to more.
* **Probation probes** — every ``probation_interval``-th HIT also sends
  one paid probe to the quarantined worker with the least evidence, so
  the tracker can observe recovery and reinstate. Probe answers update
  the estimator but never the verdict.

The policy draws randomness *only* from the rng handed to
:meth:`plan` (the platform's stream) — one vector draw per HIT — and the
probe choice is a deterministic function of counters, preserving the
repository's rng-stream discipline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Protocol, Sequence

import numpy as np

from repro.errors import InvalidParameterError

from repro.crowd.reliability.online import OnlineDawidSkene, PointVotes, SetVotes
from repro.crowd.reliability.tracker import ReliabilityTracker

__all__ = ["AdaptiveAssignmentPolicy", "ReliabilityReport"]

_LOG_FLOOR = 1e-300


class _HasWorkerId(Protocol):
    worker_id: int


@dataclass(frozen=True)
class ReliabilityReport:
    """Read-only summary of a reliability policy's current state — the
    view :meth:`AuditSession.reliability_report` and the service expose.

    A derived snapshot, never serialized (checkpoints carry the full
    estimator state instead).

    >>> report = ReliabilityReport(
    ...     n_workers=5, n_quarantined=1, quarantined=(3,),
    ...     flags=((3, "adversary"),), n_quarantines=1, n_reinstatements=0,
    ...     n_hits=10, n_votes=24, n_probes=1)
    >>> report.mean_votes_per_hit
    2.4
    """

    n_workers: int
    n_quarantined: int
    quarantined: tuple[int, ...]
    flags: tuple[tuple[int, str], ...]
    n_quarantines: int
    n_reinstatements: int
    n_hits: int
    n_votes: int
    n_probes: int

    @property
    def mean_votes_per_hit(self) -> float:
        """Average verdict-bearing votes collected per HIT (excludes
        probes); the fixed-redundancy baseline sits at its fan-out."""
        return self.n_votes / self.n_hits if self.n_hits else 0.0


class AdaptiveAssignmentPolicy:
    """Sequential vote routing and stopping over streaming reliability.

    Examples
    --------
    >>> policy = AdaptiveAssignmentPolicy(log_odds_threshold=1.5)
    >>> lo = policy.prior_log_odds()
    >>> lo += policy.vote_log_odds(0, True)       # one yes from worker 0
    >>> policy.should_stop(lo, n_votes=1)         # prior-level trust: not yet
    False
    >>> lo += policy.vote_log_odds(1, True)       # a second agreeing yes
    >>> policy.should_stop(lo, n_votes=2)
    True
    >>> policy.decide(lo)
    True

    Parameters
    ----------
    estimator, tracker:
        The streaming estimator and quarantine tracker; fresh defaults
        are constructed when omitted (a tracker built on the estimator).
    min_assignments, max_assignments:
        Hard bounds on verdict-bearing votes per HIT.
    log_odds_threshold:
        Posterior log-odds magnitude at which collection stops.
    exploration:
        Scale of the uniform noise added to worker trust scores during
        routing, so ranking is not a fixed pecking order.
    probation_interval:
        Send one probe to a quarantined worker every this-many HITs.
    """

    def __init__(
        self,
        *,
        estimator: OnlineDawidSkene | None = None,
        tracker: ReliabilityTracker | None = None,
        min_assignments: int = 1,
        max_assignments: int = 7,
        log_odds_threshold: float = 5.0,
        exploration: float = 0.25,
        probation_interval: int = 7,
    ) -> None:
        if min_assignments < 1:
            raise InvalidParameterError(
                f"min_assignments must be >= 1, got {min_assignments}"
            )
        if max_assignments < min_assignments:
            raise InvalidParameterError(
                "max_assignments must be >= min_assignments, got "
                f"{max_assignments} < {min_assignments}"
            )
        if log_odds_threshold <= 0.0:
            raise InvalidParameterError(
                f"log_odds_threshold must be positive, got {log_odds_threshold}"
            )
        if exploration < 0.0:
            raise InvalidParameterError(
                f"exploration must be >= 0, got {exploration}"
            )
        if probation_interval < 1:
            raise InvalidParameterError(
                f"probation_interval must be >= 1, got {probation_interval}"
            )
        self.estimator = estimator if estimator is not None else OnlineDawidSkene()
        self.tracker = (
            tracker if tracker is not None else ReliabilityTracker(self.estimator)
        )
        self.min_assignments = min_assignments
        self.max_assignments = max_assignments
        self.log_odds_threshold = log_odds_threshold
        self.exploration = exploration
        self.probation_interval = probation_interval
        self.n_hits = 0
        self.n_votes = 0
        self.n_probes = 0

    # -- routing -----------------------------------------------------------
    def plan(
        self, eligible: Sequence[_HasWorkerId], rng: np.random.Generator
    ) -> tuple[list[int], int | None]:
        """Rank the eligible pool for one HIT.

        Returns ``(order, probe)``: positions into ``eligible`` to try in
        sequence (trusted-first with exploration noise, quarantined
        excluded, capped at ``max_assignments``), plus the position of a
        probation probe when this HIT is a probe round (``None``
        otherwise). Draws exactly one rng vector, regardless of how many
        votes the caller ends up taking.
        """
        if not eligible:
            raise InvalidParameterError("plan needs a non-empty eligible pool")
        is_quarantined = self.tracker.is_quarantined
        active = [
            pos
            for pos, worker in enumerate(eligible)
            if not is_quarantined(worker.worker_id)
        ]
        if not active:
            active = list(range(len(eligible)))
        noise = rng.random(len(active))
        # Registers unseen workers in eligible order, which checkpoints keep.
        rows = self.estimator.rows(eligible[pos].worker_id for pos in active)
        scores = self.estimator.pool().accuracy[rows]
        scores += self.exploration * noise
        ranked = [active[i] for i in np.argsort(-scores, kind="stable")]
        order = ranked[: self.max_assignments]
        probe = None
        if self.n_hits % self.probation_interval == self.probation_interval - 1:
            quarantined = [
                pos
                for pos, worker in enumerate(eligible)
                if self.tracker.is_quarantined(worker.worker_id)
            ]
            if quarantined:
                probe = min(
                    quarantined,
                    key=lambda pos: (
                        self.estimator.n_observations(eligible[pos].worker_id),
                        eligible[pos].worker_id,
                    ),
                )
        return order, probe

    # -- sequential stopping -----------------------------------------------
    def prior_log_odds(self) -> float:
        """Starting log-odds of "truth = yes" before any vote, from the
        estimator's current class priors."""
        return self.estimator.prior_log_odds()

    def vote_log_odds(self, worker_id: int, answer: bool) -> float:
        """The increment one worker's vote adds to the running posterior
        log-odds, under their current confusion estimate."""
        return self.estimator.vote_log_odds(worker_id, answer)

    def should_stop(self, log_odds: float, n_votes: int) -> bool:
        """Whether vote collection can stop: the minimum assignment count
        is met and the posterior log-odds magnitude clears the threshold
        (or the maximum assignment count is exhausted)."""
        if n_votes >= self.max_assignments:
            return True
        if n_votes < self.min_assignments:
            return False
        return abs(log_odds) >= self.log_odds_threshold

    def decide(self, log_odds: float) -> bool:
        """The aggregate set-query verdict implied by the final posterior
        log-odds: yes iff the log-odds is positive."""
        return log_odds > 0.0

    def should_stop_point(
        self, posteriors: Mapping[str, Mapping[str, float]], n_votes: int
    ) -> bool:
        """Point-query stopping rule: stop once every attribute's
        top-versus-runner-up posterior log-margin clears the threshold
        (same bounds as the set rule)."""
        if n_votes >= self.max_assignments:
            return True
        if n_votes < self.min_assignments or not posteriors:
            return False
        for values in posteriors.values():
            ranked = sorted(values.values(), reverse=True)
            if len(ranked) < 2:
                continue
            margin = float(
                np.log(ranked[0] + _LOG_FLOOR) - np.log(ranked[1] + _LOG_FLOOR)
            )
            if margin < self.log_odds_threshold:
                return False
        return True

    # -- evidence ----------------------------------------------------------
    def observe_set(self, votes: SetVotes, *, n_probes: int = 0) -> float:
        """Fold one HIT's set votes (probes included) into the estimator,
        run a quarantine review, and return the updated posterior
        ``P(truth = yes)`` for the HIT."""
        posterior = self.estimator.observe_set_batch([votes])
        self.tracker.review()
        self.n_hits += 1
        self.n_votes += len(votes) - n_probes
        self.n_probes += n_probes
        return float(posterior[0])

    def observe_point(
        self, votes: PointVotes, *, n_probes: int = 0
    ) -> dict[str, str]:
        """Fold one HIT's point votes into the estimator, run a
        quarantine review, and return the MAP ``{attribute: value}``
        labeling under the updated estimates."""
        labels = self.estimator.observe_point_batch([votes])
        self.tracker.review()
        self.n_hits += 1
        self.n_votes += len(votes) - n_probes
        self.n_probes += n_probes
        return labels[0]

    # -- reporting and state -----------------------------------------------
    def report(self) -> ReliabilityReport:
        """The current :class:`ReliabilityReport` snapshot: pool size,
        quarantine roster and flags, lifecycle and spend counters."""
        quarantined = self.tracker.quarantined_ids()
        return ReliabilityReport(
            n_workers=len(self.estimator.worker_ids),
            n_quarantined=len(quarantined),
            quarantined=quarantined,
            flags=tuple(
                (worker_id, flag)
                for worker_id in quarantined
                if (flag := self.tracker.flag(worker_id)) is not None
            ),
            n_quarantines=self.tracker.n_quarantines,
            n_reinstatements=self.tracker.n_reinstatements,
            n_hits=self.n_hits,
            n_votes=self.n_votes,
            n_probes=self.n_probes,
        )

    def state_dict(self) -> dict[str, Any]:
        """The policy's complete mutable state (estimator and tracker
        nested) as JSON-compatible primitives."""
        return {
            "estimator": self.estimator.state_dict(),
            "tracker": self.tracker.state_dict(),
            "n_hits": self.n_hits,
            "n_votes": self.n_votes,
            "n_probes": self.n_probes,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output bit-identically, estimator
        first so the tracker reads consistent statistics."""
        self.estimator.load_state_dict(state["estimator"])
        self.tracker.load_state_dict(state["tracker"])
        self.n_hits = int(state["n_hits"])
        self.n_votes = int(state["n_votes"])
        self.n_probes = int(state["n_probes"])
