"""`ReliabilityTracker`: flagging and quarantining unreliable workers.

Reads the confusion matrices maintained by
:class:`~repro.crowd.reliability.OnlineDawidSkene` and classifies each
worker's *behavioral signature* once enough evidence has accumulated:

* **uniform guesser** — answers carry no signal: Youden's J
  (true-positive rate minus false-positive rate) sits inside a small
  band around zero,
* **always-yes** / **always-no** — the answer barely depends on the
  truth: both conditional rates of the same answer exceed an extreme
  threshold,
* **adversary** — polarity-flipped answers: J is *negative* beyond the
  guessing band, i.e. the worker is anti-correlated with the truth.

Flagged workers are **quarantined**: the adaptive assignment policy
stops routing paid, verdict-bearing votes to them. Quarantine is not
permanent — workers re-enter through **probation**: the policy keeps
sending them occasional probe HITs (paid, but excluded from the
aggregate), and once enough probes accumulate with a clean signature and
a sufficiently positive J, the tracker reinstates them. This matters for
*drifting* pools where a worker's quality degrades and recovers.

The tracker draws no randomness: classification is a pure function of
the estimator's statistics, so identical vote streams yield identical
quarantine decisions (reprolint RPL001/RPL008 discipline).
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.errors import InvalidParameterError

from repro.crowd.reliability.online import OnlineDawidSkene

__all__ = ["ReliabilityTracker"]

_ACTIVE = "active"
_QUARANTINED = "quarantined"

FLAG_UNIFORM = "uniform_guesser"
FLAG_ALWAYS_YES = "always_yes"
FLAG_ALWAYS_NO = "always_no"
FLAG_ADVERSARY = "adversary"


class ReliabilityTracker:
    """Quarantine lifecycle over an :class:`OnlineDawidSkene` estimator.

    Examples
    --------
    >>> est = OnlineDawidSkene()
    >>> tracker = ReliabilityTracker(est, min_observations=2)
    >>> for _ in range(8):   # worker 9 keeps contradicting two good workers
    ...     _ = est.observe_set_batch([[(0, True), (1, True), (9, False)],
    ...                                [(0, False), (1, False), (9, True)]])
    >>> _ = tracker.review()
    >>> tracker.is_quarantined(9)
    True
    >>> tracker.flag(9)
    'adversary'

    Parameters
    ----------
    estimator:
        The online estimator whose confusion matrices are classified.
    min_observations:
        Votes a worker must have before classification applies; below
        this the signature is prior-dominated noise.
    spam_margin:
        Half-width of the "no signal" band: ``|J| < spam_margin`` flags
        a uniform guesser, ``J <= -spam_margin`` an adversary.
    extreme_rate:
        Conditional same-answer rate above which a worker counts as
        always-yes / always-no regardless of J.
    reentry_margin:
        Youden's J a quarantined worker must reach (with a clean
        signature) to be reinstated.
    probation_votes:
        Probe votes that must accumulate *after* quarantine before
        reinstatement is considered.
    """

    def __init__(
        self,
        estimator: OnlineDawidSkene,
        *,
        min_observations: int = 12,
        spam_margin: float = 0.15,
        extreme_rate: float = 0.85,
        reentry_margin: float = 0.25,
        probation_votes: int = 6,
    ) -> None:
        if min_observations < 1:
            raise InvalidParameterError(
                f"min_observations must be >= 1, got {min_observations}"
            )
        if not 0.0 < spam_margin < 1.0:
            raise InvalidParameterError(
                f"spam_margin must be in (0, 1), got {spam_margin}"
            )
        if not 0.5 < extreme_rate <= 1.0:
            raise InvalidParameterError(
                f"extreme_rate must be in (0.5, 1], got {extreme_rate}"
            )
        if not 0.0 <= reentry_margin < 1.0:
            raise InvalidParameterError(
                f"reentry_margin must be in [0, 1), got {reentry_margin}"
            )
        if probation_votes < 1:
            raise InvalidParameterError(
                f"probation_votes must be >= 1, got {probation_votes}"
            )
        self.estimator = estimator
        self.min_observations = min_observations
        self.spam_margin = spam_margin
        self.extreme_rate = extreme_rate
        self.reentry_margin = reentry_margin
        self.probation_votes = probation_votes

        self._states: dict[int, str] = {}
        self._flags: dict[int, str] = {}
        self._obs_at_quarantine: dict[int, int] = {}
        self.n_quarantines = 0
        self.n_reinstatements = 0

    # -- signature classification ------------------------------------------
    def youden_j(self, worker_id: int) -> float:
        """Youden's J statistic ``TPR - FPR`` for the worker — the signal
        their votes carry (+1 perfect, 0 guessing, -1 inverted)."""
        confusion = self.estimator.confusion(worker_id)
        return float(confusion[1, 1] - confusion[0, 1])

    def classify(self, worker_id: int) -> str | None:
        """The worker's current behavioral flag, or ``None`` when their
        signature looks legitimate (or evidence is still insufficient)."""
        estimator = self.estimator
        row = estimator.row_of(worker_id)
        if row is None or estimator.n_observations(worker_id) < self.min_observations:
            return None
        _, yes_rate_when_no, _, yes_rate_when_yes = estimator.row_confusion(row)
        extreme = self.extreme_rate
        if yes_rate_when_no >= extreme and yes_rate_when_yes >= extreme:
            return FLAG_ALWAYS_YES
        if 1.0 - yes_rate_when_no >= extreme and 1.0 - yes_rate_when_yes >= extreme:
            return FLAG_ALWAYS_NO
        j = yes_rate_when_yes - yes_rate_when_no
        if j <= -self.spam_margin:
            return FLAG_ADVERSARY
        if abs(j) < self.spam_margin:
            return FLAG_UNIFORM
        return None

    # -- quarantine lifecycle ----------------------------------------------
    def review(self, rows: Iterable[int] | None = None) -> list[int]:
        """Re-classify workers: quarantine newly flagged ones, reinstate
        quarantined workers whose probation has cleared. Returns worker
        ids whose state changed, in first-seen order.

        ``rows`` are the estimator rows whose statistics changed since
        the last review — a HIT's voters — and only they are visited;
        ``None`` (the default) visits every known worker. A worker whose
        statistics did not change gets the verdict of their last review
        again: a clean active worker stays, a flagged one was quarantined
        then, and a quarantined one either had their probation restarted
        then (so has no probes now) or was left as is.
        """
        estimator = self.estimator
        worker_ids = estimator.worker_ids
        visit = range(len(worker_ids)) if rows is None else sorted(set(rows))
        changed: list[int] = []
        for row in visit:
            worker_id = worker_ids[row]
            flag = self.classify(worker_id)
            if self._states.get(worker_id, _ACTIVE) == _ACTIVE:
                if flag is not None:
                    self._states[worker_id] = _QUARANTINED
                    self._flags[worker_id] = flag
                    self._obs_at_quarantine[worker_id] = estimator.n_observations(worker_id)
                    self.n_quarantines += 1
                    changed.append(worker_id)
                continue
            probes = estimator.n_observations(worker_id)
            probes -= self._obs_at_quarantine.get(worker_id, 0)
            if (
                probes >= self.probation_votes
                and flag is None
                and self.youden_j(worker_id) >= self.reentry_margin
            ):
                self._states[worker_id] = _ACTIVE
                self._flags.pop(worker_id, None)
                self._obs_at_quarantine.pop(worker_id, None)
                self.n_reinstatements += 1
                changed.append(worker_id)
            elif flag is not None:
                # Still misbehaving: refresh the flag, restart probation.
                self._flags[worker_id] = flag
                self._obs_at_quarantine[worker_id] = estimator.n_observations(worker_id)
        return changed

    def is_quarantined(self, worker_id: int) -> bool:
        """Whether the worker is currently excluded from verdict-bearing
        assignments (probe HITs may still reach them)."""
        return self._states.get(worker_id, _ACTIVE) == _QUARANTINED

    def flag(self, worker_id: int) -> str | None:
        """The behavioral flag that put the worker in quarantine
        (``None`` for active workers)."""
        return self._flags.get(worker_id)

    def quarantined_ids(self) -> tuple[int, ...]:
        """Currently quarantined worker ids, sorted ascending for
        deterministic iteration."""
        return tuple(
            sorted(w for w, s in self._states.items() if s == _QUARANTINED)
        )

    # -- serializable state ------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """The tracker's mutable state as JSON-compatible primitives
        (estimator state is serialized separately by the snapshot)."""
        return {
            "states": {str(w): s for w, s in sorted(self._states.items())},
            "flags": {str(w): f for w, f in sorted(self._flags.items())},
            "obs_at_quarantine": {
                str(w): n for w, n in sorted(self._obs_at_quarantine.items())
            },
            "n_quarantines": self.n_quarantines,
            "n_reinstatements": self.n_reinstatements,
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore :meth:`state_dict` output exactly; the attached
        estimator must be restored separately (and first)."""
        self._states = {int(w): str(s) for w, s in state["states"].items()}
        self._flags = {int(w): str(f) for w, f in state["flags"].items()}
        self._obs_at_quarantine = {
            int(w): int(n) for w, n in state["obs_at_quarantine"].items()
        }
        self.n_quarantines = int(state["n_quarantines"])
        self.n_reinstatements = int(state["n_reinstatements"])
