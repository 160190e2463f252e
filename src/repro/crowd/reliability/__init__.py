"""Online worker-reliability: streaming estimation, quarantine, routing.

The paper's crowd model (§2.3) fixes redundancy up front — every HIT
goes to ``assignments_per_hit`` workers and majority vote settles it,
regardless of how trustworthy the answering workers are. This subsystem
closes the loop instead:

* :class:`OnlineDawidSkene` (:mod:`~repro.crowd.reliability.online`) —
  a streaming Dawid–Skene estimator: per-worker confusion matrices
  updated as answers arrive, via damped partial E-steps over the rows
  of the workers who voted.
* :class:`ReliabilityTracker` (:mod:`~repro.crowd.reliability.tracker`)
  — classifies confusion signatures (uniform guessers, always-yes/no,
  polarity-flipped adversaries) and manages quarantine with probation
  re-entry.
* :class:`AdaptiveAssignmentPolicy`
  (:mod:`~repro.crowd.reliability.policy`) — routes assignments to
  trusted workers and stops collecting votes once the posterior
  log-odds clears a calibrated threshold; :class:`ReliabilityReport`
  is its read-only summary.
* :class:`ReliabilitySnapshot`
  (:mod:`~repro.crowd.reliability.serialization`) — the versioned
  checkpoint codec, including the platform rng stream position so
  killed audits resume bit-identically.

Wire it in with ``CrowdPlatform(..., reliability=AdaptiveAssignmentPolicy())``;
see ``docs/guide/reliability.md`` for the math-to-code mapping and
calibration guidance.
"""

from __future__ import annotations

from repro.crowd.reliability.online import OnlineDawidSkene
from repro.crowd.reliability.policy import AdaptiveAssignmentPolicy, ReliabilityReport
from repro.crowd.reliability.serialization import (
    RELIABILITY_STATE_VERSION,
    ReliabilitySnapshot,
)
from repro.crowd.reliability.tracker import ReliabilityTracker

__all__ = [
    "OnlineDawidSkene",
    "ReliabilityTracker",
    "AdaptiveAssignmentPolicy",
    "ReliabilityReport",
    "ReliabilitySnapshot",
    "RELIABILITY_STATE_VERSION",
]
