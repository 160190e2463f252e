"""Versioned codec for reliability state in checkpoints.

Checkpointed audits must survive a kill with *bit-identical* outcomes:
same verdicts, same task counts, no paid query re-asked. For a
reliability-enabled platform that means persisting three things
together, as one versioned section:

* the policy's mutable state — estimator sufficient statistics,
  quarantine roster, spend counters (all JSON primitives; floats
  round-trip exactly through JSON),
* the **platform rng stream position** (`bit_generator.state`). The
  session/service already persist their own sampling rng, but adaptive
  routing also consumes the *platform's* stream (routing noise + worker
  answer draws); restoring it guarantees that queries issued after a
  resume draw the same answers they would have in an uninterrupted run.

:class:`ReliabilitySnapshot` is the frozen payload type;
``to_dict``/``from_dict`` follow the repository codec contract
(explicit version stamp, unknown versions rejected, missing keys wrapped
as :class:`~repro.errors.CheckpointVersionError` — reprolint
RPL003/RPL004/RPL005).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

import numpy as np

from repro.errors import CheckpointVersionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.crowd.platform import CrowdPlatform
    from repro.crowd.reliability.policy import AdaptiveAssignmentPolicy

__all__ = ["ReliabilitySnapshot", "RELIABILITY_STATE_VERSION"]

#: Version stamp of the ``reliability`` checkpoint section.
RELIABILITY_STATE_VERSION = 1

_READABLE_VERSIONS = frozenset({1})


@dataclass(frozen=True)
class ReliabilitySnapshot:
    """Frozen, versioned payload of a platform's reliability state.

    Captures the adaptive policy's complete mutable state plus the
    platform rng stream position; restoring both onto an identically
    configured platform resumes the audit bit-identically.

    >>> snap = ReliabilitySnapshot(
    ...     policy={"n_hits": 0}, platform_rng_state=None)
    >>> ReliabilitySnapshot.from_dict(snap.to_dict()) == snap
    True
    """

    policy: dict[str, Any]
    platform_rng_state: dict[str, Any] | None

    @classmethod
    def capture(cls, platform: "CrowdPlatform") -> "ReliabilitySnapshot":
        """Snapshot a reliability-enabled platform: the policy's
        ``state_dict`` plus the platform rng's bit-generator state."""
        if platform.reliability is None:
            raise CheckpointVersionError(
                "capture requires a platform constructed with reliability="
            )
        return cls(
            policy=platform.reliability.state_dict(),
            platform_rng_state=dict(platform.rng.bit_generator.state),
        )

    def restored(
        self, platform: "CrowdPlatform"
    ) -> tuple["AdaptiveAssignmentPolicy", np.random.Generator | None]:
        """This snapshot decoded for an identically configured platform,
        which stays unchanged: a copy of its policy carrying the
        snapshot's state, and a platform rng at the snapshot's stream
        position (``None`` when the snapshot has none). An unreadable
        payload raises :class:`~repro.errors.CheckpointVersionError`."""
        if platform.reliability is None:
            raise CheckpointVersionError(
                "checkpoint has a reliability section but the resumed "
                "platform was constructed without reliability="
            )
        rng = None
        if self.platform_rng_state is not None:
            try:
                bit_generator = getattr(
                    np.random, str(self.platform_rng_state["bit_generator"])
                )()
                bit_generator.state = dict(self.platform_rng_state)
            except (KeyError, TypeError, ValueError, AttributeError) as error:
                raise CheckpointVersionError(
                    f"malformed platform rng state in reliability section: {error}"
                ) from error
            rng = np.random.Generator(bit_generator)
        return platform.reliability.loaded(self.policy), rng

    def to_dict(self) -> dict[str, Any]:
        """Serialize to a JSON-compatible dict, stamped with
        ``version`` = :data:`RELIABILITY_STATE_VERSION`."""
        return {
            "version": RELIABILITY_STATE_VERSION,
            "policy": self.policy,
            "platform_rng_state": self.platform_rng_state,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ReliabilitySnapshot":
        """Decode :meth:`to_dict` output, rejecting unknown ``version``
        stamps and wrapping missing keys as
        :class:`~repro.errors.CheckpointVersionError`."""
        try:
            version = payload["version"]
            if version not in _READABLE_VERSIONS:
                raise CheckpointVersionError(
                    f"unsupported reliability section version {version!r}; "
                    f"readable: {sorted(_READABLE_VERSIONS)}"
                )
            policy = payload["policy"]
            rng_state = payload["platform_rng_state"]
        except KeyError as error:
            raise CheckpointVersionError(
                f"reliability section is missing required key {error}"
            ) from error
        return cls(
            policy=dict(policy),
            platform_rng_state=None if rng_state is None else dict(rng_state),
        )
