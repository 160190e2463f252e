"""The on-disk job board gateway and workers coordinate through.

One directory per job under ``<root>/jobs/``, named by the submission's
idempotency hash::

    jobs/<job_id>/
      submit.json     immutable submission record (spec, tenant, seed)
      state.json      mutable status/events/result — atomic replace
      lease.<g>.json  claim generation g (worker id, token, heartbeat);
                      the highest g is the live lease or its release
      cancel          cancellation request marker
      store/          the job's private DirectoryJobStore: an append-only
                      checkpoint journal and its lock file

Three invariants carry the whole serving design:

* **Idempotent creation.** ``submit.json`` is born via hard-link from a
  fully written temp file, so it is atomic *and* exclusive: exactly one
  of any number of concurrent submitters of the same spec hash creates
  the job; everyone else observes it already exists and gets the same
  job id back. A partially written submission is never visible.
* **Atomic claims.** Every claim, takeover and release creates the
  next lease generation the same way (exclusive link); no lease file is
  ever renamed or removed. A claimer that read generation ``g`` as free
  or stale (heartbeat older than the TTL) wins only by creating
  ``g + 1``, so of all racers that read the same record exactly one
  wins, however late the others act, and a claimer killed at any point
  leaves either no new generation or one that goes stale in turn.
* **Torn-read-free state.** Every ``state.json`` write is temp file +
  ``os.replace``: readers see the old record or the new one, never a
  hybrid. :class:`~repro.service.DirectoryJobStore` keeps the same
  promise for checkpoints with CRC-framed appends, whose readers skip a
  frame not yet whole.

The board is deliberately dumb — no daemon, no locks held across calls
— so any process that can see the filesystem can act as gateway or
worker, and a SIGKILL at any instruction leaves a directory some other
process can pick up.
"""

from __future__ import annotations

import json
import os
import secrets
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.errors import CheckpointVersionError, InvalidParameterError, ReproError
from repro.service.store import write_atomic
from repro.serving.protocol import Submission

__all__ = ["LeaseLostError", "Lease", "JobBoard", "TERMINAL_STATUSES"]

#: Outer job statuses with no further transitions.
TERMINAL_STATUSES = frozenset({"succeeded", "failed", "cancelled"})

_STATE_VERSION = 1


class LeaseLostError(ReproError):
    """The worker's lease was taken over (or released) under it.

    Raised by :meth:`JobBoard.heartbeat` when a later lease generation
    exists: the job now belongs to someone else and the caller must stop
    touching its state.

    Examples
    --------
    >>> issubclass(LeaseLostError, ReproError)
    True
    """


@dataclass(frozen=True)
class Lease:
    """A worker's claim on one job: identity plus the proof token.

    Examples
    --------
    >>> lease = Lease(job_id="j" + "0" * 16, worker="w1", token="ab12",
    ...               generation=1)
    >>> lease.worker
    'w1'
    """

    job_id: str
    worker: str
    token: str
    generation: int


def _link_exclusive(path: Path, payload: Mapping[str, Any]) -> bool:
    """Create ``path`` with ``payload`` atomically and exclusively:
    the file appears fully written or not at all, and exactly one of
    any number of racers succeeds. Returns False for the losers."""
    scratch = path.with_name(path.name + f".link-{secrets.token_hex(4)}")
    try:
        scratch.write_text(json.dumps(payload))
        os.link(scratch, path)
        return True
    except FileExistsError:
        return False
    finally:
        scratch.unlink(missing_ok=True)


def _read_json(path: Path) -> dict[str, Any] | None:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None


class JobBoard:
    """Filesystem job board over one serving root.

    Examples
    --------
    >>> import tempfile
    >>> from repro.audit import GroupAuditSpec
    >>> from repro.data.groups import group
    >>> from repro.serving.protocol import Submission
    >>> board = JobBoard(tempfile.mkdtemp())
    >>> spec = GroupAuditSpec(predicate=group(gender="female"), tau=5)
    >>> submission = Submission.from_spec(spec, tenant="team-a")
    >>> job_id, created = board.submit(submission)
    >>> _, again = board.submit(submission)      # idempotent
    >>> (created, again, board.read_state(job_id)["status"])
    (True, False, 'queued')
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    # -- submission -------------------------------------------------------
    def submit(self, submission: Submission) -> tuple[str, bool]:
        """Create the job (idempotently); returns ``(job_id, created)``.

        Concurrent submits of the same idempotency hash race on an
        exclusive link: one creates, the rest observe — all get the
        same id, the audit runs once.
        """
        job_dir = self.jobs_dir / submission.job_id
        job_dir.mkdir(exist_ok=True)
        created = _link_exclusive(job_dir / "submit.json", submission.to_dict())
        if created:
            self.write_state(
                submission.job_id,
                self._initial_state(submission),
            )
        return submission.job_id, created

    def _initial_state(self, submission: Submission) -> dict[str, Any]:
        return {
            "version": _STATE_VERSION,
            "job_id": submission.job_id,
            "tenant": submission.tenant,
            "status": "queued",
            "events": [
                {
                    "stage": "submitted",
                    "detail": f"tenant={submission.tenant} "
                    f"priority={submission.priority}",
                    "tasks": 0,
                    "worker": None,
                }
            ],
            "result": None,
            "error": None,
            "worker": None,
            "tasks_paid": 0,
        }

    # -- reading ----------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        """The job's directory under the root (existing or not)."""
        return self.jobs_dir / job_id

    def job_ids(self) -> list[str]:
        """Every job directory name, sorted (= stable scan order)."""
        try:
            return sorted(
                entry.name
                for entry in os.scandir(self.jobs_dir)
                if entry.is_dir()
            )
        except FileNotFoundError:
            return []

    def read_submission(self, job_id: str) -> Submission | None:
        """The job's immutable submission record, or ``None`` before the
        winning submitter finished creating it."""
        record = _read_json(self.job_dir(job_id) / "submit.json")
        return None if record is None else Submission.from_dict(record)

    def read_state(self, job_id: str) -> dict[str, Any]:
        """The job's current state record. A job whose ``state.json`` is
        not (yet) on disk reports a synthesized ``queued`` state, so the
        submit path never blocks on the initial state write; raises
        :class:`~repro.errors.InvalidParameterError` for unknown ids."""
        state = _read_json(self.job_dir(job_id) / "state.json")
        if state is not None:
            version = state.get("version")
            if version != _STATE_VERSION:
                raise CheckpointVersionError(
                    f"unsupported job state version {version!r} for job "
                    f"{job_id!r} (this build reads version {_STATE_VERSION})"
                )
            return state
        submission = self.read_submission(job_id)
        if submission is None:
            raise InvalidParameterError(f"unknown job id {job_id!r}")
        return self._initial_state(submission)

    def write_state(self, job_id: str, state: Mapping[str, Any]) -> None:
        """Atomically replace the job's state record."""
        write_atomic(self.job_dir(job_id) / "state.json", json.dumps(state))

    def states(self) -> Iterator[tuple[str, dict[str, Any]]]:
        """Iterate ``(job_id, state)`` over every job with a submission."""
        for job_id in self.job_ids():
            try:
                yield job_id, self.read_state(job_id)
            except InvalidParameterError:
                continue  # directory exists, submit.json not linked yet

    # -- cancellation -----------------------------------------------------
    def request_cancel(self, job_id: str) -> None:
        """Leave a cancellation marker for the job's worker (or for the
        gateway to act on directly while the job is unclaimed)."""
        if self.read_submission(job_id) is None:
            raise InvalidParameterError(f"unknown job id {job_id!r}")
        (self.job_dir(job_id) / "cancel").touch()

    def cancel_requested(self, job_id: str) -> bool:
        """True when a cancellation marker exists for the job."""
        return (self.job_dir(job_id) / "cancel").exists()

    # -- leases -----------------------------------------------------------
    def _lease_path(self, job_id: str, generation: int) -> Path:
        return self.job_dir(job_id) / f"lease.{generation}.json"

    def _newest_lease(self, job_id: str) -> tuple[int, dict[str, Any] | None]:
        """``(generation, record)`` of the job's highest lease generation;
        ``(0, None)`` before the first claim. Generations are created in
        order and never removed, so the first missing one ends the scan."""
        generation = 0
        while self._lease_path(job_id, generation + 1).exists():
            generation += 1
        if generation == 0:
            return 0, None
        return generation, _read_json(self._lease_path(job_id, generation))

    def lease_info(self, job_id: str) -> dict[str, Any] | None:
        """The current lease record, or ``None`` when unclaimed."""
        _, info = self._newest_lease(job_id)
        return None if info is None or info.get("released") else info

    def lease_is_stale(self, info: Mapping[str, Any], ttl: float) -> bool:
        """Whether a lease record's heartbeat is older than ``ttl``."""
        return (time.time() - float(info.get("heartbeat", 0.0))) > ttl

    def try_claim(self, job_id: str, worker: str, *, ttl: float) -> Lease | None:
        """Attempt to claim the job for ``worker``; ``None`` when someone
        else holds a live lease (or wins the race).

        The claim creates the generation after the newest one this call
        read, which must be released or stale (heartbeat older than
        ``ttl``). Exactly one racer creates it; a racer that read an
        older generation fails to create a generation that exists.
        """
        generation, info = self._newest_lease(job_id)
        if (
            info is not None
            and not info.get("released")
            and not self.lease_is_stale(info, ttl)
        ):
            return None
        token = secrets.token_hex(8)
        now = time.time()
        created = _link_exclusive(
            self._lease_path(job_id, generation + 1),
            {
                "worker": worker,
                "token": token,
                "heartbeat": now,
                "claimed_at": now,
            },
        )
        if not created:
            return None
        return Lease(
            job_id=job_id, worker=worker, token=token, generation=generation + 1
        )

    def heartbeat(self, lease: Lease) -> None:
        """Refresh the lease's heartbeat; raises :class:`LeaseLostError`
        when a later generation (a takeover or the release) exists."""
        path = self._lease_path(lease.job_id, lease.generation)
        successor = self._lease_path(lease.job_id, lease.generation + 1)
        info = _read_json(path)
        if successor.exists() or info is None or info.get("token") != lease.token:
            raise LeaseLostError(
                f"lease on {lease.job_id} no longer belongs to "
                f"{lease.worker}"
            )
        info["heartbeat"] = time.time()
        write_atomic(path, json.dumps(info))
        # A takeover that read the old heartbeat may have landed while
        # this one was written; the loser must find out here.
        if successor.exists():
            raise LeaseLostError(
                f"lease on {lease.job_id} was taken over during refresh"
            )

    def release(self, lease: Lease) -> None:
        """Drop the lease (after the final state write) by creating the
        next generation as a release record. A lease already taken over
        is left alone."""
        _link_exclusive(
            self._lease_path(lease.job_id, lease.generation + 1),
            {"worker": lease.worker, "token": lease.token, "released": True},
        )

    # -- tallies ----------------------------------------------------------
    def counts(self) -> dict[str, int]:
        """Job tally by outer status (scans every job — ops/debugging)."""
        tally: dict[str, int] = {}
        for _, state in self.states():
            status = state.get("status", "queued")
            tally[status] = tally.get(status, 0) + 1
        return tally
