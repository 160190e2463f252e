"""Durable job state: the :class:`JobStore` behind service checkpointing.

Crowd answers cost money and audits take wall-clock time, so a crashed
service must come back without losing either. The service persists two
kinds of state:

* **per-job records** — spec, tenant, priority, seed, status, events,
  and (for finished jobs) the full result report;
* **the answer log** — every set/point answer the crowd was paid for,
  shared across jobs (it feeds the recording proxy on resume, which is
  what makes resumed audits re-ask nothing).

Two stores ship: :class:`InMemoryJobStore` (tests, ephemeral services)
and :class:`DirectoryJobStore` (one JSON file per job under ``jobs/``
plus ``answers.json``, written atomically via rename so a crash
mid-checkpoint never corrupts the previous one).
"""

from __future__ import annotations

import json
import os
import secrets
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any

__all__ = ["JobStore", "InMemoryJobStore", "DirectoryJobStore"]


def write_atomic(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` via a scratch file (unique per write,
    removed on failure) and :func:`os.replace`: readers see the old file
    or the new one; two writers never rename each other's scratch."""
    scratch = path.with_name(f"{path.name}.tmp-{os.getpid()}-{secrets.token_hex(4)}")
    try:
        scratch.write_text(text)
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


class JobStore(ABC):
    """Persistence boundary for :class:`~repro.service.AuditService`.

    Implementations must make ``save_job``/``save_answers`` atomic per
    call (the service may crash between calls, never mid-record).

    Examples
    --------
    >>> from repro.service import InMemoryJobStore, JobStore
    >>> store = InMemoryJobStore()              # any JobStore
    >>> isinstance(store, JobStore)
    True
    >>> store.save_job("job-00000", {"version": 1, "seq": 0})
    >>> sorted(store.load_jobs())
    ['job-00000']
    """

    @abstractmethod
    def save_job(self, job_id: str, record: dict[str, Any]) -> None:
        """Persist (create or overwrite) one job's record."""

    @abstractmethod
    def load_jobs(self) -> dict[str, dict[str, Any]]:
        """All persisted job records, keyed by job id."""

    @abstractmethod
    def save_answers(self, payload: dict[str, Any]) -> None:
        """Persist the shared answer log (full snapshot, not a delta)."""

    @abstractmethod
    def load_answers(self) -> dict[str, Any] | None:
        """The last persisted answer log, or ``None`` for a fresh store."""


class InMemoryJobStore(JobStore):
    """Process-local store — checkpoint/resume without a filesystem.

    Useful in tests and for handing state between services in one
    process; contents die with the process.

    Examples
    --------
    >>> store = InMemoryJobStore()
    >>> store.load_answers() is None            # fresh store
    True
    >>> store.save_answers({"version": 1})
    >>> store.load_answers()["version"]
    1
    """

    def __init__(self) -> None:
        self._jobs: dict[str, dict[str, Any]] = {}
        self._answers: dict[str, Any] | None = None

    def save_job(self, job_id: str, record: dict[str, Any]) -> None:
        """Store one job record (JSON round-tripped, so in-memory resume
        exercises exactly the durable path and mutations cannot leak)."""
        self._jobs[job_id] = json.loads(json.dumps(record))

    def load_jobs(self) -> dict[str, dict[str, Any]]:
        """Every stored job record, keyed by job id."""
        return {job_id: dict(record) for job_id, record in self._jobs.items()}

    def save_answers(self, payload: dict[str, Any]) -> None:
        """Replace the shared answer-log snapshot."""
        self._answers = json.loads(json.dumps(payload))

    def load_answers(self) -> dict[str, Any] | None:
        """The last answer-log snapshot, or ``None`` when never saved."""
        return None if self._answers is None else dict(self._answers)


class DirectoryJobStore(JobStore):
    """Filesystem store: ``<root>/jobs/<job_id>.json`` + ``<root>/answers.json``.

    Every write goes through :func:`write_atomic` (a temporary file moved
    into place with :func:`os.replace`), so readers (and the resuming
    service) only ever see complete records.

    Examples
    --------
    >>> import tempfile
    >>> store = DirectoryJobStore(tempfile.mkdtemp())
    >>> store.save_job("job-00000", {"version": 1, "seq": 0})
    >>> store.load_jobs()["job-00000"]["seq"]
    0
    >>> sorted(p.name for p in store.jobs_dir.glob("*.json"))
    ['job-00000.json']
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)

    def save_job(self, job_id: str, record: dict[str, Any]) -> None:
        """Atomically write ``jobs/<job_id>.json``."""
        write_atomic(self.jobs_dir / f"{job_id}.json", json.dumps(record))

    def load_jobs(self) -> dict[str, dict[str, Any]]:
        """Every ``jobs/*.json`` record, keyed by file stem (= job id)."""
        records: dict[str, dict[str, Any]] = {}
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                records[path.stem] = json.loads(path.read_text())
            except FileNotFoundError:
                # Unlinked between the directory scan and the read by a
                # concurrent process; a vanished record is simply absent.
                continue
        return records

    def save_answers(self, payload: dict[str, Any]) -> None:
        """Atomically write ``answers.json`` (a full snapshot)."""
        write_atomic(self.root / "answers.json", json.dumps(payload))

    def load_answers(self) -> dict[str, Any] | None:
        """The persisted answer log, or ``None`` for a fresh directory."""
        # try/except instead of an exists() pre-check: the check-then-read
        # window would race a concurrent process removing the file.
        try:
            return json.loads((self.root / "answers.json").read_text())
        except FileNotFoundError:
            return None
