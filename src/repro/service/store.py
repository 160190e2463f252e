"""Durable job state: the :class:`JobStore` behind service checkpointing.

Crowd answers cost money and audits take wall-clock time, so a crashed
service must come back without losing either. The service persists two
kinds of state:

* **per-job records** — spec, tenant, priority, seed, status, events,
  and (for finished jobs) the full result report;
* **the answer log** — every set/point answer the crowd was paid for,
  shared across jobs (it feeds the recording proxy on resume, which is
  what makes resumed audits re-ask nothing).

A store takes both as a sequence of frames and reads back their
**fold** (:class:`JournalFold`): a job's record is the last one saved;
the answer log is the last one saved, except that its ``set_answers``
and ``point_answers`` sections hold every entry any saved log held, in
first-seen order, each with its latest answer. A checkpoint therefore
saves only the entries recorded since the previous one.

Two stores ship: :class:`InMemoryJobStore` (tests, ephemeral services)
and :class:`DirectoryJobStore`, an append-only journal of CRC-framed
JSON frames, written under a lock file and compacted to one frame once
it is more than half stale, so a crash mid-checkpoint never corrupts an
earlier one.
"""

from __future__ import annotations

import fcntl
import json
import os
import secrets
import struct
import zlib
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator

__all__ = ["JobStore", "JournalFold", "InMemoryJobStore", "DirectoryJobStore"]

#: Answer-log sections whose entries accumulate across frames, and the
#: field of an entry that holds its answer (the rest is its key).
_ENTRY_SECTIONS = {"set_answers": "answer", "point_answers": "labels"}

#: A journal frame's head: the body's length and CRC32, little-endian.
_HEAD = struct.Struct("<II")


def write_atomic(path: Path, data: str | bytes) -> None:
    """Publish ``data`` at ``path`` via a scratch file (unique per write,
    removed on failure) and :func:`os.replace`: readers see the old file
    or the new one; two writers never rename each other's scratch."""
    scratch = path.with_name(f"{path.name}.tmp-{os.getpid()}-{secrets.token_hex(4)}")
    try:
        if isinstance(data, bytes):
            scratch.write_bytes(data)
        else:
            scratch.write_text(data)
        os.replace(scratch, path)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise


def _entry_key(entry: Any, answer_field: str) -> str:
    """What identifies a log entry across frames: all but its answer."""
    if isinstance(entry, dict):
        entry = {key: value for key, value in entry.items() if key != answer_field}
    return json.dumps(entry, sort_keys=True)


class JournalFold:
    """The state a sequence of store frames describes.

    A frame is a dict with an ``"answers"`` log, a ``"jobs"`` map of job
    id to record, or both. Job records and every answer-log field take
    the last frame's value, exactly as written, except the entries of
    ``set_answers`` and ``point_answers``: the union over all frames in
    first-seen order, where an entry seen again takes its latest answer.
    A section missing from the last log is missing from the fold.

    >>> fold = JournalFold()
    >>> fold.add({"answers": {"version": 2, "point_answers": [
    ...     {"index": 4, "labels": {"g": "a"}}]}})
    >>> fold.add({"answers": {"version": 2, "point_answers": [
    ...     {"index": 1, "labels": {"g": "b"}}, {"index": 4, "labels": {"g": "c"}}]}})
    >>> [entry["labels"]["g"] for entry in fold.answer_log()["point_answers"]]
    ['c', 'b']
    """

    def __init__(self) -> None:
        self.answers: dict[str, Any] | None = None
        self.jobs: dict[str, dict[str, Any]] = {}
        self._entries: dict[str, dict[str, Any]] = {section: {} for section in _ENTRY_SECTIONS}

    def add(self, frame: dict[str, Any]) -> None:
        """Fold one more frame in."""
        answers = frame.get("answers")
        if answers is not None:
            self.answers = answers
            for section, answer_field in _ENTRY_SECTIONS.items():
                held = self._entries[section]
                for entry in answers.get(section) or ():
                    held[_entry_key(entry, answer_field)] = entry
        self.jobs.update(frame.get("jobs", ()))

    def answer_log(self) -> dict[str, Any] | None:
        """The folded answer log, or ``None`` when no frame held one."""
        if self.answers is None:
            return None
        return {
            key: list(self._entries[key].values()) if key in self._entries else value
            for key, value in self.answers.items()
        }

    def frame(self) -> dict[str, Any]:
        """The whole folded state as one frame."""
        answers = self.answer_log()
        return {"jobs": self.jobs} if answers is None else {"answers": answers, "jobs": self.jobs}


class JobStore(ABC):
    """Persistence boundary for :class:`~repro.service.AuditService`.

    Implementations must make ``save_job``/``save_answers`` atomic per
    call (the service may crash between calls, never mid-record), and
    read back the :class:`JournalFold` of everything saved: so a saved
    answer log may carry only the entries the store does not hold yet.

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
        """Persist an answer log, folded onto the ones saved before: its
        fields replace theirs, its entries join theirs."""

    @abstractmethod
    def load_answers(self) -> dict[str, Any] | None:
        """The folded answer log, or ``None`` for a fresh store."""


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
        self._fold = JournalFold()

    def save_job(self, job_id: str, record: dict[str, Any]) -> None:
        """Fold in one job record (JSON round-tripped, so in-memory
        resume exercises exactly the durable path and mutations cannot
        leak)."""
        self._fold.add({"jobs": {job_id: json.loads(json.dumps(record))}})

    def load_jobs(self) -> dict[str, dict[str, Any]]:
        """Every stored job record, keyed by job id."""
        return {job_id: dict(record) for job_id, record in self._fold.jobs.items()}

    def save_answers(self, payload: dict[str, Any]) -> None:
        """Fold in one answer log (JSON round-tripped)."""
        self._fold.add({"answers": json.loads(json.dumps(payload))})

    def load_answers(self) -> dict[str, Any] | None:
        """The folded answer log, or ``None`` when never saved."""
        return self._fold.answer_log()


def _frames(data: bytes) -> tuple[list[bytes], int]:
    """The bodies of the frames that open ``data`` and verify, and the
    offset where they end: a torn or corrupt frame ends the journal."""
    bodies: list[bytes] = []
    offset = 0
    while offset + _HEAD.size <= len(data):
        length, crc = _HEAD.unpack_from(data, offset)
        body = data[offset + _HEAD.size : offset + _HEAD.size + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        bodies.append(body)
        offset += _HEAD.size + length
    return bodies, offset


def _frame(body: str) -> bytes:
    data = body.encode()
    return _HEAD.pack(len(data), zlib.crc32(data)) + data


class DirectoryJobStore(JobStore):
    """Filesystem store: one append-only journal, ``<root>/journal``.

    Each ``save_*`` call appends one frame — ``<u32 length><u32 crc32>``
    and a JSON body — with one write on an ``O_APPEND`` descriptor while
    holding an exclusive :func:`fcntl.flock` on ``<root>/journal.lock``
    (a file never replaced). Readers fold the frames that verify, so
    they see every complete call and none half-written; a writer first
    truncates a torn tail, which only a writer that died mid-append can
    leave. A record equal to the last one this store saved appends
    nothing. Once the records and answer-log fields that later frames
    supersede make up more than half the journal, it is rewritten as one
    frame of its fold via :func:`write_atomic`.

    A directory written by earlier builds (``answers.json`` and
    ``jobs/<job_id>.json``) reads as that snapshot with the journal
    folded on top; those files are never written again.

    No write is fsynced: the journal survives a process crash, not a
    power loss.

    Examples
    --------
    >>> import tempfile
    >>> store = DirectoryJobStore(tempfile.mkdtemp())
    >>> store.save_job("job-00000", {"version": 1, "seq": 0})
    >>> store.load_jobs()["job-00000"]["seq"]
    0
    >>> sorted(path.name for path in store.root.iterdir())
    ['journal', 'journal.lock']
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.journal = self.root / "journal"
        self._lock_path = self.root / "journal.lock"
        #: the last record text of each job and the last answer-log body
        #: this store appended, and the bytes of that log's frame the next
        #: one supersedes (all but its entries)
        self._saved_jobs: dict[str, str] = {}
        self._saved_answers: str | None = None
        self._saved_fields = 0
        #: the journal as this store last left it: (inode, end of its
        #: verified frames)
        self._tail: tuple[int, int] | None = None
        #: journal bytes that frames this store appended since the last
        #: compaction supersede: earlier job records and answer-log fields
        self._stale = 0

    def save_job(self, job_id: str, record: dict[str, Any]) -> None:
        """Append ``record`` as ``job_id``'s record, unless it equals the
        last one this store saved for it."""
        text = json.dumps(record)
        saved = self._saved_jobs.get(job_id)
        if saved != text:
            body = f'{{"jobs": {{{json.dumps(job_id)}: {text}}}}}'
            # The frame of the record this one replaces goes stale.
            stale = 0 if saved is None else _HEAD.size + len(body) - len(text) + len(saved)
            self._append(body, stale)
            self._saved_jobs[job_id] = text

    def load_jobs(self) -> dict[str, dict[str, Any]]:
        """Every folded job record, keyed by job id."""
        return self._fold().jobs

    def save_answers(self, payload: dict[str, Any]) -> None:
        """Append ``payload`` as an answer log, unless it equals the last
        one this store saved."""
        # Encoded field by field, to the text json.dumps gives the whole,
        # so that the entries' share of the frame is known.
        texts = [(key, json.dumps(value)) for key, value in payload.items()]
        body = '{"answers": {%s}}' % ", ".join(f"{json.dumps(key)}: {text}" for key, text in texts)
        if body != self._saved_answers:
            self._append(body, self._saved_fields)
            self._saved_answers = body
            # All of this frame but its entries goes stale with the next log.
            self._saved_fields = _HEAD.size + len(body) - sum(
                len(text) for key, text in texts if key in _ENTRY_SECTIONS
            )

    def load_answers(self) -> dict[str, Any] | None:
        """The folded answer log, or ``None`` for a fresh directory."""
        return self._fold().answer_log()

    # -- the journal ------------------------------------------------------
    def _fold(self) -> JournalFold:
        """The legacy snapshot, if any, with the journal folded on top."""
        fold = JournalFold()
        jobs: dict[str, dict[str, Any]] = {}
        for path in sorted((self.root / "jobs").glob("*.json")):
            try:
                jobs[path.stem] = json.loads(path.read_text())
            except FileNotFoundError:
                continue  # unlinked between the scan and the read
        fold.add({"jobs": jobs})
        try:
            fold.add({"answers": json.loads((self.root / "answers.json").read_text())})
        except FileNotFoundError:
            pass
        try:
            data = self.journal.read_bytes()
        except FileNotFoundError:
            data = b""
        for body in _frames(data)[0]:
            fold.add(json.loads(body))
        return fold

    @contextmanager
    def _locked(self) -> Iterator[None]:
        descriptor = os.open(self._lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(descriptor, fcntl.LOCK_EX)
            yield
        finally:
            os.close(descriptor)  # releases the lock

    def _append(self, body: str, supersedes: int) -> None:
        """Append one frame of ``body``, which supersedes ``supersedes``
        bytes of earlier frames, and compact once the journal is more
        stale than live."""
        frame = _frame(body)
        with self._locked():
            descriptor = os.open(self.journal, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                inode, end = self._verified_tail(descriptor)
                view = memoryview(frame)
                while view:
                    view = view[os.write(descriptor, view) :]
            finally:
                os.close(descriptor)
            self._tail = (inode, end + len(frame))
            self._stale += supersedes
            if 2 * self._stale > end + len(frame):
                self._compact()

    def _verified_tail(self, descriptor: int) -> tuple[int, int]:
        """The journal's inode and the end of its verified frames,
        cutting off a torn tail (under the lock).

        Frames this store saw verify already: only what others appended
        since is read, unless that does not verify, when the cut is
        decided by reading the whole journal."""
        stat = os.fstat(descriptor)
        tail = self._tail
        fresh = tail is None or tail[0] != stat.st_ino or tail[1] > stat.st_size
        start = 0 if fresh else tail[1]
        end = start + _frames(os.pread(descriptor, stat.st_size - start, start))[1]
        if end < stat.st_size and start:
            end = _frames(os.pread(descriptor, stat.st_size, 0))[1]
        if end < stat.st_size:
            os.ftruncate(descriptor, end)
        return stat.st_ino, end

    def _compact(self) -> None:
        """Rewrite the journal as one frame of its fold (under the lock)."""
        frame = _frame(json.dumps(self._fold().frame()))
        write_atomic(self.journal, frame)
        self._tail = (os.stat(self.journal).st_ino, len(frame))
        self._stale = 0
