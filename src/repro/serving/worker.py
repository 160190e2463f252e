"""The worker process: lease jobs off the board, run them to the end.

A worker is a plain loop over :class:`~repro.serving.board.JobBoard`:
scan for claimable jobs, :meth:`~repro.serving.board.JobBoard.try_claim`
one, run the audit inside a private per-job
:class:`~repro.service.AuditService` with its own
:class:`~repro.service.DirectoryJobStore`, heartbeat the lease while
stepping, and write the final state record before releasing.

Crash safety is entirely structural — a worker holds no state another
process cannot reconstruct:

* the job's answers are checkpointed every ``checkpoint_every``
  scheduler rounds (1 by default for serving), so a SIGKILL at any
  instruction loses at most the answers of the current in-flight round;
* the lease's heartbeat goes stale after the TTL, at which point any
  other worker takes the job over with
  :meth:`~repro.service.AuditService.resume` — recorded answers replay
  for free, so nothing already paid for is re-asked;
* per-job seeds are recorded at first claim (derived from the
  submission hash when the client didn't pick one), so rng-dependent
  audits re-draw identical samples whoever finishes them.

Run one from the command line against a shared serving root::

    python -m repro.serving.worker --root /var/run/audits

or in-process (tests, notebooks) via :func:`run_worker` with a
``stop_event``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Any, TextIO

import numpy as np

from repro.audit.serialization import set_answer_to_dict
from repro.crowd.oracle import scan_asked, scan_segments
from repro.engine.requests import set_query_key
from repro.errors import InvalidParameterError, JobFailedError, ReproError
from repro.service import AuditService, DirectoryJobStore
from repro.serving.board import (
    TERMINAL_STATUSES,
    JobBoard,
    Lease,
    LeaseLostError,
)
from repro.serving.config import ServingConfig, load_serving_config
from repro.serving.protocol import Submission

__all__ = ["run_worker", "QueryLoggingOracle"]


class QueryLoggingOracle:
    """Transparent oracle wrapper that logs every *paid* query.

    Sits between the replay proxy and the real oracle, so replayed
    (already checkpointed) answers never reach it, and writes each line
    only after the real oracle has charged the query — every line in the
    log is a query that was actually charged to the crowd in this
    process, even when the budget runs out. The chaos suite uses this to
    prove a resumed worker re-asks **nothing** that was durable before
    the kill.

    Each log line is one JSON object: set queries in the same shape as
    checkpointed set answers (``predicate`` + ``run``/``indices``),
    point queries as ``{"kind": "point", "index": i}`` — one line per
    query a :meth:`scan_sets` or object a :meth:`scan_points` charged,
    in order.

    Examples
    --------
    >>> import io
    >>> import numpy as np
    >>> from repro.crowd.oracle import GroundTruthOracle
    >>> from repro.data.groups import group
    >>> from repro.data.synthetic import binary_dataset
    >>> dataset = binary_dataset(50, 5, rng=np.random.default_rng(0))
    >>> log = io.StringIO()
    >>> oracle = QueryLoggingOracle(GroundTruthOracle(dataset), log)
    >>> _ = oracle.ask_set(np.arange(10), group(gender="female"))
    >>> json.loads(log.getvalue())["kind"]
    'set'
    """

    def __init__(self, inner, log: TextIO) -> None:
        self._inner = inner
        self._log = log

    def _write(self, entries) -> None:
        self._log.write("".join(json.dumps(entry) + "\n" for entry in entries))
        self._log.flush()

    @staticmethod
    def _set_entry(indices, predicate, key) -> dict[str, Any]:
        if key is None:
            key = set_query_key(indices, predicate)
        entry = set_answer_to_dict(key[0], key[1], True)
        entry.pop("answer", None)
        entry["kind"] = "set"
        return entry

    def _write_points(self, indices) -> None:
        self._write({"kind": "point", "index": int(index)} for index in indices)

    def ask_set(self, indices, predicate, *, key=None) -> bool:
        """Forward one set query to the real oracle, logging it."""
        answer = self._inner.ask_set(indices, predicate, key=key)
        self._write([self._set_entry(indices, predicate, key)])
        return answer

    def ask_set_batch(self, queries, *, keys=None) -> list:
        """Forward a set-query batch, logging every member."""
        answers = self._inner.ask_set_batch(queries, keys=keys)
        self._write(
            self._set_entry(indices, predicate, None if keys is None else keys[position])
            for position, (indices, predicate) in enumerate(queries)
        )
        return answers

    def ask_point(self, index: int) -> dict[str, str]:
        """Forward one point query, logging it."""
        labels = self._inner.ask_point(index)
        self._write_points([index])
        return labels

    def ask_point_batch(self, indices) -> list:
        """Forward a point-query batch, logging every member."""
        rows = self._inner.ask_point_batch(indices)
        self._write_points(indices)
        return rows

    def scan_points(self, indices, predicate, tau):
        """Forward a point scan, logging every object it charged."""
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        codes = self._inner.scan_points(indices, predicate, tau)
        self._write_points(indices[: len(codes)].tolist())
        return codes

    def scan_sets(self, view, starts, stops, predicate, need, *, paired=False, ascending=None):
        """Forward a set scan, logging every query it charged, in order."""
        view, starts, stops = scan_segments(view, starts, stops, need, paired)
        answers = self._inner.scan_sets(
            view, starts, stops, predicate, need, paired=paired, ascending=ascending
        )
        asked = np.flatnonzero(scan_asked(answers, paired))
        self._write(
            self._set_entry(view[start:stop], predicate, None)
            for start, stop in zip(starts[asked].tolist(), stops[asked].tolist())
        )
        return answers

    def ask_point_membership(self, index: int, predicate) -> bool:
        """A point query phrased as membership, logged as the point
        query it is paid as."""
        return predicate.matches_row(self.ask_point(index))

    def __getattr__(self, name: str):
        return getattr(self._inner, name)


def _derived_seed(submission: Submission) -> int:
    """The seed a seedless submission audits under — a pure function of
    the idempotency digest, so every worker (first claimer or any
    re-claimer before the first checkpoint landed) derives the same
    one."""
    return int(submission.digest[:12], 16)


def _mirror_events(
    state: dict[str, Any],
    events,
    mirrored: int,
    worker: str,
    baseline: int,
) -> int:
    """Append inner service events past ``mirrored`` to the outer state
    record; returns the new high-water mark."""
    for event in events[mirrored:]:
        state["events"].append(
            {
                "stage": event.stage,
                "detail": event.detail,
                "tasks": baseline + event.tasks,
                "worker": worker,
            }
        )
    return len(events)


def _run_leased_job(
    board: JobBoard,
    config: ServingConfig,
    lease: Lease,
    *,
    stop_event: threading.Event | None,
    query_log: TextIO | None,
) -> str | None:
    """Run one claimed job to a terminal state; returns the final outer
    status, or ``None`` when the run was abandoned (lease lost, stop
    requested) and the job is left for another worker."""
    job_id = lease.job_id
    submission = board.read_submission(job_id)
    if submission is None:
        board.release(lease)
        return None  # raced a submitter mid-creation; retry next scan
    state = board.read_state(job_id)
    if state["status"] in TERMINAL_STATUSES:
        board.release(lease)
        return state["status"]

    oracle = config.build_oracle()
    if query_log is not None:
        oracle = QueryLoggingOracle(oracle, query_log)
    store = DirectoryJobStore(board.job_dir(job_id) / "store")
    resumed = store.load_answers() is not None
    if resumed:
        service = AuditService.resume(
            store, oracle, checkpoint_every=config.checkpoint_every
        )
    else:
        service = AuditService(
            oracle,
            batch_size=config.batch_size,
            speculation=config.speculation,
            job_store=store,
            checkpoint_every=config.checkpoint_every,
        )
        seed = submission.seed
        service.submit(
            submission.spec(),
            tenant=submission.tenant,
            priority=submission.priority,
            seed=seed if seed is not None else _derived_seed(submission),
        )
        # Make the submission durable before any query is paid for:
        # from here on, every claimer resumes instead of re-submitting.
        service.checkpoint()
    handle = service.jobs()[0]
    mirrored = len(handle.events())
    baseline = service.tasks_paid  # paid before this claim

    state["worker"] = lease.worker
    state["status"] = "running" if not handle.status.terminal else state["status"]
    state["events"].append(
        {
            "stage": "resumed" if resumed else "claimed",
            "detail": f"worker={lease.worker}",
            "tasks": baseline,
            "worker": lease.worker,
        }
    )
    board.write_state(job_id, state)

    heartbeat_period = config.lease_ttl_seconds / 3.0
    last_beat = time.time()
    try:
        while not handle.status.terminal:
            if stop_event is not None and stop_event.is_set():
                service.checkpoint()
                service.close()
                board.release(lease)
                return None
            if board.cancel_requested(job_id):
                handle.cancel()
                if handle.status.terminal:
                    break
            service.step()
            now = time.time()
            if now - last_beat >= heartbeat_period:
                board.heartbeat(lease)
                last_beat = now
                mirrored = _mirror_events(
                    state, handle.events(), mirrored, lease.worker, baseline
                )
                state["tasks_paid"] = service.tasks_paid
                board.write_state(job_id, state)
            if config.step_delay_seconds:
                time.sleep(config.step_delay_seconds)
    except LeaseLostError:
        # The job belongs to someone else now; stop touching its state.
        service.close()
        return None

    service.checkpoint()
    status = handle.status.value
    result = None
    error = None
    if status == "succeeded":
        result = handle.result(drain=False).to_dict()
    elif status == "failed":
        try:
            handle.result(drain=False)
        except JobFailedError as failure:
            error = str(failure)
    mirrored = _mirror_events(
        state, handle.events(), mirrored, lease.worker, baseline
    )
    state["status"] = status
    state["result"] = result
    state["error"] = error
    state["tasks_paid"] = service.tasks_paid
    board.write_state(job_id, state)
    board.release(lease)
    service.close()
    return status


def run_worker(
    root: str | os.PathLike,
    worker_id: str | None = None,
    *,
    max_jobs: int | None = None,
    stop_event: threading.Event | None = None,
    poll_interval: float = 0.05,
    idle_timeout: float | None = None,
    query_log: TextIO | None = None,
) -> int:
    """Serve jobs from ``root`` until stopped; returns jobs finished.

    The loop scans the board for claimable jobs (no live lease, not
    terminal), claims them one at a time, and runs each to completion.
    Scan order is a per-worker hash shuffle, so a pool of workers
    spreads claim attempts instead of stampeding the same directory.

    Stops when ``max_jobs`` jobs have finished, when ``stop_event`` is
    set, or when the board has offered no claimable work for
    ``idle_timeout`` seconds (``None`` = serve forever).

    Examples
    --------
    >>> import tempfile
    >>> from repro.audit import GroupAuditSpec
    >>> from repro.data.groups import group
    >>> from repro.serving.board import JobBoard
    >>> from repro.serving.config import ServingConfig, init_serving_root
    >>> root = init_serving_root(tempfile.mkdtemp(), ServingConfig(
    ...     recipe={"kind": "synthetic-binary", "n": 100,
    ...             "n_minority": 20, "dataset_seed": 0}))
    >>> board = JobBoard(root)
    >>> spec = GroupAuditSpec(predicate=group(gender="female"), tau=10)
    >>> job_id, _ = board.submit(Submission.from_spec(spec, tenant="t"))
    >>> run_worker(root, "w-doc", max_jobs=1, idle_timeout=0.2)
    1
    >>> board.read_state(job_id)["status"]
    'succeeded'
    """
    root = Path(root)
    config = load_serving_config(root)
    board = JobBoard(root)
    if worker_id is None:
        worker_id = f"worker-{os.getpid()}"
    completed = 0
    known_terminal: set[str] = set()
    idle_since = time.time()
    while True:
        if max_jobs is not None and completed >= max_jobs:
            break
        if stop_event is not None and stop_event.is_set():
            break
        claimed_any = False
        candidates = [
            job_id for job_id in board.job_ids() if job_id not in known_terminal
        ]
        # Per-worker shuffle: workers walk the board in different orders.
        candidates.sort(
            key=lambda job_id: hashlib.sha256(
                (job_id + worker_id).encode("utf-8")
            ).hexdigest()
        )
        for job_id in candidates:
            if stop_event is not None and stop_event.is_set():
                break
            if max_jobs is not None and completed >= max_jobs:
                break
            try:
                status = board.read_state(job_id).get("status")
            except InvalidParameterError:
                continue  # directory exists, submit.json still in flight
            if status in TERMINAL_STATUSES:
                known_terminal.add(job_id)
                continue
            info = board.lease_info(job_id)
            if info is not None and not board.lease_is_stale(
                info, config.lease_ttl_seconds
            ):
                continue
            lease = board.try_claim(
                job_id, worker_id, ttl=config.lease_ttl_seconds
            )
            if lease is None:
                continue
            claimed_any = True
            outcome = _run_leased_job(
                board,
                config,
                lease,
                stop_event=stop_event,
                query_log=query_log,
            )
            if outcome is not None:
                completed += 1
                known_terminal.add(job_id)
        if claimed_any:
            idle_since = time.time()
        else:
            if (
                idle_timeout is not None
                and time.time() - idle_since >= idle_timeout
            ):
                break
            time.sleep(poll_interval)
    return completed


def main(argv: list[str] | None = None) -> int:
    """CLI entry point: ``python -m repro.serving.worker --root DIR``.

    Examples
    --------
    >>> parser_help_runs = main  # exercised end-to-end by tests/serving
    >>> callable(parser_help_runs)
    True
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.worker",
        description="Serve audit jobs from a shared serving root.",
    )
    parser.add_argument("--root", required=True, help="serving root directory")
    parser.add_argument(
        "--worker-id", default=None, help="stable worker name (default: pid)"
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after finishing this many jobs",
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many seconds with no claimable work",
    )
    parser.add_argument(
        "--poll-interval",
        type=float,
        default=0.05,
        help="sleep between empty board scans (seconds)",
    )
    parser.add_argument(
        "--query-log",
        default=None,
        help="append every paid query to this NDJSON file (chaos tests)",
    )
    options = parser.parse_args(argv)
    log_handle: TextIO | None = None
    try:
        if options.query_log is not None:
            log_handle = open(options.query_log, "a", encoding="utf-8")
        completed = run_worker(
            options.root,
            options.worker_id,
            max_jobs=options.max_jobs,
            idle_timeout=options.idle_timeout,
            poll_interval=options.poll_interval,
            query_log=log_handle,
        )
    except ReproError as error:
        print(f"worker error: {error}")
        return 1
    finally:
        if log_handle is not None:
            log_handle.close()
    print(f"worker finished {completed} job(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
