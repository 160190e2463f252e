"""Chaos conformance: SIGKILL a worker mid-audit, prove nothing is lost.

The acceptance property this file pins (ISSUE 6): a worker killed with
SIGKILL mid-job is re-leased and resumed by another worker, and the
finished job's verdicts, task counts, and rng-derived outputs are
bit-identical to an uninterrupted run — with **zero re-asked paid
queries**: no query durable in the checkpoint at the moment of the kill
is ever sent to the (paid) oracle again.

Two layers:

* a real-OS-process test using :class:`~repro.serving.WorkerPool` and
  ``SIGKILL`` — the worker dies between two arbitrary instructions;
* an in-process variant using a cooperative stop, where the replay
  ledger can be audited exactly (faster, runs everywhere, catches the
  same protocol regressions deterministically).
"""

from __future__ import annotations

import io
import json
import threading
import time

import pytest

from repro.audit import GroupAuditSpec
from repro.audit.serialization import (
    point_answers_from_list,
    set_answers_from_list,
)
from repro.data.groups import group
from repro.service import DirectoryJobStore
from repro.serving import JobBoard, Submission, WorkerPool, run_worker

from .conftest import background_worker, make_root, wait_until

#: Heavy enough that a worker spends seconds on it (batch_size 4 +
#: 10 ms/step), so the SIGKILL always lands mid-audit.
CHAOS_RECIPE = {
    "kind": "synthetic-binary",
    "n": 3000,
    "n_minority": 300,
    "dataset_seed": 3,
}
CHAOS_CONFIG = dict(
    recipe=CHAOS_RECIPE,
    batch_size=4,
    checkpoint_every=1,
    lease_ttl_seconds=1.0,
    step_delay_seconds=0.01,
)
CHAOS_SPEC = GroupAuditSpec(predicate=group(gender="female"), tau=250)
CHAOS_SEED = 77


def chaos_submission() -> Submission:
    return Submission.from_spec(CHAOS_SPEC, tenant="chaos", seed=CHAOS_SEED)


def durable_answers(board: JobBoard, job_id: str):
    """The checkpointed (paid-and-durable) answer keys of a job."""
    payload = DirectoryJobStore(board.job_dir(job_id) / "store").load_answers()
    if payload is None:
        return set(), set()
    set_keys = set(set_answers_from_list(payload.get("set_answers") or []))
    point_keys = set(
        point_answers_from_list(payload.get("point_answers") or [])
    )
    return set_keys, point_keys


def asked_queries(log_text: str):
    """Decode a worker ``--query-log`` into (set key set, point set)."""
    set_asked, point_asked = set(), set()
    for line in log_text.splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        if entry["kind"] == "point":
            point_asked.add(int(entry["index"]))
        else:
            record = dict(entry)
            record["answer"] = True  # codec needs the field; key ignores it
            set_asked.add(next(iter(set_answers_from_list([record]))))
    return set_asked, point_asked


def scrubbed_report(state: dict) -> list[dict]:
    """Report entries with per-run accounting removed: what must be
    bit-identical across interrupted and uninterrupted runs."""
    entries = []
    for entry in state["result"]["entries"]:
        result = dict(entry["result"])
        result.pop("tasks", None)
        result.pop("engine_stats", None)
        entries.append({"spec": entry["spec"], "result": result})
    return entries


def reference_state(tmp_path) -> dict:
    """One uninterrupted run of the chaos job on its own root."""
    root = make_root(tmp_path, name="reference", **CHAOS_CONFIG)
    board = JobBoard(root)
    job_id, _ = board.submit(chaos_submission())
    with background_worker(root, "uninterrupted"):
        wait_until(
            lambda: board.read_state(job_id)["status"] == "succeeded",
            timeout=120,
            message="reference run to finish",
        )
    return board.read_state(job_id)


class TestKillResume:
    @pytest.mark.slow
    def test_sigkill_mid_audit_resumes_bit_identical(self, tmp_path):
        reference = reference_state(tmp_path)
        assert reference["tasks_paid"] > 60, "chaos job too small to test"

        root = make_root(tmp_path, name="chaos", **CHAOS_CONFIG)
        board = JobBoard(root)
        job_id, _ = board.submit(chaos_submission())
        query_log = tmp_path / "phase2-queries.ndjson"

        with WorkerPool(root, n_workers=1) as pool:
            # Let the doomed worker make real, durable progress.
            wait_until(
                lambda: len(durable_answers(board, job_id)[0]) >= 30,
                timeout=60,
                message="victim worker to checkpoint progress",
            )
            assert board.read_state(job_id)["status"] == "running"
            killed = pool.kill_one()
            assert killed is not None and killed.returncode == -9

            durable_sets, durable_points = durable_answers(board, job_id)
            assert len(durable_sets) < reference["tasks_paid"], (
                "job finished before the kill — not a mid-audit test"
            )

            recovery_started = time.monotonic()
            pool.spawn("--query-log", str(query_log))
            wait_until(
                lambda: board.read_state(job_id)["status"] == "succeeded",
                timeout=120,
                message="job to be re-leased and finished",
            )
            recovery_seconds = time.monotonic() - recovery_started

        state = board.read_state(job_id)
        # 1. Verdicts (and rng-derived outputs) bit-identical.
        assert scrubbed_report(state) == scrubbed_report(reference)
        # 2. Task counts bit-identical: durable spend at the kill plus
        #    the resumed worker's fresh spend equals the uninterrupted
        #    bill — nothing double-charged, nothing dropped.
        assert state["tasks_paid"] == reference["tasks_paid"]
        # 3. Zero re-asked paid queries: nothing durable at the kill was
        #    ever asked again by the resumed worker.
        asked_sets, asked_points = asked_queries(query_log.read_text())
        assert not (durable_sets & asked_sets)
        assert not (durable_points & asked_points)
        assert len(durable_sets) + len(asked_sets) >= reference["tasks_paid"]
        # 4. The takeover is visible in the audit trail and prompt.
        stages = [event["stage"] for event in state["events"]]
        assert "resumed" in stages
        assert state["worker"] == "pool-w1"
        assert recovery_seconds < 60

    def test_cooperative_handoff_reasks_nothing(self, tmp_path):
        """In-process twin: worker A stops gracefully mid-job, worker B
        finishes it. Exact zero-re-ask accounting via the query log."""
        reference = reference_state(tmp_path)

        root = make_root(tmp_path, name="handoff", **CHAOS_CONFIG)
        board = JobBoard(root)
        job_id, _ = board.submit(chaos_submission())

        stop = threading.Event()
        first = threading.Thread(
            target=run_worker,
            args=(root, "walk-away"),
            kwargs={"stop_event": stop, "poll_interval": 0.01},
            daemon=True,
        )
        first.start()
        wait_until(
            lambda: len(durable_answers(board, job_id)[0]) >= 30,
            timeout=60,
            message="first worker to checkpoint progress",
        )
        stop.set()
        first.join(timeout=30)
        assert not first.is_alive()

        durable_sets, durable_points = durable_answers(board, job_id)
        log = io.StringIO()
        with background_worker(root, "finisher", query_log=log):
            wait_until(
                lambda: board.read_state(job_id)["status"] == "succeeded",
                timeout=120,
                message="second worker to finish the job",
            )

        state = board.read_state(job_id)
        assert scrubbed_report(state) == scrubbed_report(reference)
        assert state["tasks_paid"] == reference["tasks_paid"]
        asked_sets, asked_points = asked_queries(log.getvalue())
        assert not (durable_sets & asked_sets)
        assert not (durable_points & asked_points)

    def test_seedless_submission_is_reproducible_across_workers(
        self, tmp_path
    ):
        """A submission without a seed derives one from its idempotency
        digest, so *any* worker (first claim or post-crash re-claim)
        runs the same rng stream: two independent deployments must
        produce byte-identical results."""
        states = []
        for name in ("alpha", "beta"):
            root = make_root(tmp_path, name=name, **CHAOS_CONFIG)
            board = JobBoard(root)
            submission = Submission.from_spec(CHAOS_SPEC, tenant="chaos")
            assert submission.seed is None
            job_id, _ = board.submit(submission)
            with background_worker(root, f"worker-{name}"):
                wait_until(
                    lambda: board.read_state(job_id)["status"] == "succeeded",
                    timeout=120,
                    message=f"{name} run to finish",
                )
            states.append(board.read_state(job_id))
        assert scrubbed_report(states[0]) == scrubbed_report(states[1])
        assert states[0]["tasks_paid"] == states[1]["tasks_paid"]
