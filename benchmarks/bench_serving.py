"""Serving benchmark: gateway throughput, job latency, kill recovery.

Drives the full network path — HTTP submits from many simulated
tenants through :class:`~repro.serving.ServingGateway`, real worker
subprocesses leasing off the shared root — and measures what the
serving layer costs and survives:

* **jobs/sec** — completed audits per wall-clock second, submit of the
  first job to completion of the last;
* **submit→result latency** — per-job wall time from the HTTP submit
  to the job's terminal state on the board (p50/p99; includes queueing,
  so the tail reflects real multi-tenant contention, not just compute);
* **recovery_seconds** — SIGKILL a worker mid-audit on a separate
  slow-audit root and time from the kill until a replacement worker has
  taken over the lease and finished the job from checkpoint.

Two scenarios share one output file (``BENCH_serving.json``): ``full``
(1000 jobs, 16 tenants, 4 workers — the committed baseline) and
``smoke`` (64 jobs, 8 tenants, 2 workers — what CI re-runs and gates
with ``tools/check_bench_regression.py``). Run::

    PYTHONPATH=src python benchmarks/bench_serving.py --scenario all
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.audit import GroupAuditSpec
from repro.data.groups import group
from repro.service import DirectoryJobStore
from repro.serving import (
    JobBoard,
    ServingClient,
    ServingConfig,
    ServingGateway,
    Submission,
    TERMINAL_STATUSES,
    WorkerPool,
    init_serving_root,
)

RECIPE = {
    "kind": "synthetic-binary",
    "n": 400,
    "n_minority": 60,
    "dataset_seed": 7,
}

#: Slow-audit root for the kill/recovery measurement: small batches and
#: a per-step delay keep the victim mid-job for seconds.
RECOVERY_CONFIG = dict(
    recipe={
        "kind": "synthetic-binary",
        "n": 3000,
        "n_minority": 300,
        "dataset_seed": 3,
    },
    batch_size=4,
    lease_ttl_seconds=1.0,
    step_delay_seconds=0.01,
)

SCENARIOS = {
    "smoke": {"n_jobs": 64, "n_tenants": 8, "n_workers": 2},
    "full": {"n_jobs": 1000, "n_tenants": 16, "n_workers": 4},
}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (values need not be sorted)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def job_spec(position: int) -> GroupAuditSpec:
    """Distinct spec per job (tau varies → distinct idempotency hash)."""
    return GroupAuditSpec(
        predicate=group(gender="female" if position % 2 else "male"),
        tau=10 + (position % 40),
    )


def run_scenario(name: str, *, n_jobs: int, n_tenants: int, n_workers: int) -> dict:
    root = init_serving_root(
        Path(tempfile.mkdtemp(prefix=f"bench-serving-{name}-")),
        ServingConfig(recipe=RECIPE),
    )
    board = JobBoard(root)
    submitted_at: dict[str, float] = {}
    finished_at: dict[str, float] = {}

    with ServingGateway(root) as gateway, WorkerPool(
        root, n_workers=n_workers
    ):
        client = ServingClient("127.0.0.1", gateway.port)
        started = time.perf_counter()

        def submit(position: int) -> str:
            record = client.submit(
                job_spec(position),
                tenant=f"tenant-{position % n_tenants:02d}",
                seed=position,
            )
            submitted_at[record["job_id"]] = time.perf_counter()
            return record["job_id"]

        with ThreadPoolExecutor(max_workers=min(16, n_tenants)) as pool:
            job_ids = list(pool.map(submit, range(n_jobs)))
        assert len(set(job_ids)) == n_jobs, "job ids collided"
        submit_seconds = time.perf_counter() - started

        pending = set(job_ids)
        total_tasks = 0
        deadline = time.monotonic() + max(120.0, 0.6 * n_jobs)
        while pending:
            if time.monotonic() > deadline:
                raise RuntimeError(
                    f"{len(pending)} of {n_jobs} jobs unfinished at deadline"
                )
            for job_id in list(pending):
                state = board.read_state(job_id)
                if state["status"] in TERMINAL_STATUSES:
                    finished_at[job_id] = time.perf_counter()
                    pending.discard(job_id)
                    total_tasks += state["tasks_paid"]
                    assert state["status"] == "succeeded", state
            time.sleep(0.01)
        wall_seconds = time.perf_counter() - started

    latencies = [finished_at[j] - submitted_at[j] for j in job_ids]
    return {
        "n_jobs": n_jobs,
        "n_tenants": n_tenants,
        "n_workers": n_workers,
        "total_tasks": total_tasks,
        "wall_seconds": wall_seconds,
        "submit_wall_seconds": submit_seconds,
        "submits_per_second": n_jobs / submit_seconds,
        "jobs_per_second": n_jobs / wall_seconds,
        "latency_p50_seconds": percentile(latencies, 50),
        "latency_p99_seconds": percentile(latencies, 99),
    }


def measure_recovery() -> dict:
    """SIGKILL a worker mid-audit; time until a replacement finishes."""
    root = init_serving_root(
        Path(tempfile.mkdtemp(prefix="bench-serving-recovery-")),
        ServingConfig(**RECOVERY_CONFIG),
    )
    board = JobBoard(root)
    spec = GroupAuditSpec(predicate=group(gender="female"), tau=250)
    job_id, _ = board.submit(Submission.from_spec(spec, tenant="victim", seed=1))
    store = DirectoryJobStore(board.job_dir(job_id) / "store")

    def durable_count() -> int:
        payload = store.load_answers()
        return 0 if payload is None else len(payload.get("set_answers") or [])

    with WorkerPool(root, n_workers=1) as pool:
        deadline = time.monotonic() + 60
        while durable_count() < 30:
            if time.monotonic() > deadline:
                raise RuntimeError("victim worker made no durable progress")
            time.sleep(0.02)
        pool.kill_one()
        killed_at = time.perf_counter()
        durable_at_kill = durable_count()
        pool.spawn()
        deadline = time.monotonic() + 120
        while board.read_state(job_id)["status"] not in TERMINAL_STATUSES:
            if time.monotonic() > deadline:
                raise RuntimeError("job never recovered after the kill")
            time.sleep(0.02)
        recovery_seconds = time.perf_counter() - killed_at

    state = board.read_state(job_id)
    assert state["status"] == "succeeded", state
    return {
        "recovery_seconds": recovery_seconds,
        "durable_answers_at_kill": durable_at_kill,
        "tasks_paid": state["tasks_paid"],
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        choices=[*SCENARIOS, "all"],
        default="smoke",
        help="which load shape to run (CI runs smoke; the baseline is all)",
    )
    parser.add_argument(
        "--skip-recovery",
        action="store_true",
        help="skip the worker-kill recovery measurement",
    )
    parser.add_argument("--out", default="BENCH_serving.json")
    args = parser.parse_args()

    names = list(SCENARIOS) if args.scenario == "all" else [args.scenario]
    payload = {"benchmark": "serving gateway + worker pool", "scenarios": {}}
    if Path(args.out).exists():
        # Partial runs (CI smoke) refresh only their scenario.
        try:
            payload = json.loads(Path(args.out).read_text())
        except json.JSONDecodeError:
            pass
    for name in names:
        shape = SCENARIOS[name]
        print(
            f"serving benchmark [{name}]: {shape['n_jobs']} jobs, "
            f"{shape['n_tenants']} tenants, {shape['n_workers']} workers"
        )
        row = run_scenario(name, **shape)
        if not args.skip_recovery:
            row.update(measure_recovery())
        payload["scenarios"][name] = row
        print(
            f"  {row['jobs_per_second']:.1f} jobs/s, "
            f"p50 {row['latency_p50_seconds']:.2f}s, "
            f"p99 {row['latency_p99_seconds']:.2f}s"
            + (
                f", recovery {row['recovery_seconds']:.2f}s"
                if "recovery_seconds" in row
                else ""
            )
        )
    with open(args.out, "w") as sink:
        json.dump(payload, sink, indent=2)
    print(f"  wrote {args.out}")


if __name__ == "__main__":
    main()
