"""Benchmark entry point; see README.md in this directory.

    python3 perfbench/run.py --workload seq-audits --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and audits the program in
``src/``. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

from measure import Meter, peak_rss_mb, percentile
from tracing import Tracer

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent

#: Rounds per pass, whatever --seconds says: setup_s is their median.
MIN_ROUNDS = 5
#: Rounds of the traced pass.
TRACED_ROUNDS = 2
#: No new round starts after this many seconds of the run.
SOFT_LIMIT_S = 120
#: A run still going after this long stops, counts a failure and reports.
HARD_LIMIT_S = 170


class WallClockLimit(BaseException):
    """The run passed HARD_LIMIT_S. A BaseException, so that the per-operation
    handlers, which catch Exception, let it through to the run's."""


def import_program():
    """Put the checkout's ``src/`` first on the path and import the program
    from there, or exit non-zero: the benchmark has nothing to measure."""
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {src / 'repro'}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def run_round(workload, seed: int, tracer=None) -> dict:
    """Set up, time and verify one round; the program's failures land in
    the outcome, the benchmark's own propagate."""
    # Collect the previous round's garbage off the clock, so that a
    # collection it left pending does not land in this round's timings.
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(seed)
    setup_s = time.perf_counter() - started
    try:
        if tracer is not None:
            tracer.reset()
        gc.collect()
        meter = Meter()
        meter.start()
        outcome = workload.timed(state, meter)
        meter.stop()
        workload.verify(state, outcome)
    finally:
        workload.teardown(state)
    record = {"setup_s": setup_s, "meter": meter, "outcome": outcome}
    if tracer is not None:
        record["layers"] = tracer.metrics(outcome, meter.wall_s)
    return record


def run_pass(workload, seed, deadline, *, rounds, seconds, tracer=None):
    """At least ``rounds`` rounds, and more until ``seconds`` of timed work;
    none starts after ``deadline`` once one has finished."""
    records = []
    timed = 0.0
    while len(records) < rounds or timed < seconds:
        if records and time.monotonic() >= deadline:
            break
        records.append(run_round(workload, seed, tracer))
        timed += records[-1]["meter"].wall_s
    return records


def fingerprint(outcome) -> tuple:
    """What must repeat exactly between rounds of one seed."""
    return (outcome.tasks, outcome.round_trips, outcome.ops, tuple(outcome.verdicts))


def summarize(records) -> dict:
    """Medians over rounds; latency percentiles over all rounds' samples."""
    samples = sorted(sample for r in records for sample in r["meter"].local_samples())
    written = [r["meter"].bytes_written for r in records]
    return {
        "setup_s": statistics.median(r["setup_s"] * r["meter"].factor for r in records),
        "wall_ref_s": statistics.median(r["meter"].wall_s * r["meter"].factor for r in records),
        "latency_p50_ref_s": percentile(samples, 50),
        "latency_p90_ref_s": percentile(samples, 90),
        "raw_setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(r["meter"].wall_s for r in records),
        "ref_s": sum(sum(r["meter"].slices) for r in records),
        "latency_samples": len(samples),
        "bytes_written_mb": statistics.median(written) / 2**20,
        "bytes_written_range": max(written) - min(written),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    options = parser.parse_args(argv)

    import_program()
    from workloads import EngineSharded, SeqAudits, ServeCrowd

    scratch = CHECKOUT / ".perfbench-tmp" / str(os.getpid())
    workloads = {
        w.name: w for w in (SeqAudits(), EngineSharded(), ServeCrowd(scratch))
    }
    if options.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}")
    workload = workloads[options.workload]

    def on_alarm(signum, frame):
        raise WallClockLimit(f"run passed its {HARD_LIMIT_S}s wall-clock limit")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(HARD_LIMIT_S)
    deadline = time.monotonic() + SOFT_LIMIT_S
    problems: list[str] = []
    untraced, traced = [], []
    tracer = Tracer()
    try:
        untraced = run_pass(
            workload, options.seed, deadline,
            rounds=MIN_ROUNDS, seconds=options.seconds,
        )
        if options.trace:
            tracer.install()
            try:
                traced = run_pass(
                    workload, options.seed, deadline,
                    rounds=TRACED_ROUNDS, seconds=0,
                    tracer=tracer,
                )
            finally:
                tracer.remove()
    except (Exception, WallClockLimit) as error:  # report the failure, do not die
        problems.append(f"run aborted: {error!r}")
    finally:
        signal.alarm(0)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass  # another run's roots are still there, or it never existed

    records = untraced + traced
    failures = [f for r in records for f in r["outcome"].failures]
    if records:
        expected = fingerprint(records[0]["outcome"])
        for label, rounds in (("an untraced", untraced), ("a traced", traced)):
            if any(fingerprint(r["outcome"]) != expected for r in rounds):
                problems.append(
                    f"{label} round differs from the first round: tasks, "
                    "round-trips, operations or verdicts changed"
                )
    attempted = max(1, sum(r["outcome"].ops for r in records))
    failed = len(failures) + len(problems)

    metrics: dict[str, dict] = {}
    detail: dict[str, object] = {"workload": workload.name, "seed": options.seed}
    if untraced and (traced or not options.trace):
        summary = summarize(untraced)
        outcome = untraced[0]["outcome"]
        detail.update(
            rounds=len(untraced),
            ops_per_round=outcome.ops,
            **{
                key: summary[key]
                for key in (
                    "latency_samples", "raw_setup_s", "wall_s", "ref_s",
                    "bytes_written_mb", "bytes_written_range",
                )
            },
        )
        if options.trace:
            values = {
                key: statistics.mean(r["layers"][key] for r in traced)
                for key in traced[0]["layers"]
            }
            values["trace.overhead"] = (
                summarize(traced)["wall_ref_s"] / summary["wall_ref_s"] - 1
            )
            values["host.ref_s"] = summary["ref_s"]
            values["host.wall_s"] = summary["wall_s"]
            values["bytes_written_mb"] = summary["bytes_written_mb"]
        else:
            values = {
                key: summary[key]
                for key in ("setup_s", "wall_ref_s", "latency_p50_ref_s", "latency_p90_ref_s")
            }
            values.update(
                tasks=outcome.tasks,
                round_trips=outcome.round_trips,
                peak_rss_mb=peak_rss_mb(),
            )
        units = declared_units("per_layer" if options.trace else "end_to_end")
        if set(values) != set(units):
            raise RuntimeError(
                f"metrics {sorted(set(values) ^ set(units))} are emitted but not "
                "declared in BENCHMARK.json, or declared but not emitted"
            )
        metrics = {key: {"value": values[key], "unit": units[key]} for key in units}
    detail["problems"] = (problems + failures)[:10]
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": failed == 0 and bool(metrics),
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
