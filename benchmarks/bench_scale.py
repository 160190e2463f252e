"""Scale benchmark: the vectorized million-object audit path.

Runs group / multiple / intersectional coverage audits at N ∈ {10k,
100k, 1M} against two answering backends over identical datasets:

* **baseline** — a row-at-a-time reference oracle that evaluates
  ``predicate.matches_row(dataset.value_row(i))`` per object in pure
  Python: the pre-vectorization execution model this PR replaces.
* **vectorized** — :class:`~repro.crowd.oracle.GroundTruthOracle`
  answering through the dataset's
  :class:`~repro.data.sharded.ShardedMembershipIndex` (one shard, a
  pinned prefix-count table per predicate for contiguous runs, batched
  gathers otherwise, interned query keys), in both sequential and
  engine modes.

Sequential baseline and sequential vectorized runs ask the *same
queries in the same order*, so verdicts and task counts must be
bit-identical — the harness asserts it. Engine-mode rows additionally
record round-trips and answer-cache hit rate.

Results land in ``BENCH_scale.json`` (one row per audit × N) to seed
the repo's perf trajectory; CI runs the N=10k smoke slice on every
push. Run the full sweep with::

    PYTHONPATH=src python benchmarks/bench_scale.py

and the smoke slice with ``--sizes 10000``.
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Callable

import numpy as np

from repro.audit import (
    AuditSession,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
)
from repro.crowd.oracle import GroundTruthOracle, Oracle
from repro.data.groups import group
from repro.data.schema import Schema
from repro.data.synthetic import (
    binary_dataset,
    intersectional_dataset,
    single_attribute_dataset,
)

DEFAULT_SIZES = (10_000, 100_000, 1_000_000)
DEFAULT_TAU = 50
#: Row-at-a-time multiple/intersectional audits above this N are skipped
#: (they re-scan the view once per super-group; at 1M that is minutes of
#: pure-Python row evaluation that measures nothing new). The group
#: audit — the acceptance benchmark — is always baselined.
DEFAULT_BASELINE_CAP = 100_000


class RowAtATimeOracle(Oracle):
    """The pre-vectorization reference: pure-Python per-row answering.

    Every set query walks its indices and evaluates the predicate
    against a freshly built ``{attribute: value}`` row — exactly what
    the simulated crowd did before the membership index existed. Kept
    here (not in ``src/``) as the baseline the vectorized path must
    bit-match and outrun.
    """

    def __init__(self, dataset, *, budget: int | None = None) -> None:
        super().__init__(dataset.schema, budget=budget)
        self.dataset = dataset

    def _answer_set(self, indices: np.ndarray, predicate, index_key) -> bool:
        return any(
            predicate.matches_row(self.dataset.value_row(int(index)))
            for index in indices
        )

    def _answer_point(self, index: int) -> dict[str, str]:
        return self.dataset.value_row(index)


def _group_fingerprint(result) -> tuple:
    return (result.covered, result.count)


def _multiple_fingerprint(report) -> tuple:
    return tuple(
        (entry.group.describe(), entry.covered, entry.count)
        for entry in report.entries
    )


def _intersectional_fingerprint(report) -> tuple:
    leaves = _multiple_fingerprint(report.leaf_report)
    mups = tuple(sorted(pattern.describe() for pattern in report.mups))
    return (leaves, mups)


def _make_group_case(n_objects: int, tau: int, rng: np.random.Generator):
    dataset = binary_dataset(n_objects, max(tau - 10, 1), rng=rng)
    spec = GroupAuditSpec(predicate=group(gender="female"), tau=tau)
    return dataset, spec, _group_fingerprint


def _make_multiple_case(n_objects: int, tau: int, rng: np.random.Generator):
    minority = max(tau - 10, 1)
    counts = {
        "white": n_objects - 3 * minority,
        "black": minority,
        "asian": minority,
        "other": minority,
    }
    dataset = single_attribute_dataset(counts, rng=rng)
    spec = MultipleAuditSpec(
        groups=tuple(group(race=value) for value in counts), tau=tau
    )
    return dataset, spec, _multiple_fingerprint


def _make_intersectional_case(n_objects: int, tau: int, rng: np.random.Generator):
    schema = Schema.from_dict(
        {"gender": ["male", "female"], "race": ["white", "black"]}
    )
    minority = max(tau - 10, 1)
    joint = {
        ("male", "white"): n_objects - 2 * minority - tau * 4,
        ("female", "white"): tau * 4,
        ("male", "black"): minority,
        ("female", "black"): minority,
    }
    dataset = intersectional_dataset(schema, joint, rng=rng)
    spec = IntersectionalAuditSpec(schema=schema, tau=tau)
    return dataset, spec, _intersectional_fingerprint


CASES: dict[str, Callable] = {
    "group": _make_group_case,
    "multiple": _make_multiple_case,
    "intersectional": _make_intersectional_case,
}


def _timed_run(oracle: Oracle, spec, *, engine: bool, seed: int) -> dict:
    """One audit under one backend; wall clock, tasks, verdict object."""
    started = time.perf_counter()
    with AuditSession(oracle, engine=True if engine else None, seed=seed) as session:
        report = session.run(spec)
    elapsed = time.perf_counter() - started
    (entry,) = report.entries
    row = {
        "seconds": round(elapsed, 6),
        "tasks": report.tasks.total,
        "set_queries": report.tasks.n_set_queries,
        "point_queries": report.tasks.n_point_queries,
        "round_trips": report.tasks.n_rounds,
    }
    if report.engine_stats is not None:
        stats = report.engine_stats
        looked_up = stats.cache_hits + stats.cache_misses
        row["cache_hit_rate"] = round(
            stats.cache_hits / looked_up if looked_up else 0.0, 6
        )
        row["dispatched_queries"] = stats.dispatched_queries
    return row, entry.result


def run_case(audit: str, n_objects: int, tau: int, *, seed: int, baseline_cap: int) -> dict:
    """Benchmark one audit kind at one scale; returns a JSON-ready row."""
    # One dataset instance serves every backend: the membership index is
    # per-dataset, and the baseline oracle never touches it.
    dataset, spec, fingerprint = CASES[audit](
        n_objects, tau, np.random.default_rng(seed)
    )

    row: dict = {"audit": audit, "n_objects": n_objects, "tau": tau}

    vectorized, vectorized_result = _timed_run(
        GroundTruthOracle(dataset), spec, engine=False, seed=seed
    )
    row["vectorized"] = vectorized

    engine_row, engine_result = _timed_run(
        GroundTruthOracle(dataset), spec, engine=True, seed=seed
    )
    row["engine"] = engine_row
    row["engine_verdict_identical"] = fingerprint(engine_result) == fingerprint(
        vectorized_result
    )

    if audit == "group" or n_objects <= baseline_cap:
        baseline, baseline_result = _timed_run(
            RowAtATimeOracle(dataset), spec, engine=False, seed=seed
        )
        row["baseline"] = baseline
        identical = fingerprint(baseline_result) == fingerprint(vectorized_result)
        tasks_identical = baseline["tasks"] == vectorized["tasks"]
        row["bit_identical"] = bool(identical and tasks_identical)
        if not row["bit_identical"]:
            raise AssertionError(
                f"vectorized path diverged from row-at-a-time baseline on "
                f"{audit}@{n_objects}: verdicts equal={identical}, "
                f"tasks {baseline['tasks']} vs {vectorized['tasks']}"
            )
        row["speedup_vectorized"] = round(
            baseline["seconds"] / max(vectorized["seconds"], 1e-9), 2
        )
        row["speedup_engine"] = round(
            baseline["seconds"] / max(engine_row["seconds"], 1e-9), 2
        )
    else:
        row["baseline"] = None
        row["baseline_skipped_reason"] = (
            f"row-at-a-time {audit} audit above --baseline-cap={baseline_cap}"
        )
    return row


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
        help="dataset sizes N to sweep",
    )
    parser.add_argument("--tau", type=int, default=DEFAULT_TAU)
    parser.add_argument(
        "--audits", nargs="+", choices=sorted(CASES), default=sorted(CASES),
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--baseline-cap", type=int, default=DEFAULT_BASELINE_CAP)
    parser.add_argument("--out", default="BENCH_scale.json")
    args = parser.parse_args(argv)

    results = []
    for n_objects in args.sizes:
        for audit in sorted(args.audits):
            row = run_case(
                audit, n_objects, args.tau,
                seed=args.seed, baseline_cap=args.baseline_cap,
            )
            results.append(row)
            baseline = row.get("baseline")
            speedup = (
                f"{row['speedup_vectorized']:.1f}x vs baseline"
                if baseline
                else "baseline skipped"
            )
            print(
                f"{audit:>15} @ N={n_objects:>9,}: "
                f"vectorized {row['vectorized']['seconds']:.3f}s, "
                f"engine {row['engine']['seconds']:.3f}s ({speedup})"
            )

    payload = {
        "benchmark": "bench_scale",
        "tau": args.tau,
        "seed": args.seed,
        "sizes": args.sizes,
        "baseline_cap": args.baseline_cap,
        "results": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out} ({len(results)} rows)")
    return payload


if __name__ == "__main__":
    main()
