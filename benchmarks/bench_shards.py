"""Out-of-core scale benchmark: audits over datasets larger than memory.

Runs group / multiple / intersectional coverage audits at N ∈ {1M, 10M}
over a :class:`~repro.data.sharded.ShardedDataset` whose code chunks are
*generated on demand* (seeded per shard) and evicted LRU — the full
``(N, d)`` matrix never exists — sweeping the executor modes
(``serial``, ``threads`` and ``processes`` by default; the chunk
generators are module-level partials, so they pickle into pool
workers). The ``--memmap-tier`` flag adds the 100M-row tier: codes are
streamed to an on-disk ``.npy`` once, then audited through
:meth:`~repro.data.sharded.ShardedDataset.from_memmap` with a
``processes`` executor — workers open the map themselves, so chunk
bytes never cross the pickle boundary. Three guarantees are asserted
per row:

* **bit-identity** — at sizes up to ``--dense-cap`` (default 1M) the
  same chunks are concatenated into an in-RAM
  :class:`~repro.data.dataset.LabeledDataset` and the audit re-run over
  it (one shard, every predicate pinned): verdicts AND task counts must
  match exactly;
* **structural memory bound** — the sharded path's tracked peak
  (resident chunks + cached bitmaps and rank directories) never exceeds
  its configuration cap (LRU + build-window chunk budget, twice the
  residency cap, plus the bitmap budget), and that cap stays below
  :func:`~repro.data.sharded.dense_index_bytes` — what a fully in-RAM
  index would need resident for the same workload;
* **completion at scale** — the group audit finishes at N = 10M (and,
  with ``--memmap-tier``, at N = 100M) with the cap several times under
  the dense requirement.

Results land in ``BENCH_shards.json``. Each row's ``sharded`` (the
sequential repeats) and ``sharded_engine`` entries also record the
``chunk_loads``, ``bitmap_builds`` and ``rank_builds`` that mode
caused, so the two modes' data-plane work can be compared. Full sweep (what the committed
baseline is built from)::

    PYTHONPATH=src python benchmarks/bench_shards.py --memmap-tier 100000000

CI smoke slice (N = 1M, processes mode)::

    PYTHONPATH=src python benchmarks/bench_shards.py \
        --sizes 1000000 --executors processes --out BENCH_shards.json
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import tempfile
import time

import numpy as np

from repro.audit import (
    AuditSession,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
)
from repro.crowd.oracle import GroundTruthOracle
from repro.data.dataset import LabeledDataset
from repro.data.groups import group
from repro.data.schema import Schema
from repro.data.sharded import (
    ShardedDataset,
    ShardedMembershipIndex,
    ShardExecutor,
    dense_index_bytes,
)

DEFAULT_SIZES = (1_000_000, 10_000_000)
DEFAULT_TAU = 50
DEFAULT_RESIDENT = 2
DEFAULT_EXECUTORS = ("serial", "threads", "processes")
#: Above this N the in-RAM comparison run is skipped (it would need the
#: memory the sharded path exists to avoid).
DEFAULT_DENSE_CAP = 1_000_000

GENDER_SCHEMA = Schema.from_dict({"gender": ["male", "female"]})
RACE_SCHEMA = Schema.from_dict({"race": ["white", "black", "asian", "other"]})
JOINT_SCHEMA = Schema.from_dict(
    {"gender": ["male", "female"], "race": ["white", "black"]}
)


def _shard_rng(seed: int, case_tag: int, shard_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, case_tag, shard_index]))


# The chunk generators are module-level functions bound with
# functools.partial so they pickle into processes-mode pool workers
# (closures would not).
def _group_chunk(
    seed: int, p_minority: float, shard_index: int, start: int, stop: int
) -> np.ndarray:
    rng = _shard_rng(seed, 11, shard_index)
    column = rng.random(stop - start) < p_minority
    return column.astype(np.int16).reshape(-1, 1)


def _multiple_chunk(
    seed: int, weights: tuple, shard_index: int, start: int, stop: int
) -> np.ndarray:
    rng = _shard_rng(seed, 23, shard_index)
    column = rng.choice(len(weights), size=stop - start, p=np.array(weights))
    return column.astype(np.int16).reshape(-1, 1)


def _intersectional_chunk(
    seed: int, weights: tuple, shard_index: int, start: int, stop: int
) -> np.ndarray:
    rng = _shard_rng(seed, 37, shard_index)
    flat = rng.choice(len(weights), size=stop - start, p=np.array(weights))
    return np.column_stack([flat // 2, flat % 2]).astype(np.int16)


def _make_group_case(n_objects: int, tau: int, seed: int):
    """Binary minority drawn i.i.d. at ~0.8·tau expected members."""
    p_minority = 0.8 * tau / n_objects
    chunk = functools.partial(_group_chunk, seed, p_minority)
    spec = GroupAuditSpec(predicate=group(gender="female"), tau=tau)
    return GENDER_SCHEMA, chunk, spec


def _make_multiple_case(n_objects: int, tau: int, seed: int):
    p_minority = 0.8 * tau / n_objects
    weights = (1.0 - 3 * p_minority, p_minority, p_minority, p_minority)
    chunk = functools.partial(_multiple_chunk, seed, weights)
    spec = MultipleAuditSpec(
        groups=tuple(group(race=value) for value in RACE_SCHEMA.attribute("race").values),
        tau=tau,
    )
    return RACE_SCHEMA, chunk, spec


def _make_intersectional_case(n_objects: int, tau: int, seed: int):
    p_minority = 0.8 * tau / n_objects
    # Flat codes over (gender, race): male/white majority, female/white
    # comfortably covered, both black cells near the threshold.
    weights = (
        1.0 - 4 * tau / n_objects - 2 * p_minority,
        p_minority,
        4 * tau / n_objects,
        p_minority,
    )
    chunk = functools.partial(_intersectional_chunk, seed, weights)
    spec = IntersectionalAuditSpec(schema=JOINT_SCHEMA, tau=tau)
    return JOINT_SCHEMA, chunk, spec


CASES = {
    "group": _make_group_case,
    "multiple": _make_multiple_case,
    "intersectional": _make_intersectional_case,
}


def _scrub_costs(payload):
    """Drop cost counters (``tasks``, ``engine_stats``) at every nesting
    level: engine mode legitimately spends differently (speculation,
    per-stepper attribution), so verdict fingerprints must compare
    substance — coverage bits, counts, discovered members, MUPs — only.
    Task equality is asserted separately where modes make it exact."""
    if isinstance(payload, dict):
        return {
            key: _scrub_costs(value)
            for key, value in payload.items()
            if key not in ("tasks", "engine_stats")
        }
    if isinstance(payload, list):
        return [_scrub_costs(item) for item in payload]
    return payload


def _fingerprint(result) -> str:
    """Kind-agnostic verdict fingerprint built from the lossless codec."""
    from repro.audit.serialization import result_to_dict

    return json.dumps(_scrub_costs(result_to_dict(result)), sort_keys=True)


def _timed_session(make_oracle, spec, *, engine: bool, seed: int, repeats: int = 1):
    """Run the audit ``repeats`` times (fresh oracle each — identical
    queries by determinism) and report the best wall-clock. Repeats
    measure the warm steady state a deployment actually runs in (index
    built, caches resident) and cut single-shot scheduler noise out of
    the ratio rows the regression gate compares."""
    best = None
    report = None
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        with AuditSession(
            make_oracle(), engine=True if engine else None, seed=seed
        ) as session:
            run_report = session.run(spec)
        elapsed = time.perf_counter() - started
        if report is None:
            report = run_report
            best = elapsed
        else:
            if run_report.tasks.total != report.tasks.total:
                raise AssertionError(
                    f"task spend varied across repeats: "
                    f"{run_report.tasks.total} vs {report.tasks.total}"
                )
            best = min(best, elapsed)
    (entry,) = report.entries
    return {
        "seconds": round(best, 6),
        "tasks": report.tasks.total,
        "set_queries": report.tasks.n_set_queries,
        "point_queries": report.tasks.n_point_queries,
        "round_trips": report.tasks.n_rounds,
    }, entry.result


def _materialize_memmap(path: str, schema, chunk, n_objects: int, shard_size: int):
    """Stream the synthetic codes to an on-disk ``.npy``, one shard at a
    time — the writer never holds more than one chunk either."""
    mapped = np.lib.format.open_memmap(
        path, mode="w+", dtype=np.int16, shape=(n_objects, schema.n_attributes)
    )
    n_shards = -(-n_objects // shard_size)
    for shard_index in range(n_shards):
        start = shard_index * shard_size
        stop = min(start + shard_size, n_objects)
        mapped[start:stop] = chunk(shard_index, start, stop)
    mapped.flush()
    del mapped


def run_case(
    audit: str,
    n_objects: int,
    tau: int,
    *,
    seed: int,
    shard_size: int | None,
    resident: int,
    executor_mode: str,
    dense_cap: int,
    prefix_budget: int | None = None,
    memmap_path: str | None = None,
) -> dict:
    schema, chunk, spec = CASES[audit](n_objects, tau, seed)
    size = shard_size if shard_size is not None else max(1, n_objects // 8)
    row: dict = {
        "audit": audit,
        "n_objects": n_objects,
        "tau": tau,
        "shard_size": size,
        "max_resident_shards": resident,
        "executor_mode": executor_mode,
        "backend": "memmap" if memmap_path else "generator",
    }

    with ShardExecutor(mode=executor_mode) as executor:
        if memmap_path:
            if not os.path.exists(memmap_path):
                _materialize_memmap(memmap_path, schema, chunk, n_objects, size)
            dataset = ShardedDataset.from_memmap(
                schema, memmap_path, size,
                executor=executor,
                max_resident_shards=resident,
                name=f"{audit}@{n_objects}[memmap]",
            )
        else:
            dataset = ShardedDataset.from_generator(
                schema, n_objects, size, chunk,
                executor=executor,
                max_resident_shards=resident,
                name=f"{audit}@{n_objects}",
            )
        # A budget of n_shards table units is ≈ 4·N bytes: room for 32
        # value bitmaps (N/8 bytes each), so no audit here evicts one.
        budget = prefix_budget if prefix_budget else max(dataset.n_shards, resident)
        row["prefix_budget"] = budget
        index = ShardedMembershipIndex(
            dataset, executor=executor, max_cached_prefixes=budget
        )
        row["n_shards"] = dataset.n_shards
        # A deployment keeps its pool alive across audits; one-time pool
        # construction (process forks) is not audit latency.
        executor.warm()

        # Ratio rows (a dense comparison exists) are best-of-3; the
        # huge tiers stay single-shot to keep the sweep bounded.
        repeats = 3 if n_objects <= dense_cap else 1
        row["repeats"] = repeats

        def count_work(run: dict, since: dict) -> dict:
            """Record the chunk loads and bitmap builds ``run`` caused
            (this process's ledger), apart from the other mode's."""
            report = index.memory_report()
            for counter in ("chunk_loads", "bitmap_builds", "rank_builds"):
                run[counter] = report[counter] - since[counter]
            return report

        start = index.memory_report()
        sharded, sharded_result = _timed_session(
            lambda: GroundTruthOracle(dataset, index=index),
            spec, engine=False, seed=seed, repeats=repeats,
        )
        after_sequential = count_work(sharded, start)
        row["sharded"] = sharded

        # The engine run shares the index (and so its warm totals —
        # like the warm chunks both runs already share through the
        # dataset), which keeps the memory gate below accountable for
        # every sharded structure the benchmark built.
        engine_row, engine_result = _timed_session(
            lambda: GroundTruthOracle(dataset, index=index),
            spec, engine=True, seed=seed, repeats=repeats,
        )
        count_work(engine_row, after_sequential)
        row["sharded_engine"] = engine_row
        row["engine_verdict_identical"] = (
            _fingerprint(engine_result) == _fingerprint(sharded_result)
        )
        if not row["engine_verdict_identical"]:
            raise AssertionError(
                f"{audit}@{n_objects}: engine-mode sharded verdict diverged "
                "from sequential sharded execution"
            )

        memory = index.memory_report()
        n_predicates = max(memory["indexed_predicates"], 1)
        dense_needed = dense_index_bytes(
            n_objects, schema.n_attributes, n_predicates
        )
        row["memory"] = memory
        row["n_indexed_predicates"] = n_predicates
        row["dense_index_bytes"] = dense_needed
        row["dense_over_sharded_cap"] = round(dense_needed / memory["cap_bytes"], 2)
        # The acceptance gate: tracked peak inside the structural cap,
        # and the cap itself below what a fully in-RAM index would need.
        if memory["peak_tracked_bytes"] > memory["cap_bytes"]:
            raise AssertionError(
                f"{audit}@{n_objects}: tracked peak "
                f"{memory['peak_tracked_bytes']} exceeds the structural cap "
                f"{memory['cap_bytes']}"
            )
        if memory["cap_bytes"] >= dense_needed:
            raise AssertionError(
                f"{audit}@{n_objects}: sharded memory cap "
                f"{memory['cap_bytes']} is not below the dense index's "
                f"{dense_needed} bytes — raise N or lower "
                f"--shard-size/--resident-shards/--prefix-budget"
            )

    if n_objects <= dense_cap:
        chunks = [
            chunk(s, s * size, min((s + 1) * size, n_objects))
            for s in range(row["n_shards"])
        ]
        dense_dataset = LabeledDataset(
            schema,
            np.concatenate(chunks) if chunks else np.empty((0, schema.n_attributes)),
            name=f"{audit}@{n_objects}[dense]",
        )
        dense, dense_result = _timed_session(
            lambda: GroundTruthOracle(dense_dataset),
            spec, engine=False, seed=seed, repeats=repeats,
        )
        row["dense"] = dense
        row["sharded_over_dense"] = round(
            sharded["seconds"] / dense["seconds"], 3
        )
        identical = _fingerprint(dense_result) == _fingerprint(sharded_result)
        tasks_identical = dense["tasks"] == sharded["tasks"]
        row["bit_identical"] = bool(identical and tasks_identical)
        if not row["bit_identical"]:
            raise AssertionError(
                f"sharded path diverged from dense on {audit}@{n_objects}: "
                f"verdicts equal={identical}, tasks {dense['tasks']} vs "
                f"{sharded['tasks']}"
            )
    else:
        row["dense"] = None
        row["dense_skipped_reason"] = (
            f"N={n_objects} above --dense-cap={dense_cap}: the dense index "
            "would need the memory this benchmark exists to avoid"
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
    parser.add_argument(
        "--shard-size", type=int, default=None,
        help="rows per shard (default: N//8 per size)",
    )
    parser.add_argument("--resident-shards", type=int, default=DEFAULT_RESIDENT)
    parser.add_argument(
        "--executors", nargs="+", choices=["serial", "threads", "processes"],
        default=list(DEFAULT_EXECUTORS),
        help="executor modes to sweep (each produces its own result rows)",
    )
    parser.add_argument(
        "--prefix-budget", type=int, default=None,
        help="bitmap budget in shard-table units of 4·(shard_size+1) bytes "
        "(default: n_shards, room for 32 value bitmaps)",
    )
    parser.add_argument(
        "--memmap-tier", type=int, default=None, metavar="N",
        help="additionally run the group audit at this N over an on-disk "
        "memmapped .npy with a processes executor (the 100M-row tier)",
    )
    parser.add_argument(
        "--memmap-dir", default=None,
        help="directory for the memmap tier's .npy (default: a tempdir; "
        "the file is reused if already present)",
    )
    parser.add_argument("--dense-cap", type=int, default=DEFAULT_DENSE_CAP)
    parser.add_argument("--out", default="BENCH_shards.json")
    args = parser.parse_args(argv)

    def report(row: dict) -> None:
        headroom = f"dense/sharded-cap {row['dense_over_sharded_cap']}x"
        compared = (
            f"bit-identical vs dense, {row['sharded_over_dense']}x dense time"
            if row.get("bit_identical")
            else "dense skipped"
        )
        print(
            f"{row['audit']:>15} @ N={row['n_objects']:>11,} "
            f"[{row['executor_mode']}/{row['backend']}]: "
            f"sharded {row['sharded']['seconds']:.3f}s "
            f"({row['sharded']['tasks']} tasks, {row['n_shards']} shards, "
            f"{headroom}, {compared})"
        )

    results = []
    for n_objects in args.sizes:
        for audit in sorted(args.audits):
            for executor_mode in args.executors:
                row = run_case(
                    audit, n_objects, args.tau,
                    seed=args.seed,
                    shard_size=args.shard_size,
                    resident=args.resident_shards,
                    executor_mode=executor_mode,
                    dense_cap=args.dense_cap,
                    prefix_budget=args.prefix_budget,
                )
                results.append(row)
                report(row)

    if args.memmap_tier:
        memmap_dir = args.memmap_dir or tempfile.mkdtemp(prefix="bench_shards_")
        os.makedirs(memmap_dir, exist_ok=True)
        memmap_path = os.path.join(
            memmap_dir, f"group_{args.memmap_tier}_{args.seed}.npy"
        )
        row = run_case(
            "group", args.memmap_tier, args.tau,
            seed=args.seed,
            shard_size=args.shard_size,
            resident=args.resident_shards,
            executor_mode="processes",
            dense_cap=args.dense_cap,
            prefix_budget=args.prefix_budget,
            memmap_path=memmap_path,
        )
        results.append(row)
        report(row)

    payload = {
        "benchmark": "bench_shards",
        "tau": args.tau,
        "seed": args.seed,
        "sizes": args.sizes,
        "resident_shards": args.resident_shards,
        "executors": args.executors,
        "memmap_tier": args.memmap_tier,
        "ru_maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "results": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out} ({len(results)} rows)")
    return payload


if __name__ == "__main__":
    main()
