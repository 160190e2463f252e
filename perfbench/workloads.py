"""The three benchmark workloads.

Each workload builds all of its inputs from the seed in :meth:`setup`,
runs them in :meth:`timed`, one operation at a time, and checks every
verdict against ground truth it derives from the generated inputs itself
in :meth:`verify`, after the clock has stopped. Every workload runs
serially in one process.
"""

from __future__ import annotations

import functools
import itertools
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro import (
    AuditReport,
    AuditSession,
    BaseAuditSpec,
    CrowdOracle,
    CrowdPlatform,
    GroundTruthOracle,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
    Schema,
    ShardedDataset,
    ShardExecutor,
    binary_dataset,
    group,
    intersectional_dataset,
    make_worker_pool,
    single_attribute_dataset,
)
from repro.crowd.reliability import AdaptiveAssignmentPolicy
from repro.errors import ReproError
from repro.serving import (
    ServingClient,
    ServingConfig,
    ServingGateway,
    init_serving_root,
    register_recipe,
    run_worker,
)

GENDERS = ("male", "female")
RACES = ("white", "black", "asian", "other")


@dataclass
class Outcome:
    """What one round's timed phase produced."""

    tasks: int = 0
    round_trips: int = 0
    ops: int = 0
    #: one entry per failed operation: what failed and why
    failures: list[str] = field(default_factory=list)
    #: canonical verdicts, compared between the untraced and traced runs
    verdicts: list[Any] = field(default_factory=list)
    #: counters read from the program's public snapshots after the round
    counters: dict[str, float] = field(default_factory=dict)
    #: results awaiting verification (cleared by verify)
    pending: list[Any] = field(default_factory=list)

    def fail_op(self, problems: list[str]) -> None:
        """Count one failed operation when its checks found ``problems``."""
        if problems:
            self.failures.append("; ".join(problems))


def _pattern_counts(joint: dict[tuple[str, ...], int], domains) -> dict:
    """Object count of every pattern (``None`` = wildcard) over ``domains``."""
    counts = {}
    for pattern in itertools.product(*[(None, *domain) for domain in domains]):
        counts[pattern] = sum(
            count
            for cell, count in joint.items()
            if all(want is None or want == have for want, have in zip(pattern, cell))
        )
    return counts


def expected_mups(joint: dict[tuple[str, ...], int], domains, tau: int) -> set:
    """Maximal uncovered patterns: uncovered patterns whose parents (one
    specified value replaced by the wildcard) are all covered."""
    counts = _pattern_counts(joint, domains)
    mups = set()
    for pattern, count in counts.items():
        if count >= tau:
            continue
        parents = [
            pattern[:position] + (None,) + pattern[position + 1 :]
            for position, value in enumerate(pattern)
            if value is not None
        ]
        if all(counts[parent] >= tau for parent in parents):
            mups.add(pattern)
    return mups


def _check_group(label: str, result, truth: int, tau: int) -> list[str]:
    """Group-Coverage/Base-Coverage contract: covered iff ``truth >= tau``;
    a covered run certifies ``tau``, an uncovered run counts exactly."""
    expected = truth if truth < tau else tau
    if result.covered != (truth >= tau) or result.count != expected:
        return [
            f"{label}: got covered={result.covered} count={result.count}, "
            f"truth {truth} vs tau {tau}"
        ]
    return []


def _check_multiple(label: str, report, truths: dict, tau: int) -> list[str]:
    """Multiple-Coverage contract per group: covered iff ``truth >= tau``;
    counts are lower bounds, exact where the report says so."""
    failures = []
    for entry in report.entries:
        truth = truths[entry.group]
        exact_ok = entry.covered or not entry.count_is_exact or entry.count == truth
        if entry.covered != (truth >= tau) or entry.count > truth or not exact_ok:
            failures.append(
                f"{label}: {entry.group.describe()} covered={entry.covered} "
                f"count={entry.count} exact={entry.count_is_exact}, truth {truth}"
            )
    return failures


def _check_intersectional(label: str, report, joint, domains, tau) -> list[str]:
    got = {pattern.values for pattern in report.mups}
    want = expected_mups(joint, domains, tau)
    if got != want:
        return [f"{label}: MUPs {sorted(map(str, got))} != {sorted(map(str, want))}"]
    return []


def _verdict(result) -> tuple:
    """A hashable summary of one result, for the traced-run guard."""
    if hasattr(result, "mups"):
        return ("mups", tuple(sorted(str(p.values) for p in result.mups)))
    if hasattr(result, "entries"):
        return tuple((e.covered, e.count) for e in result.entries)
    return (result.covered, result.count)


def _grid(i: int, count: int, low: int, high: int) -> int:
    """The ``i``-th of ``count`` evenly spaced integers from ``low`` to ``high``."""
    return low + i * (high - low) // max(1, count - 1)


def _offset(i: int, stride: int, width: int) -> int:
    """A fixed offset in ``[-width, width]``: consecutive ``i`` walk the whole
    range, so a workload's mix of covered and uncovered audits is the same
    for every seed."""
    return i * stride % (2 * width + 1) - width


# ---------------------------------------------------------------------------
# seq-audits
# ---------------------------------------------------------------------------


@dataclass
class _Audit:
    kind: str
    oracle: Any
    spec: Any
    truth: Any
    seed: int


class SeqAudits:
    """Sequential ``AuditSession(engine=None)`` audits, each over its own
    dense dataset, every minority count near its audit's ``tau``."""

    name = "seq-audits"
    #: audits per round, by kind (Algorithm 1, Base-Coverage, Algorithm 2,
    #: Algorithm 3)
    MIX = {"group": 48, "base": 36, "multiple": 24, "intersectional": 12}
    INTERSECTIONAL_RACES = RACES[:3]

    def setup(self, seed: int) -> list[_Audit]:
        """The seed orders the audits and places every dataset's objects;
        sizes, thresholds and counts are the same for every seed, so the
        work in a round hardly depends on it."""
        rng = np.random.default_rng([seed, 1])
        kinds = [(kind, i) for kind, count in self.MIX.items() for i in range(count)]
        order = rng.permutation(len(kinds))
        return [
            getattr(self, f"_make_{kinds[k][0]}")(rng, position, kinds[k][1])
            for position, k in enumerate(order)
        ]

    def _make_group(self, rng, position, i) -> _Audit:
        tau = _grid(i * 7 % 48, 48, 40, 60)
        minority = tau + _offset(i, 5, 8)
        dataset = binary_dataset(_grid(i, 48, 20_000, 40_000), minority, rng=rng)
        spec = GroupAuditSpec(predicate=group(gender="female"), tau=tau)
        return _Audit("group", GroundTruthOracle(dataset), spec, minority, position)

    def _make_base(self, rng, position, i) -> _Audit:
        tau = _grid(i * 7 % 36, 36, 20, 30)
        minority = tau + _offset(i, 5, 4)
        dataset = binary_dataset(_grid(i, 36, 3_000, 5_000), minority, rng=rng)
        spec = BaseAuditSpec(predicate=group(gender="female"), tau=tau)
        return _Audit("base", GroundTruthOracle(dataset), spec, minority, position)

    def _make_multiple(self, rng, position, i) -> _Audit:
        tau = _grid(i * 7 % 24, 24, 40, 60)
        minorities = {
            "black": tau + _offset(i, 5, 8),
            "asian": tau + _offset(i, 11, 8),
            "other": 3 * tau + _offset(i, 3, 8),
        }
        total = _grid(i, 24, 15_000, 25_000)
        counts = {"white": total - sum(minorities.values()), **minorities}
        # shuffled() permutes rows with one gather; the generator's own
        # shuffle swaps (N, 1) rows one at a time and would be most of set-up.
        dataset = single_attribute_dataset(counts, shuffle=False).shuffled(rng)
        groups = tuple(group(race=value) for value in counts)
        truth = dict(zip(groups, counts.values()))
        spec = MultipleAuditSpec(groups=groups, tau=tau)
        return _Audit("multiple", GroundTruthOracle(dataset), spec, truth, position)

    def _make_intersectional(self, rng, position, i) -> _Audit:
        tau = _grid(i * 7 % 12, 12, 40, 60)
        races = self.INTERSECTIONAL_RACES
        schema = Schema.from_dict({"gender": list(GENDERS), "race": list(races)})
        joint = {
            ("female", "white"): 4 * tau + _offset(i, 5, 8),
            ("male", "black"): tau + _offset(i, 11, 8),
            ("female", "black"): tau // 2 + _offset(i, 3, 8),
            ("male", "asian"): 2 * tau + _offset(i, 7, 8),
            ("female", "asian"): tau + _offset(i, 13, 8),
        }
        joint[("male", "white")] = _grid(i, 12, 8_000, 12_000) - sum(joint.values())
        dataset = intersectional_dataset(schema, joint, rng=rng)
        spec = IntersectionalAuditSpec(schema=schema, tau=tau)
        truth = (joint, (GENDERS, races))
        return _Audit("intersectional", GroundTruthOracle(dataset), spec, truth, position)

    def timed(self, audits: list[_Audit], meter) -> Outcome:
        outcome = Outcome()
        for audit in audits:
            outcome.ops += 1
            try:
                with meter.op():
                    with AuditSession(audit.oracle, seed=audit.seed) as session:
                        report = session.run(audit.spec)
            except Exception as error:  # one failed audit must not stop the round
                outcome.failures.append(f"{audit.kind} #{audit.seed}: {error!r}")
                continue
            outcome.pending.append((audit, report.result))
        return outcome

    def verify(self, audits: list[_Audit], outcome: Outcome) -> None:
        for audit, result in outcome.pending:
            label = f"{audit.kind} #{audit.seed}"
            if audit.kind in ("group", "base"):
                failures = _check_group(label, result, audit.truth, audit.spec.tau)
            elif audit.kind == "multiple":
                failures = _check_multiple(label, result, audit.truth, audit.spec.tau)
            else:
                joint, domains = audit.truth
                failures = _check_intersectional(
                    label, result, joint, domains, audit.spec.tau
                )
            outcome.fail_op(failures)
            outcome.verdicts.append(_verdict(result))
        outcome.pending.clear()
        for audit in audits:
            outcome.tasks += audit.oracle.ledger.total
            outcome.round_trips += audit.oracle.ledger.n_rounds

    def teardown(self, audits) -> None:
        pass


# ---------------------------------------------------------------------------
# engine-sharded
# ---------------------------------------------------------------------------


def _copy_rows(codes: np.ndarray, shard_index: int, start: int, stop: int) -> np.ndarray:
    """Chunk loader: a fresh copy of rows ``[start, stop)``, as a memory-map
    read would produce."""
    return np.array(codes[start:stop], dtype=np.int16)


@dataclass
class _ShardedState:
    codes: np.ndarray
    dataset: ShardedDataset
    oracle: GroundTruthOracle
    batches: list[list[Any]]
    seed: int


class EngineSharded:
    """Batches of overlapping group, multiple and intersectional specs run
    with ``AuditSession(engine=True).run_many`` over a sharded dataset that
    holds fewer chunks resident than it has shards."""

    name = "engine-sharded"
    N_OBJECTS = 60_000
    SHARD_SIZE = 6_000
    MAX_RESIDENT = 4
    BATCHES = 24
    VIEW_FRACTION = 0.25
    #: objects per (gender, race) cell; the small cells hold about tau (50)
    #: objects inside a sampled view, female/other about tau in the whole set
    CELLS = {
        ("female", "white"): 7_200,
        ("male", "black"): 192,
        ("female", "black"): 144,
        ("male", "asian"): 1_200,
        ("female", "asian"): 240,
        ("male", "other"): 216,
        ("female", "other"): 60,
    }
    PREDICATES = (
        group(gender="female"),
        group(race="black"),
        group(race="asian"),
        group(race="other"),
        group(gender="female", race="black"),
        group(gender="male", race="other"),
        group(gender="female", race="other"),
    )

    def schema(self) -> Schema:
        return Schema.from_dict({"gender": list(GENDERS), "race": list(RACES)})

    def setup(self, seed: int) -> _ShardedState:
        rng = np.random.default_rng([seed, 2])
        schema = self.schema()
        joint = dict(self.CELLS)
        joint[("male", "white")] = self.N_OBJECTS - sum(joint.values())
        rows = [
            np.tile([GENDERS.index(g), RACES.index(r)], (count, 1))
            for (g, r), count in joint.items()
        ]
        codes = np.concatenate(rows).astype(np.int16)[rng.permutation(self.N_OBJECTS)]
        dataset = ShardedDataset.from_generator(
            schema,
            self.N_OBJECTS,
            self.SHARD_SIZE,
            functools.partial(_copy_rows, codes),
            executor=ShardExecutor(mode="serial"),
            max_resident_shards=self.MAX_RESIDENT,
            name="perfbench-sharded",
        )
        batches = [self._batch(rng, codes, position) for position in range(self.BATCHES)]
        return _ShardedState(codes, dataset, GroundTruthOracle(dataset), batches, seed)

    def _count(self, codes: np.ndarray, predicate, view) -> int:
        rows = codes if view is None else codes[np.asarray(view)]
        mask = np.ones(len(rows), dtype=bool)
        for attribute, values in (("gender", GENDERS), ("race", RACES)):
            if predicate.constrains(attribute):
                column = 0 if attribute == "gender" else 1
                mask &= rows[:, column] == values.index(predicate.value_of(attribute))
        return int(mask.sum())

    def _batch(self, rng, codes, position) -> list[Any]:
        """Batch ``position``: the same five kinds of audit in every batch,
        with fixed thresholds; the seed draws the batch's sampled view."""
        size = int(self.VIEW_FRACTION * self.N_OBJECTS)
        view = np.sort(rng.choice(self.N_OBJECTS, size=size, replace=False))
        # Whole-dataset audits: the predicates repeat across batches, so
        # later batches hit the answer cache.
        predicate = self.PREDICATES[position % len(self.PREDICATES)]
        truth = self._count(codes, predicate, None)
        specs = [
            GroupAuditSpec(predicate, max(1, min(truth, 60) + _offset(position, 5, 6)))
        ]
        # Two audits of one predicate over the view share their first
        # queries: in-flight deduplication.
        predicate = self.PREDICATES[1 + position % (len(self.PREDICATES) - 1)]
        truth = self._count(codes, predicate, view)
        for k in range(2):
            tau = max(1, min(truth, 60) + _offset(2 * position + k, 7, 6))
            specs.append(GroupAuditSpec(predicate=predicate, tau=tau, view=view))
        tau = _grid(position * 7 % self.BATCHES, self.BATCHES, 40, 60)
        specs.append(
            MultipleAuditSpec(
                groups=tuple(group(race=value) for value in RACES), tau=tau, view=view
            )
        )
        # Algorithm 3 over a quarter of the view, where the small cells hold
        # about tau objects.
        tau = _grid(position * 5 % self.BATCHES, self.BATCHES, 10, 16)
        specs.append(
            IntersectionalAuditSpec(schema=self.schema(), tau=tau, view=view[::4])
        )
        return specs

    def timed(self, state: _ShardedState, meter) -> Outcome:
        outcome = Outcome()
        with AuditSession(state.oracle, engine=True, seed=state.seed) as session:
            for batch in state.batches:
                outcome.ops += 1
                try:
                    with meter.op():
                        report = session.run_many(batch)
                except Exception as error:  # one failed batch must not stop the round
                    outcome.failures.append(f"batch: {error!r}")
                    continue
                outcome.pending.append((batch, report))
        return outcome

    def verify(self, state: _ShardedState, outcome: Outcome) -> None:
        codes = state.codes
        for batch_index, (batch, report) in enumerate(outcome.pending):
            batch_failures = []
            for spec_index, (spec, entry) in enumerate(zip(batch, report.entries)):
                label = f"batch {batch_index} spec {spec_index} ({spec.kind})"
                result = entry.result
                view = spec.view_array()
                if spec.kind == "group":
                    truth = self._count(codes, spec.predicate, view)
                    failures = _check_group(label, result, truth, spec.tau)
                elif spec.kind == "multiple":
                    truths = {g: self._count(codes, g, view) for g in spec.groups}
                    failures = _check_multiple(label, result, truths, spec.tau)
                else:
                    joint = {
                        (g, r): self._count(codes, group(gender=g, race=r), view)
                        for g in GENDERS
                        for r in RACES
                    }
                    failures = _check_intersectional(
                        label, result, joint, (GENDERS, RACES), spec.tau
                    )
                batch_failures.extend(failures)
                outcome.verdicts.append(_verdict(result))
            outcome.fail_op(batch_failures)
        outcome.pending.clear()
        ledger = state.oracle.ledger
        outcome.tasks, outcome.round_trips = ledger.total, ledger.n_rounds
        stats = state.dataset.stats
        outcome.counters.update(
            {
                "shard.loads": stats.loads,
                "shard.evictions": stats.evictions,
                "shard.peak_resident_mb": stats.peak_resident_bytes / 2**20,
            }
        )

    def teardown(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# serve-crowd
# ---------------------------------------------------------------------------

RECIPE_KIND = "perfbench-crowd"


def crowd_joint_counts(recipe) -> dict[tuple[str, str], int]:
    """Objects per (gender, race) cell of the crowd workload's dataset: the
    small cells hold about ``tau`` objects."""
    tau = int(recipe["tau"])
    joint = {
        ("female", "white"): 6 * tau,
        ("male", "black"): tau + 2,
        ("female", "black"): tau // 2,
        ("male", "asian"): 2 * tau,
        ("female", "asian"): tau - 3,
    }
    joint[("male", "white")] = int(recipe["n"]) - sum(joint.values())
    return joint


def _request(outcome: Outcome, meter, call, *args, **kwargs):
    """One gateway request: an operation, and a failure when it raises."""
    outcome.ops += 1
    try:
        return call(*args, **kwargs)
    except (ReproError, OSError) as error:  # HTTP errors and 429s included
        outcome.failures.append(f"{call.__name__}: {error!r}")
        return None
    finally:
        meter.between()


@dataclass
class _ServeState:
    root: Path
    gateway: ServingGateway
    client: ServingClient
    jobs: list[tuple[str, GroupAuditSpec, int]]
    truths: dict


class ServeCrowd:
    """The whole network path in one process: a gateway on loopback, one
    sequential client, and the serving worker loop on the benchmark's own
    thread, over crowd-backed oracles that checkpoint every step."""

    name = "serve-crowd"
    JOBS = 30
    TENANTS = 4
    TAU = 30
    N_OBJECTS = 3_000
    ERROR_RATE = 0.0136
    SPAMMER_FRACTION = 0.2
    LOG_ODDS_THRESHOLD = 9.0
    MAX_ASSIGNMENTS = 11
    PREDICATES = (
        group(gender="female"),
        group(race="black"),
        group(race="asian"),
        group(gender="male", race="black"),
        group(gender="female", race="black"),
        group(gender="female", race="asian"),
    )

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        #: every oracle the recipe built, in build order (one per job run)
        self.built: list[CrowdOracle] = []
        #: called as each job starts: the worker loop's only seam between
        #: jobs, where the benchmark runs its reference slices
        self.on_job_start: Callable[[], None] | None = None
        register_recipe(RECIPE_KIND, self._build_oracle)

    def _build_oracle(self, recipe) -> CrowdOracle:
        """The recipe: a crowd over a spammer-laced pool, routed by the
        adaptive assignment policy."""
        if self.on_job_start is not None:
            self.on_job_start()
        schema = Schema.from_dict({"gender": list(GENDERS), "race": list(RACES[:3])})
        dataset = intersectional_dataset(
            schema,
            crowd_joint_counts(recipe),
            # The corpus is the same for every seed, like a deployment's
            # dataset; the seed draws the crowd and the job stream.
            rng=np.random.default_rng(4),
        )
        workers = make_worker_pool(
            int(recipe["n_workers"]),
            np.random.default_rng([int(recipe["crowd_seed"]), 5]),
            error_rate=float(recipe["error_rate"]),
            spammer_fraction=float(recipe["spammer_fraction"]),
        )
        platform = CrowdPlatform(
            dataset,
            workers,
            np.random.default_rng([int(recipe["crowd_seed"]), 6]),
            reliability=AdaptiveAssignmentPolicy(
                log_odds_threshold=float(recipe["log_odds_threshold"]),
                max_assignments=int(recipe["max_assignments"]),
            ),
        )
        oracle = CrowdOracle(platform)
        self.built.append(oracle)
        return oracle

    def setup(self, seed: int) -> _ServeState:
        recipe = {
            "kind": RECIPE_KIND,
            "n": self.N_OBJECTS,
            "tau": self.TAU,
            "crowd_seed": seed,
            "n_workers": 20,
            "error_rate": self.ERROR_RATE,
            "spammer_fraction": self.SPAMMER_FRACTION,
            "log_odds_threshold": self.LOG_ODDS_THRESHOLD,
            "max_assignments": self.MAX_ASSIGNMENTS,
        }
        counts = _pattern_counts(crowd_joint_counts(recipe), (GENDERS, RACES[:3]))
        truths = {
            predicate: counts[
                tuple(
                    predicate.value_of(attribute) if predicate.constrains(attribute) else None
                    for attribute in ("gender", "race")
                )
            ]
            for predicate in self.PREDICATES
        }
        # The seed draws the crowd and orders the job stream; the jobs
        # themselves are the same for every seed.
        jobs = []
        for position in np.random.default_rng([seed, 7]).permutation(self.JOBS):
            predicate = self.PREDICATES[position % len(self.PREDICATES)]
            tau = max(1, min(truths[predicate], self.TAU) + _offset(int(position), 5, 4))
            jobs.append(
                (
                    f"tenant-{position % self.TENANTS}",
                    GroupAuditSpec(predicate, tau),
                    seed * self.JOBS + int(position),
                )
            )
        root = self.scratch / f"serve-{seed}-{time.monotonic_ns()}"
        # A lease outlives every job, so no heartbeat write falls due and
        # the bytes a round writes do not depend on how fast it runs.
        config = ServingConfig(recipe=recipe, lease_ttl_seconds=600.0)
        init_serving_root(root, config)
        gateway = ServingGateway(root)
        try:
            gateway.start()
        except BaseException:
            gateway.server_close()
            shutil.rmtree(root, ignore_errors=True)
            raise
        client = ServingClient("127.0.0.1", gateway.port)
        try:
            client.health()  # start-up ends when the gateway answers
        except BaseException:
            gateway.stop()
            shutil.rmtree(root, ignore_errors=True)
            raise
        return _ServeState(root, gateway, client, jobs, truths)

    def timed(self, state: _ServeState, meter) -> Outcome:
        outcome = Outcome()
        self.built.clear()
        job_ids = []
        for tenant, spec, seed in state.jobs:
            record = _request(outcome, meter, state.client.submit, spec, tenant=tenant, seed=seed)
            if record is not None:
                job_ids.append((record["job_id"], spec))
        # A latency sample is one job's service time in the worker: from
        # the start of its run (when the worker builds its oracle) to the
        # start of the next job's, or the end of the drain.
        job_starts: list[float] = []

        def job_started() -> None:
            if job_starts:
                meter.add_sample(time.perf_counter() - job_starts[-1])
            meter.between()
            job_starts.append(time.perf_counter())

        self.on_job_start = job_started
        try:
            finished = run_worker(
                state.root, "perfbench-worker", max_jobs=len(job_ids), idle_timeout=5.0
            )
        finally:
            self.on_job_start = None
        if job_starts:
            meter.add_sample(time.perf_counter() - job_starts[-1])
        if finished != len(job_ids):
            outcome.failures.append(f"drain finished {finished} of {len(job_ids)} jobs")
        for job_id, spec in job_ids:
            _request(outcome, meter, state.client.status, job_id)
            record = _request(outcome, meter, state.client.result, job_id)
            if record is not None:
                outcome.pending.append((spec, record["report"]))
        return outcome

    def verify(self, state: _ServeState, outcome: Outcome) -> None:
        for spec, payload in outcome.pending:
            result = AuditReport.from_dict(payload).entries[0].result
            outcome.fail_op(
                _check_group(spec.describe(), result, state.truths[spec.predicate], spec.tau)
            )
            outcome.verdicts.append(_verdict(result))
        outcome.pending.clear()
        quarantined = 0
        for oracle in self.built:
            outcome.tasks += oracle.ledger.total
            outcome.round_trips += oracle.ledger.n_rounds
            quarantined += oracle.platform.reliability.report().n_quarantined
        outcome.counters.update(
            {
                "crowd.hits": sum(o.platform.ledger.n_hits for o in self.built),
                "crowd.assignments": sum(
                    o.platform.ledger.n_assignments for o in self.built
                ),
                "crowd.quarantined": quarantined,
            }
        )
        self.built.clear()

    def teardown(self, state: _ServeState) -> None:
        try:
            state.gateway.stop()
        finally:
            shutil.rmtree(state.root, ignore_errors=True)
