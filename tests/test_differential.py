"""One differential harness over the configuration space of an audit.

:func:`configurations` draws a :class:`Config` (spec kind, layout,
executor, driver, engine, oracle, kill; named configurations may also
rerun); :func:`check` holds it to one rule against its dense, serial,
unkilled reference and :func:`check_surface` holds the membership index
to NumPy. ``NAMED`` keeps every configuration the former pairwise suites
pinned, under that test's name; ``GAPS`` pins the known exceptions. The
hypothesis tests are derandomized: a failure reproduces from its test
ID.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import itertools
import json
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditEntry,
    AuditReport,
    AuditSession,
    BaseAuditSpec,
    ClassifierAuditSpec,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
)
from repro.core import (
    base_coverage,
    classifier_coverage,
    group_coverage,
    intersectional_coverage,
    multiple_coverage,
)
from repro.core.results import LedgerWindow
from repro.crowd.backends import InlineBackend, LatencyModelBackend
from repro.crowd.oracle import CrowdOracle, FlakyOracle, GroundTruthOracle, Oracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.reliability import AdaptiveAssignmentPolicy
from repro.crowd.workers import make_worker_pool
from repro.data.dataset import LabeledDataset
from repro.data.groups import Negation, SuperGroup, group
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex, ShardExecutor
from repro.data.synthetic import intersectional_dataset
from repro.engine import QueryEngine
from repro.engine.requests import IndexKey
from repro.errors import BudgetExceededError
from repro.service import AuditService, InMemoryJobStore
from repro.serving.worker import QueryLoggingOracle

SCHEMA = Schema.from_dict({"gender": ["male", "female"], "race": ["white", "black", "asian"]})
FEMALE = group(gender="female")
PREDICATES = (
    FEMALE,
    group(gender="female", race="black"),
    SuperGroup([group(race="black"), group(gender="female", race="white")]),
    Negation(group(gender="male")),
)
RACES = tuple(group(race=value) for value in ("white", "black", "asian"))
KINDS = ("group", "base", "multiple", "intersectional", "classifier")
DRIVERS = ("legacy", "run", "run_many", "service-inline", "service-latency")
# (layout, executor) pairs: a process pool needs a picklable chunk source.
LAYOUTS = [("dense", "serial")] + [("from_dataset", e) for e in ("serial", "threads")]
LAYOUTS += [("from_memmap", e) for e in ("serial", "threads", "processes")]


@dataclass(frozen=True)
class Config:
    """One point of the configuration space."""

    kind: str = "group"
    data_seed: int = 0
    n_rows: int = 300
    predicate: int = 0
    tau: int = 20
    n: int = 50
    view: bool = False
    layout: str = "dense"
    shard_size: int = 64
    max_resident_shards: int = 2
    max_cached_prefixes: int | None = None
    executor: str = "serial"
    driver: str = "legacy"
    engine: tuple[int, int] | None = None  # (batch_size, speculation)
    oracle: str = "truth"
    kill: int | None = None
    seed: int = 1
    tenants: int = 1  # service drivers: identical jobs, one per tenant
    rerun: int | None = None  # session drivers: then a group run at this tau

    def dense(self) -> "Config":
        """The same draw on the dense layout and the serial executor."""
        return dataclasses.replace(self, layout="dense", executor="serial",
            shard_size=64, max_resident_shards=2, max_cached_prefixes=None)

    def reference(self) -> "Config":
        """Legacy functions pay every run afresh: a rerun needs a session."""
        legacy = self.engine is None and self.rerun is None
        return dataclasses.replace(self.dense(), kill=None,
            driver="legacy" if legacy else self.driver)


@st.composite
def configurations(draw) -> Config:
    driver = draw(st.sampled_from(DRIVERS))
    engine = st.tuples(st.integers(1, 24), st.integers(0, 3))
    layout, executor = draw(st.sampled_from(LAYOUTS))
    n_rows = draw(st.integers(80, 250))
    return Config(
        kind=draw(st.sampled_from(KINDS)), data_seed=draw(st.integers(0, 2**16)), n_rows=n_rows,
        predicate=draw(st.integers(0, len(PREDICATES) - 1)),
        tau=draw(st.integers(1, 30)), n=draw(st.integers(2, 60)), view=draw(st.booleans()),
        layout=layout, shard_size=draw(st.integers(7, n_rows)),
        max_resident_shards=draw(st.integers(1, 4)),
        max_cached_prefixes=draw(st.none() | st.integers(1, 4)),
        executor=executor, driver=driver,
        engine=draw(engine if driver.startswith("service") else st.none() | engine),
        oracle=draw(st.sampled_from(("truth", "flaky", "crowd", "adaptive"))),
        kill=None if driver == "legacy" else draw(st.none() | st.integers(1, 80)),
        seed=draw(st.integers(0, 2**16)),
    )


@functools.lru_cache(maxsize=None)
def dataset_codes(data_seed: int, n_rows: int) -> np.ndarray:
    """Drawn subgroup counts, mostly white men: minorities straddle tau."""
    rng = np.random.default_rng(data_seed)
    cells = [(g, r) for g in ("male", "female") for r in ("white", "black", "asian")]
    counts = rng.multinomial(n_rows, rng.dirichlet((12.0, 1.0, 1.0, 2.0, 0.5, 0.5)))
    joint = {cell: int(count) for cell, count in zip(cells, counts)}
    return intersectional_dataset(SCHEMA, joint, rng=rng).codes


class RowAtATimeOracle(Oracle):
    """Reference semantics: every object evaluated in plain Python."""

    def __init__(self, dataset: LabeledDataset) -> None:
        super().__init__(dataset.schema)
        self.rows = [dataset.value_row(i) for i in range(len(dataset))]

    def _answer_set(self, indices, predicate, index_key) -> bool:
        return any(predicate.matches_row(self.rows[int(i)]) for i in indices)

    def _answer_point(self, index: int) -> dict[str, str]:
        return dict(self.rows[index])


class Env:
    """The module's executors and memmap files, shared by every draw."""

    def __init__(self, tmp_path, pool: ShardExecutor, threads: ShardExecutor):
        self.tmp_path = tmp_path
        self.executors = {"serial": None, "threads": threads, "processes": pool}

    def layout(self, config: Config):
        """A fresh dataset in the draw's layout, and the index over it."""
        dense = LabeledDataset(SCHEMA, dataset_codes(config.data_seed, config.n_rows))
        if config.layout == "dense":
            return dense, ShardedMembershipIndex.for_dataset(dense)
        shards = dict(
            executor=self.executors[config.executor],
            max_resident_shards=config.max_resident_shards,
        )
        if config.layout == "from_dataset":
            dataset = ShardedDataset.from_dataset(dense, config.shard_size, **shards)
        else:
            path = self.tmp_path / f"codes-{config.data_seed}-{config.n_rows}.npy"
            if not path.exists():
                np.save(path, dense.codes)
            dataset = ShardedDataset.from_memmap(SCHEMA, str(path), config.shard_size, **shards)
        if config.max_cached_prefixes is None:
            return dataset, ShardedMembershipIndex.for_dataset(dataset)
        return dataset, ShardedMembershipIndex(
            dataset, max_cached_prefixes=config.max_cached_prefixes
        )

    def oracle(self, config: Config) -> Oracle:
        # Only ground truth takes the index; other kinds use the default.
        dataset, index = self.layout(config)
        if config.oracle == "rows":
            return RowAtATimeOracle(dataset)
        if config.oracle == "truth":
            return GroundTruthOracle(dataset, index=index)
        rng = np.random.default_rng(config.seed)
        if config.oracle == "flaky":
            return FlakyOracle(dataset, rng, set_error_rate=0.08, point_error_rate=0.05)
        adaptive = config.oracle == "adaptive"
        workers = make_worker_pool(12, rng, error_rate=0.05, spammer_fraction=0.25 * adaptive)
        policy = AdaptiveAssignmentPolicy(log_odds_threshold=3.5) if adaptive else None
        platform_rng = np.random.default_rng(config.seed + 1)
        return CrowdOracle(CrowdPlatform(dataset, workers, platform_rng, reliability=policy))


def make_spec(config: Config):
    view = None
    if config.view:
        rng = np.random.default_rng([config.data_seed, 1])
        size = int(rng.integers(1, config.n_rows + 1))
        view = tuple(int(i) for i in np.sort(rng.choice(config.n_rows, size, replace=False)))
    predicate, tau, n = PREDICATES[config.predicate], config.tau, config.n
    if config.kind == "group":
        return GroupAuditSpec(predicate=predicate, tau=tau, n=n, view=view)
    if config.kind == "base":
        return BaseAuditSpec(predicate=predicate, tau=tau, view=view)
    if config.kind == "multiple":
        return MultipleAuditSpec(groups=RACES, tau=tau, n=n, view=view)
    if config.kind == "intersectional":
        return IntersectionalAuditSpec(schema=SCHEMA, tau=tau, n=n, view=view)
    codes = dataset_codes(config.data_seed, config.n_rows)
    noise = np.random.default_rng([config.data_seed, 2]).random(config.n_rows) < 0.02
    predicted = tuple(int(i) for i in np.flatnonzero((codes[:, 0] == 1) ^ noise))
    return ClassifierAuditSpec(group=FEMALE, tau=tau, n=n, predicted_positive=predicted)


def run_legacy(oracle, spec, engine, rng, dataset_size):
    """Run ``spec`` through its legacy function form."""
    common = dict(view=spec.view_array(), dataset_size=dataset_size)
    if isinstance(spec, BaseAuditSpec):
        return base_coverage(oracle, spec.predicate, spec.tau, **common)
    common["n"] = spec.n
    if isinstance(spec, ClassifierAuditSpec):
        positives = spec.predicted_positive_array()
        return classifier_coverage(oracle, spec.group, spec.tau, positives, rng=rng, **common)
    common["engine"] = engine
    if isinstance(spec, GroupAuditSpec):
        return group_coverage(oracle, spec.predicate, spec.tau, **common)
    if isinstance(spec, MultipleAuditSpec):
        return multiple_coverage(oracle, spec.groups, spec.tau, rng=rng, **common)
    return intersectional_coverage(oracle, spec.schema, spec.tau, rng=rng, **common)


@dataclass
class Outcome:
    reports: tuple[AuditReport, ...]  # one per job
    paid: int  # tasks charged across every oracle the run built
    hits: int  # crowd HITs published across those oracles
    state: tuple  # sampling rng, oracle noise rng, reliability state
    paid_queries: list[list[str]]  # charged QueryLoggingOracle lines, per oracle built


def oracle_state(oracle) -> tuple:
    source = getattr(oracle, "platform", oracle)
    policy, rng = getattr(source, "reliability", None), getattr(source, "rng", None)
    return (rng and rng.bit_generator.state, policy and policy.state_dict())


def execute(config: Config, env: Env) -> Outcome:
    """Run one configuration end to end, through a kill and a resume
    when it draws one."""
    spec = make_spec(config)
    built: list[tuple[Oracle, io.StringIO]] = []

    def fresh():
        raw, log = env.oracle(config), io.StringIO()
        built.append((raw, log))
        return QueryLoggingOracle(raw, log)

    oracle = fresh()
    batching = dict(zip(("batch_size", "speculation"), config.engine or ()))
    sampling = answer_log = None
    if config.driver == "legacy":
        rng = np.random.default_rng(config.seed)
        engine = None if config.engine is None else QueryEngine(oracle, **batching)
        window = LedgerWindow(oracle.ledger)
        result = run_legacy(oracle, spec, engine, rng, config.n_rows)
        stats = engine and engine.stats
        reports = (AuditReport((AuditEntry(spec, result),), window.usage(), stats, 0.0),)
        sampling = rng.bit_generator.state
    elif config.driver in ("run", "run_many"):
        engine = None if config.engine is None else True
        session = AuditSession(oracle, engine=engine, seed=config.seed, task_budget=config.kill,
                               dataset_size=config.n_rows, **batching)
        try:
            with session:
                run = session.run if config.driver == "run" else session.run_many
                reports = (run(spec if config.driver == "run" else [spec]),)
                if config.rerun is not None:
                    again = make_spec(dataclasses.replace(config, kind="group", tau=config.rerun))
                    reports += (run(again if config.driver == "run" else [again]),)
        except BudgetExceededError:
            with AuditSession.resume(session.checkpoint(), fresh()) as session:
                reports = (session.run_pending(),)
        sampling = session.rng.bit_generator.state
        answer_log = json.loads(session.checkpoint())
    else:
        def backend(proxy):
            if config.driver == "service-inline":
                return InlineBackend(proxy)
            return LatencyModelBackend(proxy, rng=np.random.default_rng(config.seed))

        store = InMemoryJobStore()  # drain() writes the answer log to it
        service = AuditService(oracle, backend=backend, seed=config.seed, job_store=store,
                               task_budget=config.kill, **batching)
        try:
            with service:
                # A second tenant's job derives its seed from the service's.
                jobs = [
                    service.submit(spec, tenant=f"t{k}", seed=None if k else config.seed)
                    for k in range(config.tenants)
                ]
                service.drain()
                reports = tuple(job.result() for job in jobs)
        except BudgetExceededError:
            with AuditService.resume(store, fresh(), backend=backend) as service:
                service.drain()
                reports = tuple(service.handle(job.job_id).result() for job in jobs)
        answer_log = store.load_answers()

    paid_queries: list[list[str]] = []
    for raw, log in built:
        lines = log.getvalue().splitlines()
        # Queries are logged once charged: even the run the budget
        # stopped logged only what it paid for.
        unpaid = len(lines) - raw.ledger.total
        assert unpaid == 0
        paid_queries.append(lines[: raw.ledger.total])
    paid = sum(raw.ledger.total for raw, _ in built)
    if answer_log is not None:  # the answer log is exactly the bill
        assert len(answer_log["set_answers"]) + len(answer_log["point_answers"]) == paid
    return Outcome(
        reports=reports,
        paid=paid,
        hits=sum(raw.platform.ledger.n_hits for raw, _ in built if hasattr(raw, "platform")),
        state=(sampling, oracle_state(built[-1][0])),
        paid_queries=paid_queries,
    )


@functools.lru_cache(maxsize=None)
def reference_outcome(config: Config) -> Outcome:
    """References need neither executors nor files, so draws share them."""
    return execute(config, Env(None, None, None))


def fingerprint(reports: tuple[AuditReport, ...], *, usage: bool) -> list:
    """The reports bit for bit, wall clocks aside (with the printed
    verdicts) — or, without ``usage``, as plain data without task counts
    and engine counters: what a kill may not change."""
    if usage:
        return [
            (r.results, r.tasks, r.engine_stats, [x.describe() for x in r.results])
            for r in reports
        ]

    def strip(value):
        if isinstance(value, dict):
            drop = ("tasks", "engine_stats", "wall_clock_seconds")
            return {key: strip(item) for key, item in value.items() if key not in drop}
        return [strip(item) for item in value] if isinstance(value, list) else value

    return [strip(report.to_dict()) for report in reports]


def rows_outcome(config: Config) -> Outcome:
    """The draw's sequential run over the row-at-a-time oracle: a legacy
    run, or a session run when the draw reruns."""
    return reference_outcome(dataclasses.replace(config.reference(), engine=None,
        driver="legacy" if config.rerun is None else "run", oracle="rows", tenants=1))


def group_runs(report: AuditReport) -> int:
    """Group-Coverage runs that may stop early: one per super-group and
    group entry of a Multiple-Coverage (leaf) report, else one."""
    result = getattr(report.result, "leaf_report", report.result)
    return len(getattr(result, "super_groups", ())) + len(getattr(result, "entries", (0,)))


def check(config: Config, env: Env) -> None:
    """Run ``config`` and its reference and apply the one rule (see
    docs/architecture.md): layout, executor, kill/resume and the
    sequential driver change neither reports nor bill, rng or
    reliability state. Over ground truth, runs keep the row-at-a-time
    oracle's verdicts, and engine runs stay within its bill and rounds."""
    reference = reference_outcome(config.reference())
    outcome = reference if config == config.reference() else execute(config, env)
    for report in outcome.reports:
        assert AuditReport.from_json(report.to_json()) == report
    # No query is paid twice, within a run or across a kill, whatever the oracle.
    asked = [query for segment in outcome.paid_queries for query in segment]
    assert len(set(asked)) == len(asked)
    if config.kill is not None and reference.paid > config.kill:
        assert len(outcome.paid_queries) == 2  # the kill struck; the run resumed

    # A kill restarts a flaky or fixed fan-out oracle's noise (GAPS), so
    # such a draw must equal the same kill on the dense serial layout.
    exact = config.kill is None or config.oracle in ("truth", "adaptive")
    expected = reference if exact else reference_outcome(config.dense())
    usage = config.kill is None or not exact
    assert fingerprint(outcome.reports, usage=usage) == fingerprint(expected.reports, usage=usage)
    assert (outcome.paid, outcome.hits, outcome.state) == (
        expected.paid, expected.hits, expected.state)
    assert exact or outcome.paid_queries == expected.paid_queries

    if config.oracle == "truth":
        rows = rows_outcome(config)
        if config.engine is None:
            ours, theirs = reference.reports, rows.reports
            assert fingerprint(ours, usage=True) == fingerprint(theirs, usage=True)
        else:
            (ours, *_), (theirs,) = reference.reports, rows.reports
            assert fingerprint([ours], usage=False) == fingerprint([theirs], usage=False)
            batch_size, speculation = config.engine
            exhausted = config.kind == "group" and not theirs.result.covered
            spare = 0 if exhausted else speculation * group_runs(theirs)
            assert ours.tasks.total - theirs.tasks.total <= spare
            assert batch_size == 1 or ours.tasks.n_rounds <= theirs.tasks.n_rounds


def answer_surface(index, runs, scattereds, points, batch) -> list:
    """Every query surface of one index, flattened into a list."""
    answers = []
    starts, stops = np.array(runs, dtype=np.int64).T
    for p in PREDICATES:
        keys = [IndexKey.of_run(a, b) for a, b in runs] + [IndexKey.of(s) for s in scattereds]
        answers += [(index.count(p, key), index.any_match(p, key)) for key in keys]
        answers.append(list(index.any_match_runs(p, starts, stops)))
        answers += [index.matches(p, i) for i in points]
    answers.append(list(index.any_match_batch(batch)))
    return answers


def mask_surface(dense, runs, scattereds, points, batch) -> list:
    """:func:`answer_surface` computed with NumPy over the dense
    dataset's masks: the reference every layout must equal."""
    answers = []
    for p in PREDICATES:
        mask = dense.mask(p)
        picks = [mask[a:b] for a, b in runs] + [mask[s] for s in scattereds]
        answers += [(int(m.sum()), bool(m.any())) for m in picks]
        answers.append([bool(mask[a:b].any()) for a, b in runs])
        answers += [bool(mask[i]) for i in points]
    answers.append([bool(dense.mask(p)[key.to_array()].any()) for key, p in batch])
    return answers


def check_surface(config: Config, env: Env) -> None:
    """Ask the draw's layout everything through a ground-truth oracle
    (first, so its batch meets an index with no totals) and its index,
    against the dense dataset; compare ``ShardStats`` where deterministic."""
    n = config.n_rows
    rng = np.random.default_rng([config.data_seed, 3])
    runs = [tuple(sorted(int(x) for x in rng.integers(0, n + 1, size=2))) for _ in range(6)]
    empty = int(rng.integers(0, n))
    runs += [(0, n), (empty, empty)]
    scattereds = [np.sort(rng.choice(n, int(rng.integers(1, 60)), replace=False)) for _ in range(3)]
    scattereds += [np.empty(0, dtype=np.int64)]
    points = [int(x) for x in rng.integers(0, n, size=8)]
    dense = LabeledDataset(SCHEMA, dataset_codes(config.data_seed, n))
    keyed = [(IndexKey.of_run(a, b), p) for p in PREDICATES for a, b in runs[:3]]
    keyed += [(IndexKey.of(s), p) for p in PREDICATES[:2] for s in scattereds]
    batch = [(key.to_array(), p) for key, p in keyed]
    expected = mask_surface(dense, runs, scattereds, points, keyed)
    rows = RowAtATimeOracle(dense)

    def ask(config):
        dataset, index = env.layout(config)
        oracle = GroundTruthOracle(dataset, index=index)
        answers = oracle.ask_set_batch(batch)
        assert [oracle.ask_set(i, p) for i, p in batch] == answers
        assert answers == [rows.ask_set(i, p) for i, p in batch]
        assert oracle.ask_point_batch(points) == [rows.ask_point(i) for i in points]
        assert answer_surface(index, runs, scattereds, points, keyed) == expected
        assert index.value_rows(points) == [dense.value_row(i) for i in points]
        return dataset

    dataset = ask(config)
    if config.layout == "dense" or config.executor == "processes":
        return
    # Serial builds ledger deterministically; threaded ones too when
    # nothing can evict, and then every shard loads exactly once.
    never_evicts = config.max_resident_shards >= dataset.n_shards
    if config.executor == "serial" or never_evicts:
        assert dataset.stats == ask(dataclasses.replace(config, executor="serial")).stats
    if never_evicts:
        assert (dataset.stats.loads, dataset.stats.evictions) == (dataset.n_shards, 0)


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    with ShardExecutor(mode="processes", max_workers=2) as pool, \
            ShardExecutor(mode="threads", max_workers=3) as threads:
        yield Env(tmp_path_factory.mktemp("differential"), pool, threads)


def budget(tier1: int) -> int:
    """``tier1`` examples, or the ``differential-wide`` profile's budget
    when pytest runs with ``--hypothesis-profile=differential-wide``."""
    if settings.get_current_profile_name() == "differential-wide":
        return settings.default.max_examples
    return tier1


@settings(deadline=None, derandomize=True, max_examples=budget(16))
@given(config=configurations())
def test_configuration_space(env, config):
    check(config, env)


@settings(deadline=None, derandomize=True, max_examples=budget(10))
@given(config=configurations())
def test_index_surface(env, config):
    check_surface(config, env)


ENGINE = (32, 1)  # a session's engine=True defaults
MODES = {"sequential": None, "engine": ENGINE}
SEEDS = [3, 11, 29]
SHARDED = dict(layout="from_dataset", shard_size=96)
BATCH = dict(driver="run_many", engine=ENGINE)


def cases(name: str, **fields) -> dict[str, Config]:
    """A configuration per combination of the list-, range- or dict-valued
    fields (a dict maps labels to values), named ``name-label-...`` like
    the former suites' parametrized cases."""
    axes = {k: v if isinstance(v, dict) else {x: x for x in v}
            for k, v in fields.items() if isinstance(v, (list, range, dict))}
    return {
        "-".join(map(str, (name, *labels))):
            Config(**{**fields, **{k: axes[k][x] for k, x in zip(axes, labels)}})
        for labels in itertools.product(*axes.values())
    }


#: Every case a former pairwise suite pinned, under that case's name.
NAMED = {
    # sequential sessions equal the legacy functions bit for bit
    **cases("test_group_coverage", predicate=1, tau=60, n=40, driver="run", data_seed=SEEDS),
    **cases("test_group_coverage_noisy_oracle", tau=40, driver="run", oracle="flaky",
            data_seed=SEEDS),
    **cases("test_base_coverage", kind="base", predicate=1, driver="run", data_seed=SEEDS),
    **cases("test_multiple_coverage", kind="multiple", tau=50, driver="run", data_seed=SEEDS),
    **cases("test_intersectional_coverage", kind="intersectional", tau=40, driver="run",
            data_seed=SEEDS),
    **cases("test_classifier_coverage", kind="classifier", tau=60, driver="run", data_seed=SEEDS),
    "test_classifier_coverage-label": Config(kind="classifier", data_seed=6, tau=25, driver="run"),
    "test_run_many_matches_individual_runs_sequentially": Config(driver="run_many"),
    # engine sessions keep verdicts, counts and members
    **cases("test_group_coverage_verdicts", tau=60, driver="run", engine=ENGINE, data_seed=SEEDS),
    **cases("test_multiple_coverage_verdicts", kind="multiple", tau=50, driver="run",
            engine=ENGINE, data_seed=SEEDS),
    **cases("test_report_json_round_trip_is_exact", kind="base", tau=10, data_seed=SEEDS, **BATCH),
    # engine legacy functions against the row-at-a-time reference
    **cases("test_randomized_verdict_count_and_members", tau=[1, 20, 75], data_seed=range(6),
            n=23, engine=(16, 1)),
    **cases("test_randomized_entries_match", kind="multiple", tau=40, n=30, engine=(16, 1),
            data_seed=range(4)),
    **cases("test_zero_speculation_never_costs_extra_tasks", kind="multiple", tau=40, n=30,
            engine=(16, 0), data_seed=range(4)),
    "test_same_mups_and_leaf_verdicts": Config(kind="intersectional", tau=50, engine=(16, 1)),
    # vectorized answering against the row-at-a-time reference
    **cases("test_group_coverage_bit_identical", predicate=range(4), data_seed=range(3),
            tau=25, n=7, view=True),
    **cases("test_group_coverage_flaky_bit_identical", n=16, oracle="flaky",
            layout="from_memmap", data_seed=range(8)),
    **cases("test_multiple_coverage_bit_identical", kind="multiple", tau=12, n=20,
            data_seed=range(4), engine=MODES),
    **cases("test_intersectional_coverage_bit_identical", kind="intersectional", tau=9, n=16,
            data_seed=range(3)),
    # sharded layouts and executors change nothing
    **cases("test_group_audit_bit_identical_over_sharded_oracle", n_rows=1500, tau=50,
            driver="run_many", layout="from_dataset", shard_size=[256, 1000, 8192], engine=MODES),
    **cases("test_multiple_audit_bit_identical_over_sharded_oracle", kind="multiple", tau=50,
            driver="run_many", engine=MODES, **SHARDED),
    **cases("test_intersectional_audit_bit_identical_over_sharded_oracle", kind="intersectional",
            tau=50, max_resident_shards=3, driver="run_many", engine=MODES, **SHARDED),
    "test_threaded_executor_keeps_bit_identity":
        Config(tau=50, layout="from_memmap", executor="threads", **BATCH),
    "test_flaky_oracle_consumes_identical_rng_stream":
        Config(tau=50, oracle="flaky", **BATCH, **SHARDED),
    "test_crowd_platform_answers_from_sharded_hidden_truth":
        Config(tau=40, driver="run_many", oracle="crowd", **SHARDED),
    "test_audit_service_runs_sharded_jobs_bit_identically":
        Config(tau=30, driver="service-inline", engine=ENGINE, tenants=2, **SHARDED),
    # an object two super-groups discover over noisy labels is paid once
    "noisy_labels_label_each_object_once": Config(kind="intersectional", n_rows=80, tau=7, n=2,
        oracle="flaky", seed=65536),
    # two tenants' jobs pay once for a point both ask
    "jobs_pay_once_for_a_shared_point": Config(kind="base", tau=5, driver="service-inline",
        engine=ENGINE, tenants=2),
    # a resumed job re-derives the negatives a replayed super-group "no" implies
    "kill_resume_rederives_implied_negatives": Config(kind="multiple", data_seed=0, n_rows=80,
        tau=2, n=2, driver="service-inline", engine=(1, 0), oracle="truth", kill=5, seed=0),
    # a layout that cannot pin answers a sampled view's scattered keys
    # shard-major, with no prefix table
    **cases("unpinnable_layout_gathers_shard_major", kind=["group", "multiple", "intersectional"],
            executor=["serial", "threads", "processes"], n_rows=600, tau=12, view=True,
            layout="from_memmap", max_cached_prefixes=1, **BATCH),
    # a sequential run on a sampled view killed inside its fifth FIFO
    # generation (asks 25 to 42); the resumed run re-asks nothing
    "sequential_scattered_view_killed_mid_generation": Config(data_seed=5, tau=25, n=24,
        view=True, driver="run", kill=33),
    # a second run over a predicate the first paid for takes the proxy's
    # per-query loop: held answers free, fresh ones paid once
    **cases("second_run_over_a_paid_predicate", oracle=["truth", "flaky"], data_seed=3, tau=8,
            n=16, driver=["run", "run_many"], rerun=20),
    # the mixed axes no pairwise suite reached
    "processes_adaptive_kill_resume": Config(kind="multiple", n_rows=4000, tau=20, driver="run",
        engine=ENGINE, oracle="adaptive", layout="from_memmap", shard_size=512,
        executor="processes", kill=60),
}

NAMED_SURFACES = {
    **cases("test_executor_modes_are_bit_identical", data_seed=range(4), layout="from_memmap",
            shard_size=90, executor="processes"),
    **cases("test_shard_stats_accounting_identical_where_deterministic", data_seed=[5, 6],
            max_resident_shards=16, executor="threads", **SHARDED),
    **cases("test_oracle_answers_match_per_query", data_seed=range(6)),
}


#: Named engine cases whose batching must save round trips.
FEWER_ROUNDS = ("test_group_coverage_verdicts", "test_randomized_entries_match",
                "test_zero_speculation_never_costs_extra_tasks", "test_same_mups_and_leaf_verdicts")


@pytest.mark.parametrize("name", NAMED)
def test_named_configuration(env, name):
    check(NAMED[name], env)
    if name.startswith(FEWER_ROUNDS):
        engine = reference_outcome(NAMED[name].reference()).reports[0]
        assert engine.tasks.n_rounds < rows_outcome(NAMED[name]).reports[0].tasks.n_rounds


@pytest.mark.parametrize("config", NAMED_SURFACES.values(), ids=NAMED_SURFACES.keys())
def test_named_surface(env, config):
    check_surface(config, env)


gap = functools.partial(pytest.mark.xfail, strict=True)

#: Known gaps, each a draw that breaks the rule without its carve-outs.
GAPS = [
    pytest.param(Config(tau=40, driver="run", oracle=oracle, kill=20),
                 id=f"kill_restarts_{oracle}_noise",
                 marks=gap(reason=f"checkpoints do not carry the {oracle} oracle's rng"))
    for oracle in ("flaky", "crowd")
]


@pytest.mark.parametrize("config", GAPS)
def test_known_gap(env, config):
    """Exact across a kill whatever the oracle, and no query paid twice."""
    outcome = execute(config, env)
    assert outcome.state == reference_outcome(config.reference()).state
    asked = [query for segment in outcome.paid_queries for query in segment]
    assert len(set(asked)) == len(asked)
