"""`AuditSession`: the one entry point for coverage auditing.

The paper frames coverage auditing as a workflow — pick target groups,
spend a crowd budget, get verdicts and MUPs. A session is that workflow
reified: it binds the *execution state* once (oracle, optional
:class:`~repro.engine.QueryEngine`, rng, task budget, dataset size) and
then runs any number of declarative :mod:`~repro.audit.specs` against
it::

    with AuditSession(oracle, engine=True, seed=7) as session:
        report = session.run(GroupAuditSpec(predicate=female, tau=50))
        batch = session.run_many([GroupAuditSpec(predicate=g, tau=50)
                                  for g in minorities])

Every run returns an :class:`~repro.audit.report.AuditReport` envelope
with lossless JSON round-tripping, and :meth:`run_many` schedules all
group specs as concurrent steppers on the session engine, so cross-spec
deduplication comes free through the shared answer cache.

Checkpoint / resume
-------------------
Crowd answers cost money; a session never forgets one.
:meth:`AuditSession.checkpoint` (typically after a
:class:`~repro.errors.BudgetExceededError`) writes the answer log of
:mod:`repro.audit.proxy` — every paid set and point answer — and
:meth:`AuditSession.resume` revives it: re-running the interrupted spec
replays the paid prefix for free and continues from the frontier.
Determinism makes this exact — the steppers re-issue the same
queries in the same order, and rng-dependent specs re-draw the same
samples because the checkpoint records the generator's exact stream
state as of the interrupted spec's start (however the rng was provided).

Legacy functions
----------------
The five function forms (``group_coverage`` & friends) are thin wrappers
over specs and share this module's execution path, so mixing them with
sessions is safe — but calling them with an *ad-hoc* ``engine=`` while a
session is active on the same oracle forfeits the session's cache and
batching; that pattern draws a one-shot :class:`DeprecationWarning` (see
:func:`warn_on_adhoc_engine`).
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Iterable

import numpy as np

from repro.audit.proxy import RecordingOracleProxy, _infer_dataset_size
from repro.audit.report import AuditEntry, AuditReport
from repro.audit.runners import make_group_stepper, run_spec
from repro.audit.specs import AuditSpec, GroupAuditSpec, spec_from_dict
from repro.core.results import LedgerWindow, TaskUsage
from repro.crowd.oracle import Oracle
from repro.engine.scheduler import QueryEngine
from repro.errors import (
    BudgetExceededError,
    CheckpointVersionError,
    InvalidParameterError,
)

__all__ = [
    "AuditProgress",
    "AuditSession",
    "warn_on_adhoc_engine",
]

#: Version 2 serializes contiguous-run index keys as compact
#: ``{"run": [start, stop]}`` endpoints instead of exhaustive index
#: lists; version-1 checkpoints (always exhaustive lists) remain readable.
#: Version 3 adds the ``reliability`` section (its own versioned
#: :class:`~repro.crowd.reliability.ReliabilitySnapshot` payload, or
#: ``None`` for sessions without a reliability-enabled platform);
#: version-1/2 checkpoints remain readable.
_CHECKPOINT_VERSION = 3
_READABLE_CHECKPOINT_VERSIONS = frozenset({1, 2, 3})

#: Sessions currently inside their ``with`` block, for the legacy-path
#: DeprecationWarning. Module-level and identity-based; sessions
#: unregister on exit.
_ACTIVE_SESSIONS: list["AuditSession"] = []

ADHOC_ENGINE_WARNING = (
    "called with an ad-hoc engine= while an AuditSession is active on the "
    "same oracle; route the audit through session.run(spec) so queries "
    "share the session's engine and answer cache"
)


def warn_on_adhoc_engine(function_name: str, oracle: Oracle, engine: object) -> None:
    """Emit the legacy-path DeprecationWarning (once per session).

    Fires when a legacy function form is handed its own ``engine=`` while
    a session is active on the same oracle — the query stream then splits
    across two caches and the session's batching is bypassed. Passing the
    session's own engine is fine; so is sequential use (``engine=None``).
    The warning is a standard :class:`DeprecationWarning`, suppressible
    with the usual :mod:`warnings` filters.
    """
    if engine is None:
        return
    for session in _ACTIVE_SESSIONS:
        if session._covers_oracle(oracle) and session.engine is not engine:
            if not session._warned_adhoc_engine:
                session._warned_adhoc_engine = True
                warnings.warn(
                    f"{function_name}() {ADHOC_ENGINE_WARNING}",
                    DeprecationWarning,
                    stacklevel=3,
                )
            return


@dataclass(frozen=True)
class AuditProgress:
    """One progress event delivered to a session's callback.

    ``stage`` is ``"start"`` (spec about to execute), ``"round"`` (an
    oracle round-trip completed), or ``"finish"`` (spec done). ``tasks``
    and ``rounds`` count crowd work since the current run/batch started.
    ``spec`` is ``None`` for the ``"round"`` events of a ``run_many``
    batch's concurrent group phase, which serve every spec in the batch
    at once.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import AuditSession, GroundTruthOracle, GroupAuditSpec
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.groups import group
    >>> ds = binary_dataset(500, 10, rng=np.random.default_rng(0))
    >>> stages = []
    >>> with AuditSession(GroundTruthOracle(ds),
    ...                   progress=lambda p: stages.append(p.stage)) as session:
    ...     _ = session.run(GroupAuditSpec(predicate=group(gender="female"), tau=5))
    >>> stages[0], stages[-1], "round" in stages
    ('start', 'finish', True)
    """

    spec: AuditSpec | None
    stage: str
    tasks: int
    rounds: int


class AuditSession:
    """Shared execution state for a batch of coverage audits.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import AuditSession, GroundTruthOracle, GroupAuditSpec
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.groups import group
    >>> ds = binary_dataset(1_000, 30, rng=np.random.default_rng(0))
    >>> with AuditSession(GroundTruthOracle(ds), engine=True) as session:
    ...     report = session.run(GroupAuditSpec(predicate=group(gender="female"),
    ...                                         tau=50))
    >>> report.result.covered, report.result.count
    (False, 30)

    Parameters
    ----------
    oracle:
        The answer source every spec run is charged to.
    engine:
        ``None`` (default) runs specs sequentially — the paper's
        execution model, bit-identical to the legacy function forms.
        ``True`` creates a :class:`~repro.engine.QueryEngine` over the
        session's oracle (pass ``batch_size``/``speculation`` to tune
        it); an existing :class:`~repro.engine.QueryEngine` instance over
        the same oracle is adopted as-is.
    seed / rng:
        The randomness for sampling-based specs; at most one of the two.
        Checkpoints record the generator's exact stream state (not just
        the seed), so rng-dependent specs resume correctly either way.
    task_budget:
        Crowd-task ceiling, installed on the oracle's ledger for the
        session's lifetime (the previous budget is restored on
        :meth:`close`). Exhaustion raises
        :class:`~repro.errors.BudgetExceededError` mid-run; the answers
        already paid for survive in the session and can be checkpointed.
    dataset_size:
        Search-space size for specs with ``view=None``. Defaults to the
        size of the oracle's dataset when it exposes one.
    progress:
        Default progress callback (see :class:`AuditProgress`); a per-run
        ``on_progress=`` overrides it.
    """

    def __init__(
        self,
        oracle: Oracle,
        *,
        engine: "QueryEngine | bool | None" = None,
        batch_size: int | None = None,
        speculation: int | None = None,
        seed: int | None = None,
        rng: np.random.Generator | None = None,
        task_budget: int | None = None,
        dataset_size: int | None = None,
        progress: Callable[[AuditProgress], None] | None = None,
    ) -> None:
        self.oracle = oracle
        self._proxy = RecordingOracleProxy(oracle)

        if isinstance(engine, QueryEngine):
            if batch_size is not None or speculation is not None:
                raise InvalidParameterError(
                    "pass batch_size/speculation only when the session builds "
                    "its own engine (engine=True), not alongside an instance"
                )
            engine.ensure_executes_for(self._proxy)
            self.engine: QueryEngine | None = engine
        elif engine is True:
            self.engine = QueryEngine(
                self._proxy,
                **{
                    key: value
                    for key, value in (
                        ("batch_size", batch_size),
                        ("speculation", speculation),
                    )
                    if value is not None
                },
            )
        elif engine in (None, False):
            if batch_size is not None or speculation is not None:
                raise InvalidParameterError(
                    "batch_size/speculation require engine=True"
                )
            self.engine = None
        else:
            raise InvalidParameterError(
                "engine must be None, True, or a QueryEngine instance"
            )

        if seed is not None and rng is not None:
            raise InvalidParameterError("pass either seed or rng, not both")
        if task_budget is not None and task_budget <= 0:
            raise InvalidParameterError(
                f"task_budget must be positive, got {task_budget}; a "
                "session with no budget ceiling is task_budget=None"
            )
        self.seed = seed
        self.rng = rng if rng is not None else (
            np.random.default_rng(seed) if seed is not None else None
        )

        self.dataset_size = (
            dataset_size if dataset_size is not None else _infer_dataset_size(oracle)
        )
        self.progress = progress

        self._previous_budget: int | None = None
        self.task_budget = task_budget
        if task_budget is not None:
            self._previous_budget = oracle.ledger.budget
            oracle.ledger.budget = task_budget

        self._unfinished: list[AuditSpec] = []
        #: rng state captured at the start of the spec currently executing
        #: (None when idle) — what a checkpoint must record so a resumed
        #: re-run of that spec re-draws the same samples.
        self._inflight_rng_state: dict | None = None
        self._warned_adhoc_engine = False
        self._closed = False

    def _rng_state(self) -> dict | None:
        """The bound generator's serializable state, or ``None``."""
        return None if self.rng is None else dict(self.rng.bit_generator.state)

    # -- lifecycle --------------------------------------------------------
    def __enter__(self) -> "AuditSession":
        if self._closed:
            raise InvalidParameterError("session is closed and cannot be re-entered")
        _ACTIVE_SESSIONS.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Leave the active registry and restore the ledger's budget."""
        if self._closed:
            return
        self._closed = True
        if self in _ACTIVE_SESSIONS:
            _ACTIVE_SESSIONS.remove(self)
        if self.task_budget is not None:
            self.oracle.ledger.budget = self._previous_budget

    def _covers_oracle(self, oracle: Oracle) -> bool:
        return oracle is self.oracle or oracle is self._proxy

    @property
    def membership_index(self):
        """The :class:`~repro.data.sharded.ShardedMembershipIndex` the
        session's oracle answers from, when it exposes one (simulated
        oracles and platform-backed oracles do), else ``None``. Audits
        the session runs share this single index however many specs and
        steppers are in flight."""
        index = getattr(self.oracle, "membership_index", None)
        if index is None:
            index = getattr(
                getattr(self.oracle, "platform", None), "membership_index", None
            )
        return index

    @property
    def pending_specs(self) -> tuple[AuditSpec, ...]:
        """Specs that started but have not finished — populated by a
        failed run (budget exhaustion) or restored by :meth:`resume`."""
        return tuple(self._unfinished)

    def _mark_finished(self, spec: AuditSpec) -> None:
        try:
            self._unfinished.remove(spec)
        except ValueError:
            pass  # duplicate specs in one batch share a single entry

    # -- execution --------------------------------------------------------
    def run(
        self,
        spec: AuditSpec,
        *,
        on_progress: Callable[[AuditProgress], None] | None = None,
    ) -> AuditReport:
        """Execute one spec and wrap the outcome in an :class:`AuditReport`.

        Raises whatever the algorithm raises (notably
        :class:`~repro.errors.BudgetExceededError`); the spec then stays
        in :attr:`pending_specs` so a checkpoint can resume it.
        """
        callback = on_progress if on_progress is not None else self.progress
        started = time.perf_counter()
        ledger = self.oracle.ledger
        window = LedgerWindow(ledger)
        engine_before = self.engine.snapshot() if self.engine is not None else None

        if spec not in self._unfinished:
            self._unfinished.append(spec)
        on_round = _round_emitter(callback, spec, window)
        _emit(callback, spec, "start", window)

        self._inflight_rng_state = self._rng_state()
        try:
            result = run_spec(
                self._proxy,
                spec,
                engine=self.engine,
                rng=self.rng,
                dataset_size=self.dataset_size,
                on_round=on_round,
            )
        except BudgetExceededError:
            raise  # resumable: the spec stays pending for checkpoint()
        except BaseException:
            # Not resumable (validation errors, bugs): forget the spec so
            # it cannot poison a later checkpoint's pending list.
            self._mark_finished(spec)
            self._inflight_rng_state = None
            raise
        self._mark_finished(spec)
        self._inflight_rng_state = None

        tasks = window.usage()
        report = AuditReport(
            entries=(AuditEntry(spec=spec, result=result),),
            tasks=tasks,
            engine_stats=(
                self.engine.stats_since(engine_before)
                if self.engine is not None
                else None
            ),
            wall_clock_seconds=time.perf_counter() - started,
        )
        _emit(callback, spec, "finish", window)
        return report

    def run_many(
        self,
        specs: Iterable[AuditSpec],
        *,
        on_progress: Callable[[AuditProgress], None] | None = None,
    ) -> AuditReport:
        """Execute several specs as one batch; one envelope, N entries.

        On an engine session every :class:`~repro.audit.GroupAuditSpec`
        becomes a stepper and they all advance **concurrently** on the
        session engine: the ready frontiers of every tree batch into
        shared oracle round-trips and identical questions across specs
        are paid once (in-flight dedup + shared answer cache). Each group
        entry's ``result.tasks`` then carries the set queries dispatched
        *on its behalf* (shared queries are billed to the spec that
        caused the dispatch; round-trips are batch-level and live in the
        envelope's ``tasks``). Remaining spec kinds run afterwards, in
        input order, still sharing the engine's cache. Sequential
        sessions run everything in input order.

        Entry order always matches input order. Each spec gets one
        ``"start"`` event as it starts (the concurrent group specs all
        before their shared phase) and one ``"finish"`` at the end.
        ``"round"`` progress events of the concurrent group phase serve
        the whole batch and carry ``spec=None``; per-spec rounds are
        only meaningful for the sequentially-executed specs.
        """
        specs = tuple(specs)
        callback = on_progress if on_progress is not None else self.progress
        started = time.perf_counter()
        ledger = self.oracle.ledger
        window = LedgerWindow(ledger)
        engine_before = self.engine.snapshot() if self.engine is not None else None

        for spec in specs:
            if spec not in self._unfinished:
                self._unfinished.append(spec)

        results: dict[int, Any] = {}
        self._inflight_rng_state = self._rng_state()
        try:
            if self.engine is not None:
                concurrent = [
                    (position, spec)
                    for position, spec in enumerate(specs)
                    if type(spec) is GroupAuditSpec
                ]
                if concurrent:
                    for _, spec in concurrent:
                        _emit(callback, spec, "start", window)
                    steppers = {
                        position: make_group_stepper(
                            spec,
                            dataset_size=self.dataset_size,
                            speculation=self.engine.speculation,
                        )
                        for position, spec in concurrent
                    }
                    dispatched = self.engine.run(
                        [steppers[position] for position, _ in concurrent],
                        on_round=_round_emitter(callback, None, window),
                    )
                    for position, spec in concurrent:
                        stepper = steppers[position]
                        results[position] = stepper.result(
                            tasks=TaskUsage(
                                n_set_queries=dispatched.get(stepper, 0)
                            )
                        )
                        self._mark_finished(spec)
            for position, spec in enumerate(specs):
                if position in results:
                    continue
                self._inflight_rng_state = self._rng_state()
                _emit(callback, spec, "start", window)
                results[position] = run_spec(
                    self._proxy,
                    spec,
                    engine=self.engine,
                    rng=self.rng,
                    dataset_size=self.dataset_size,
                    on_round=_round_emitter(callback, spec, window),
                )
                self._mark_finished(spec)
        except BudgetExceededError:
            raise  # resumable: unfinished specs stay pending for checkpoint()
        except BaseException:
            for spec in specs:
                self._mark_finished(spec)
            self._inflight_rng_state = None
            raise
        self._inflight_rng_state = None

        tasks = window.usage()
        report = AuditReport(
            entries=tuple(
                AuditEntry(spec=spec, result=results[position])
                for position, spec in enumerate(specs)
            ),
            tasks=tasks,
            engine_stats=(
                self.engine.stats_since(engine_before)
                if self.engine is not None
                else None
            ),
            wall_clock_seconds=time.perf_counter() - started,
        )
        for spec in specs:
            _emit(callback, spec, "finish", window)
        return report

    # -- checkpoint / resume ----------------------------------------------
    def checkpoint(self) -> str:
        """Serialize every crowd answer this session paid for, plus the
        session's configuration and unfinished specs, as a JSON string.

        Feed it to :meth:`AuditSession.resume` (in this process or
        another) to continue without re-asking a single recorded query.
        """
        rng_state = (
            self._inflight_rng_state
            if self._inflight_rng_state is not None
            else self._rng_state()
        )
        return json.dumps(
            {
                "version": _CHECKPOINT_VERSION,
                "seed": self.seed,
                "rng_state": rng_state,
                "dataset_size": self.dataset_size,
                "engine": (
                    {
                        "batch_size": self.engine.batch_size,
                        "speculation": self.engine.speculation,
                    }
                    if self.engine is not None
                    else None
                ),
                "pending": [spec.to_dict() for spec in self._unfinished],
                **self._proxy.answer_log(),
            }
        )

    def reliability_report(self):
        """The :class:`~repro.crowd.reliability.ReliabilityReport` of the
        oracle's reliability-enabled platform, or ``None`` without one."""
        return self._proxy.reliability_report()

    @classmethod
    def resume(
        cls,
        checkpoint: str,
        oracle: Oracle,
        *,
        task_budget: int | None = None,
        progress: Callable[[AuditProgress], None] | None = None,
    ) -> "AuditSession":
        """Revive a session from a :meth:`checkpoint` string.

        The new session is bound to ``oracle`` (typically the same one,
        possibly with a raised budget via ``task_budget``), re-creates
        the engine from the recorded configuration, preloads every
        recorded answer for free replay, and restores
        :attr:`pending_specs` — re-running those reaches the same
        verdicts while paying only for queries the original session never
        asked. An unreadable checkpoint raises
        :class:`~repro.errors.CheckpointVersionError` before ``oracle``
        (its ledger budget included) is touched.
        """
        data = json.loads(checkpoint)
        version = data.get("version")
        if version not in _READABLE_CHECKPOINT_VERSIONS:
            raise CheckpointVersionError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads versions {sorted(_READABLE_CHECKPOINT_VERSIONS)})"
            )
        # Field extraction is wrapped narrowly so only the checkpoint's
        # own shape can produce a CheckpointVersionError — a KeyError
        # raised later by user code (oracle, progress callback) during
        # session construction must propagate untouched.
        try:
            engine_config = data["engine"]
            batch_size = (
                engine_config["batch_size"] if engine_config is not None else None
            )
            speculation = (
                engine_config["speculation"] if engine_config is not None else None
            )
            seed = data["seed"]
            dataset_size = data["dataset_size"]
            raw_pending = data["pending"]
        except KeyError as error:
            raise CheckpointVersionError(
                f"checkpoint declares version {version} but is missing the "
                f"{error.args[0]!r} field that version requires"
            ) from error
        log = RecordingOracleProxy.decode_answer_log(
            data, oracle, reliability=version >= 3, source="checkpoint"
        )
        rng = None
        rng_state = data.get("rng_state")
        if rng_state is not None:
            # Restore the generator to the exact stream position the
            # interrupted spec started from, so its sampling phase
            # re-draws identically on the resumed run. This works whether
            # the original session was built from seed= or a live rng.
            try:
                bit_generator = getattr(np.random, rng_state["bit_generator"])()
                bit_generator.state = rng_state
            except (KeyError, AttributeError, TypeError, ValueError) as error:
                raise CheckpointVersionError(
                    "checkpointed rng_state is not a bit-generator state "
                    "this build can restore — written by an incompatible "
                    f"version? ({error})"
                ) from error
            rng = np.random.Generator(bit_generator)
        try:
            pending = [spec_from_dict(spec) for spec in raw_pending]
        except CheckpointVersionError:
            raise
        except (KeyError, InvalidParameterError, ValueError) as error:
            # Missing fields, unknown spec kinds, and corrupt field
            # values alike mean "written by an incompatible build",
            # which is this error's contract.
            raise CheckpointVersionError(
                f"checkpointed pending spec is not readable by this build "
                f"({error}) — written by an incompatible checkpoint version?"
            ) from error
        session = cls(
            oracle,
            engine=True if engine_config is not None else None,
            batch_size=batch_size,
            speculation=speculation,
            seed=seed,
            task_budget=task_budget,
            dataset_size=dataset_size,
            progress=progress,
        )
        if rng is not None:
            session.rng = rng
        session._unfinished = pending
        session._proxy.replay(log)
        return session

    def run_pending(self) -> AuditReport:
        """Run everything :attr:`pending_specs` holds (after a resume)."""
        if not self._unfinished:
            raise InvalidParameterError("session has no pending specs to run")
        return self.run_many(tuple(self._unfinished))


def _emit(
    callback: Callable[[AuditProgress], None] | None,
    spec: AuditSpec | None,
    stage: str,
    window: LedgerWindow,
) -> None:
    """Deliver a ``stage`` event with ``window``'s totals, if anyone listens."""
    if callback is not None:
        usage = window.usage()
        callback(
            AuditProgress(spec=spec, stage=stage, tasks=usage.total, rounds=usage.n_rounds)
        )


def _round_emitter(
    callback: Callable[[AuditProgress], None] | None,
    spec: AuditSpec | None,
    window: LedgerWindow,
) -> Callable[[], None] | None:
    """A zero-arg hook emitting a ``"round"`` event with window totals."""
    if callback is None:
        return None
    return lambda: _emit(callback, spec, "round", window)
