"""`AuditService`: many audits, many tenants, one crowd.

The :class:`~repro.audit.AuditSession` binds execution state for *one*
caller; the service multiplexes **jobs** — audit specs submitted by any
number of tenants — over one shared
:class:`~repro.crowd.backends.CrowdBackend`, one
:class:`~repro.engine.QueryEngine`, and one recording proxy::

    service = AuditService(oracle, backend=lambda o: LatencyModelBackend(o))
    handle = service.submit(GroupAuditSpec(predicate=female, tau=50),
                            tenant="fairness-team", priority=1)
    service.drain()                  # or step() from your own loop
    report = handle.result()

Three properties fall out of the shared engine:

* **Overlap.** Every admitted audit keeps its frontier in flight at
  once; with a latency-modeling (or real) backend, eight concurrent
  audits finish in roughly the wall-clock of one
  (``benchmarks/bench_service.py`` measures it).
* **Cross-job dedup.** Two tenants asking the same set or point
  question pay once — the engine's in-flight table and the recording
  proxy's answer store do not care which job a query came from.
* **Crash safety.** Wrapped in a recording proxy, every paid answer can
  be checkpointed into a :class:`~repro.service.JobStore` together with
  per-job records; :meth:`AuditService.resume` revives every unfinished
  job and replays the paid prefix for free.

Scheduling is cooperative and fair-share: the service admits at most
``max_active_jobs`` concurrently, picking the next job from the tenant
with the fewest running jobs (ties broken by priority, then submission
order), so one tenant's bulk submission cannot starve another's single
urgent audit.

Group-coverage jobs interleave fully (they are steppers on the shared
engine). Other spec kinds execute when activated, blocking the service
loop for their duration — but still on the shared engine, so concurrent
group jobs keep advancing underneath them and every answer lands in the
shared cache.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable

import numpy as np

from repro.audit.proxy import RecordingOracleProxy, _infer_dataset_size
from repro.audit.report import AuditEntry, AuditReport
from repro.audit.runners import make_group_stepper, run_spec
from repro.audit.specs import AuditSpec, GroupAuditSpec, spec_from_dict
from repro.core.results import LedgerWindow, TaskUsage
from repro.crowd.backends.base import CrowdBackend
from repro.crowd.oracle import Oracle
from repro.engine.scheduler import Flow, QueryEngine
from repro.errors import (
    BudgetExceededError,
    CheckpointVersionError,
    InvalidParameterError,
    JobFailedError,
)
from repro.service.jobs import JobEvent, JobHandle, JobStatus
from repro.service.store import JobStore

__all__ = ["AuditService"]

#: Version 2 adds the ``reliability`` section to the answer log (a
#: versioned ReliabilitySnapshot payload, or ``None`` for services
#: without a reliability-enabled platform); version-1 checkpoints
#: remain readable. Logs without the later ``tasks_paid`` count entries.
_CHECKPOINT_VERSION = 2
_READABLE_CHECKPOINT_VERSIONS = frozenset({1, 2})


class _Job:
    """The service's internal record of one submitted audit."""

    __slots__ = (
        "job_id", "spec", "tenant", "priority", "seed", "seq",
        "status", "events", "result", "error", "flow", "started_at",
    )

    def __init__(
        self,
        job_id: str,
        spec: AuditSpec,
        *,
        tenant: str,
        priority: int,
        seed: int | None,
        seq: int,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.tenant = tenant
        self.priority = priority
        self.seed = seed
        self.seq = seq
        self.status = JobStatus.QUEUED
        self.events: list[JobEvent] = []
        self.result: AuditReport | None = None
        self.error: str | None = None
        self.flow: Flow | None = None
        self.started_at: float | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": _CHECKPOINT_VERSION,
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "tenant": self.tenant,
            "priority": self.priority,
            "seed": self.seed,
            "seq": self.seq,
            "status": self.status.value,
            "events": [event.to_dict() for event in self.events],
            "result": None if self.result is None else self.result.to_dict(),
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> "_Job":
        version = record.get("version")
        if version not in _READABLE_CHECKPOINT_VERSIONS:
            raise CheckpointVersionError(
                f"unsupported job-record version {version!r} (this build "
                f"reads versions {sorted(_READABLE_CHECKPOINT_VERSIONS)})"
            )
        try:
            job = cls(
                str(record["job_id"]),
                spec_from_dict(record["spec"]),
                tenant=str(record["tenant"]),
                priority=int(record["priority"]),
                seed=record["seed"],
                seq=int(record["seq"]),
            )
            job.status = JobStatus(record["status"])
            job.events = [JobEvent.from_dict(event) for event in record["events"]]
            if record["result"] is not None:
                job.result = AuditReport.from_dict(record["result"])
            job.error = record["error"]
        except CheckpointVersionError:
            raise
        except KeyError as error:
            raise CheckpointVersionError(
                f"job record declares version {version} but is missing the "
                f"{error.args[0]!r} field that version requires"
            ) from error
        except (InvalidParameterError, ValueError) as error:
            # Unknown spec kinds, report versions, or corrupt field
            # values inside the record also mean "written by an
            # incompatible build".
            raise CheckpointVersionError(
                f"job record is not readable by this build ({error})"
            ) from error
        return job


class AuditService:
    """Multi-tenant audit jobs over one shared crowd backend.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import AuditService, GroundTruthOracle, GroupAuditSpec
    >>> from repro.data.synthetic import binary_dataset
    >>> from repro.data.groups import group
    >>> ds = binary_dataset(1_000, 30, rng=np.random.default_rng(0))
    >>> with AuditService(GroundTruthOracle(ds)) as service:
    ...     handle = service.submit(GroupAuditSpec(predicate=group(gender="female"),
    ...                                            tau=50), tenant="fairness")
    ...     service.drain()
    ...     report = handle.result()
    >>> report.result.covered, handle.status.value
    (False, 'succeeded')

    Parameters
    ----------
    oracle:
        The answer source every job is charged to. The service wraps it
        in a recording proxy so checkpoints capture every paid answer.
    backend:
        A factory ``lambda oracle: CrowdBackend(...)`` building the
        shared backend *over the service's proxy* (so backend-dispatched
        answers are recorded). Defaults to the zero-latency
        :class:`~repro.crowd.backends.InlineBackend`.
    batch_size / speculation:
        Forwarded to the shared :class:`~repro.engine.QueryEngine`.
    max_active_jobs:
        Concurrency limit of the fair-share scheduler.
    dataset_size:
        Search-space size for specs with ``view=None``; defaults to the
        oracle's dataset size when it exposes one.
    seed:
        Service-level entropy: jobs submitted without their own ``seed``
        derive a deterministic per-job seed from it. ``None`` leaves
        rng-dependent jobs without a generator (they fail with a clear
        error unless submitted with ``seed=``).
    job_store:
        A :class:`~repro.service.JobStore` for checkpointing;
        :meth:`checkpoint` raises without one.
    checkpoint_every:
        Auto-checkpoint period in scheduler steps (requires
        ``job_store``). ``None`` checkpoints only on :meth:`drain` /
        explicit calls.
    task_budget:
        Crowd-task ceiling installed on the oracle's ledger for the
        service's lifetime (restored on :meth:`close`). Exhaustion
        suspends every non-terminal job, auto-checkpoints when a store
        is configured, and re-raises.
    """

    def __init__(
        self,
        oracle: Oracle,
        *,
        backend: "Callable[[Oracle], CrowdBackend] | None" = None,
        batch_size: int = 32,
        speculation: int | None = None,
        max_active_jobs: int = 8,
        dataset_size: int | None = None,
        seed: int | None = None,
        job_store: JobStore | None = None,
        checkpoint_every: int | None = None,
        task_budget: int | None = None,
    ) -> None:
        if max_active_jobs < 1:
            raise InvalidParameterError(
                f"max_active_jobs must be >= 1, got {max_active_jobs}"
            )
        if task_budget is not None and task_budget <= 0:
            raise InvalidParameterError(
                f"task_budget must be positive, got {task_budget}; a "
                "service with no budget ceiling is task_budget=None"
            )
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise InvalidParameterError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            if job_store is None:
                raise InvalidParameterError(
                    "checkpoint_every requires a job_store to write to"
                )
        self.oracle = oracle
        self._proxy = RecordingOracleProxy(oracle)
        crowd_backend = backend(self._proxy) if backend is not None else None
        self.engine = QueryEngine(
            self._proxy,
            backend=crowd_backend,
            batch_size=batch_size,
            speculation=speculation,
        )
        self.backend = self.engine.backend
        self.max_active_jobs = max_active_jobs
        self.dataset_size = (
            dataset_size if dataset_size is not None else _infer_dataset_size(oracle)
        )
        self.seed = seed
        self.job_store = job_store
        self.checkpoint_every = checkpoint_every

        self._previous_budget: int | None = None
        self.task_budget = task_budget
        if task_budget is not None:
            self._previous_budget = oracle.ledger.budget
            oracle.ledger.budget = task_budget
        self._tasks_paid_before = 0  # restored by resume()
        self._tasks_window = LedgerWindow(oracle.ledger)

        self._jobs: dict[str, _Job] = {}
        #: jobs whose record changed since it was last saved: a checkpoint
        #: saves these, so its cost does not grow with the finished jobs
        self._unsaved: dict[str, _Job] = {}
        self._queue: list[_Job] = []
        self._seq = 0
        self._rounds = 0
        self._closed = False
        # Incremental running-job tallies: the fair-share scheduler
        # consults these on every activation, and scanning the full job
        # table there would make step() cost grow with lifetime job
        # count. Maintained exclusively by _set_status.
        self._running_total = 0
        self._running_by_tenant: dict[str, int] = {}

    def _set_status(self, job: _Job, status: JobStatus) -> None:
        """The only place a registered job's status changes — keeps the
        running tallies exact."""
        if (job.status == JobStatus.RUNNING) != (status == JobStatus.RUNNING):
            delta = 1 if status == JobStatus.RUNNING else -1
            self._running_total += delta
            tally = self._running_by_tenant.get(job.tenant, 0) + delta
            if tally:
                self._running_by_tenant[job.tenant] = tally
            else:
                self._running_by_tenant.pop(job.tenant, None)
        job.status = status
        self._unsaved[job.job_id] = job

    # -- lifecycle --------------------------------------------------------
    def __enter__(self) -> "AuditService":
        if self._closed:
            raise InvalidParameterError("service is closed and cannot be re-entered")
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def close(self) -> None:
        """Shut the backend down and restore the ledger's budget.
        Queued and running jobs are left as-is — checkpoint first if
        they should survive."""
        if self._closed:
            return
        self._closed = True
        if self.task_budget is not None:
            self.oracle.ledger.budget = self._previous_budget
        self.backend.close()

    def _ensure_open(self) -> None:
        if self._closed:
            raise InvalidParameterError("service is closed")

    # -- submission -------------------------------------------------------
    def submit(
        self,
        spec: AuditSpec,
        *,
        tenant: str = "default",
        priority: int = 0,
        seed: int | None = None,
    ) -> JobHandle:
        """Enqueue one audit job; returns its :class:`JobHandle`.

        ``priority`` orders jobs *within* a tenant's queue (higher
        first); fairness across tenants is preserved regardless —
        see the class docstring. ``seed`` gives rng-dependent specs
        (multiple/intersectional/classifier audits) their generator; it
        is recorded, so a resumed job re-draws identical samples.
        """
        self._ensure_open()
        job_id = f"job-{self._seq:05d}"
        if seed is None and self.seed is not None:
            # Stable per-job derivation: resume must reproduce it.
            seed = int(
                np.random.SeedSequence([self.seed, self._seq]).generate_state(1)[0]
            )
        job = _Job(
            job_id, spec, tenant=tenant, priority=priority, seed=seed, seq=self._seq
        )
        self._seq += 1
        self._event(job, "submitted", f"tenant={tenant} priority={priority}")
        self._jobs[job_id] = job
        self._queue.append(job)
        self._persist(job)
        return JobHandle(self, job_id)

    # -- observation ------------------------------------------------------
    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise InvalidParameterError(f"unknown job id {job_id!r}")
        return job

    def handle(self, job_id: str) -> JobHandle:
        """A (re-issued) handle for ``job_id`` — how callers reattach
        after :meth:`resume`."""
        self._job(job_id)
        return JobHandle(self, job_id)

    def jobs(self) -> tuple[JobHandle, ...]:
        """Handles for every known job, in submission order."""
        ordered = sorted(self._jobs.values(), key=lambda job: job.seq)
        return tuple(JobHandle(self, job.job_id) for job in ordered)

    def status(self, job_id: str) -> JobStatus:
        """The job's current :class:`~repro.service.jobs.JobStatus`."""
        return self._job(job_id).status

    def events(self, job_id: str) -> tuple[JobEvent, ...]:
        """The job's transition trail, oldest first."""
        return tuple(self._job(job_id).events)

    def result(self, job_id: str, *, drain: bool = True) -> AuditReport:
        """The job's report; with ``drain=True`` the service is stepped
        until the job is terminal. Raises
        :class:`~repro.errors.JobFailedError` for failed/cancelled jobs."""
        job = self._job(job_id)
        if drain:
            while not job.status.terminal and job.status != JobStatus.SUSPENDED:
                if not self.has_work:
                    break
                self.step()
        if job.status == JobStatus.SUCCEEDED:
            assert job.result is not None
            return job.result
        if job.status.terminal:
            raise JobFailedError(
                f"job {job_id} {job.status.value}: {job.error or 'no result'}"
            )
        raise InvalidParameterError(
            f"job {job_id} is {job.status.value}; step() or drain() the "
            "service (or pass drain=True) to finish it"
        )

    @property
    def counts(self) -> dict[str, int]:
        """Job tally by status value."""
        tally: dict[str, int] = {}
        for job in self._jobs.values():
            tally[job.status.value] = tally.get(job.status.value, 0) + 1
        return tally

    @property
    def tasks_paid(self) -> int:
        """Crowd tasks paid for the answer log: the count restored by
        :meth:`resume` (replays are free) plus this service's spend."""
        return self._tasks_paid_before + self._tasks_window.usage().total

    @property
    def has_work(self) -> bool:
        """True while anything is queued, in flight, or unabsorbed."""
        return bool(self._queue) or self.engine.has_work

    def describe(self) -> str:
        """One-line service summary: job tally, bill, engine counters,
        and — when a reliability policy is attached — the worker pool's
        quarantine tally."""
        tally = ", ".join(
            f"{status}={count}" for status, count in sorted(self.counts.items())
        )
        summary = (
            f"audit service: {len(self._jobs)} jobs ({tally or 'none'}), "
            f"{self.oracle.ledger.total} tasks, "
            f"round {self._rounds}, {self.engine.stats.describe()}"
        )
        report = self.reliability_report()
        if report is not None:
            summary += (
                f", reliability: {report.n_quarantined}/{report.n_workers} "
                f"quarantined, {report.n_probes} probes"
            )
        return summary

    # -- cancellation -----------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Withdraw a job that has not finished yet.

        The semantics are pinned by ``tests/service/test_service.py``:

        * unknown ids raise :class:`~repro.errors.InvalidParameterError`
          (they are caller bugs, not races);
        * terminal jobs — succeeded, failed, or already cancelled — are
          an idempotent no-op returning ``False``: cancelling something
          that already finished is a race every distributed caller hits,
          so it must be safe to lose;
        * queued, suspended, and running jobs move to ``CANCELLED`` and
          return ``True``. Running group audits are retired from the
          engine (answers already paid for stay cached); a blocking
          audit mid-execution cannot be interrupted (``False``)."""
        job = self._job(job_id)
        if job.status == JobStatus.QUEUED:
            self._queue.remove(job)
        elif job.status == JobStatus.RUNNING and job.flow is not None:
            self.engine.retire(job.flow)
        elif job.status != JobStatus.SUSPENDED:
            return False
        self._set_status(job, JobStatus.CANCELLED)
        self._event(job, "cancelled")
        self._persist(job)
        return True

    # -- the scheduler loop ----------------------------------------------
    def step(self) -> bool:
        """Advance the service by one cooperative round: activate jobs
        up to the fair-share limit, pump every ready frontier, absorb
        whatever the backend has finished (waiting for at least one
        ticket when any is outstanding), and settle completions.
        Returns :attr:`has_work`."""
        self._ensure_open()
        try:
            self._activate()
            self.engine.pump()
            if self.engine.outstanding_tickets:
                ready_tickets = [self.backend.next_done()]
                ready_tickets.extend(
                    t for t in self.backend.poll() if t is not ready_tickets[0]
                )
                for ticket in ready_tickets:
                    try:
                        answers = self.backend.gather(ticket)
                    except BaseException:
                        self.engine.discard(ticket)
                        raise
                    self.engine.absorb(ticket, answers)
            self.engine.settle()
        except BudgetExceededError:
            self._suspend_all("task budget exhausted")
            raise
        self._rounds += 1
        if (
            self.checkpoint_every is not None
            and self._rounds % self.checkpoint_every == 0
        ):
            self.checkpoint()
        return self.has_work

    def drain(self) -> None:
        """Run until no job is queued or in flight, then checkpoint
        (when a store is configured)."""
        while self.step():
            pass
        if self.job_store is not None:
            self.checkpoint()

    # -- internals: scheduling -------------------------------------------
    def _activate(self) -> None:
        while self._queue and self._running_total < self.max_active_jobs:
            running = self._running_by_tenant
            job = min(
                self._queue,
                key=lambda j: (running.get(j.tenant, 0), -j.priority, j.seq),
            )
            self._queue.remove(job)
            self._start(job)

    def _start(self, job: _Job) -> None:
        """Activate ``job`` inside the job-failure boundary.

        A group spec becomes a stepper on the shared engine and settles
        when its flow completes; any other spec executes to completion
        here, blocking the service loop (concurrent group flows keep
        advancing underneath, and its ``tasks`` window includes what
        they spend meanwhile). A job whose spec cannot start or run —
        an invalid view, a missing rng — ends ``FAILED`` with the error
        text, is persisted and frees its slot; only budget exhaustion,
        which suspends every job, propagates.
        """
        self._set_status(job, JobStatus.RUNNING)
        job.started_at = time.perf_counter()
        self._event(job, "started")
        window = LedgerWindow(self.oracle.ledger)
        try:
            if isinstance(job.spec, GroupAuditSpec):
                stepper = make_group_stepper(
                    job.spec,
                    dataset_size=self.dataset_size,
                    speculation=self.engine.speculation,
                )

                def finish(_stepper, job=job):
                    tasks = TaskUsage(
                        n_set_queries=job.flow.dispatched, n_rounds=job.flow.rounds
                    )
                    self._settle(
                        job,
                        job.flow.stepper.result(tasks=tasks),
                        tasks,
                        f"dispatched={job.flow.dispatched}",
                    )

                job.flow = self.engine.admit(stepper, on_complete=finish)
                return
            result = run_spec(
                self._proxy,
                job.spec,
                engine=self.engine,
                rng=np.random.default_rng(job.seed) if job.seed is not None else None,
                dataset_size=self.dataset_size,
            )
        except BudgetExceededError:
            raise  # handled service-wide in step()
        except Exception as error:  # noqa: BLE001 - job isolation boundary
            self._settle(job, error=error)
            return
        self._settle(job, result, window.usage())

    def _settle(self, job: _Job, result=None, tasks=None, detail="", *, error=None) -> None:
        """Record a started job's outcome — its report, or the error
        that failed it — and persist it."""
        if error is not None:
            self._set_status(job, JobStatus.FAILED)
            job.error = f"{type(error).__name__}: {error}"
            self._event(job, "failed", job.error)
        else:
            job.result = AuditReport(
                entries=(AuditEntry(spec=job.spec, result=result),),
                tasks=tasks,
                engine_stats=None,
                wall_clock_seconds=time.perf_counter() - job.started_at,
            )
            self._set_status(job, JobStatus.SUCCEEDED)
            self._event(job, "succeeded", detail)
        self._persist(job)

    def _suspend_all(self, reason: str) -> None:
        for job in self._jobs.values():
            if job.status in (JobStatus.QUEUED, JobStatus.RUNNING):
                if job.flow is not None and not job.flow.finished:
                    self.engine.retire(job.flow)
                if job in self._queue:
                    self._queue.remove(job)
                self._set_status(job, JobStatus.SUSPENDED)
                self._event(job, "suspended", reason)
                self._persist(job)
        if self.job_store is not None:
            self.checkpoint()

    def _event(self, job: _Job, stage: str, detail: str = "") -> None:
        # A result or an error is set only together with an event.
        self._unsaved[job.job_id] = job
        job.events.append(
            JobEvent(
                stage=stage,
                detail=detail,
                tasks=self.oracle.ledger.total,
                round=self._rounds,
            )
        )

    # -- checkpoint / resume ----------------------------------------------
    def _persist(self, job: _Job) -> None:
        if self.job_store is not None:
            self.job_store.save_job(job.job_id, job.to_dict())
        self._unsaved.pop(job.job_id, None)

    def checkpoint(self) -> None:
        """Write the answer log and the job records that changed since
        they were last saved to the store.

        The answer log holds exactly what the crowd was paid for — the
        proxy's set and point answers — so a resumed service replays
        them for free. Each checkpoint saves the answers recorded since
        the last one; the store folds them onto those it holds.
        """
        if self.job_store is None:
            raise InvalidParameterError(
                "service has no job_store to checkpoint into"
            )
        sections, cursor = self._proxy.answer_delta()
        self.job_store.save_answers(
            {
                "version": _CHECKPOINT_VERSION,
                "dataset_size": self.dataset_size,
                "seed": self.seed,
                "engine": {
                    "batch_size": self.engine.batch_size,
                    "speculation": self.engine.speculation,
                },
                "max_active_jobs": self.max_active_jobs,
                "next_seq": self._seq,
                "tasks_paid": self.tasks_paid,
                **sections,
            }
        )
        self._proxy.mark_persisted(cursor)
        # In submission order, as the records were first saved.
        for job in sorted(self._unsaved.values(), key=lambda job: job.seq):
            self._persist(job)

    def reliability_report(self):
        """The :class:`~repro.crowd.reliability.ReliabilityReport` of the
        oracle's reliability-enabled platform, or ``None`` without one."""
        return self._proxy.reliability_report()

    @classmethod
    def resume(
        cls,
        job_store: JobStore,
        oracle: Oracle,
        *,
        backend: "Callable[[Oracle], CrowdBackend] | None" = None,
        task_budget: int | None = None,
        max_active_jobs: int | None = None,
        checkpoint_every: int | None = None,
    ) -> "AuditService":
        """Revive a service from a :class:`JobStore`.

        Finished jobs come back with their results; queued, running, and
        suspended jobs are re-queued (same id, seed, tenant, priority,
        submission order). Every recorded answer is preloaded into the
        recording proxy, so re-run audits pay only for queries the
        crashed service never asked — determinism then guarantees
        identical verdicts. An unreadable store raises
        :class:`~repro.errors.CheckpointVersionError` before ``oracle``
        (its ledger budget included) is touched.
        """
        answers = job_store.load_answers()
        if answers is None:
            raise InvalidParameterError(
                "job store holds no checkpoint to resume from"
            )
        version = answers.get("version")
        if version not in _READABLE_CHECKPOINT_VERSIONS:
            raise CheckpointVersionError(
                f"unsupported service checkpoint version {version!r} "
                f"(this build reads versions {sorted(_READABLE_CHECKPOINT_VERSIONS)})"
            )
        # Narrow extraction: only the checkpoint's own shape may raise
        # CheckpointVersionError — a KeyError from user code (oracle,
        # backend factory, job store) during construction propagates as-is.
        try:
            engine_config = answers["engine"]
            batch_size = engine_config["batch_size"]
            speculation = engine_config["speculation"]
            stored_max_active_jobs = answers["max_active_jobs"]
            dataset_size = answers["dataset_size"]
            seed = answers["seed"]
            next_seq = int(answers["next_seq"])
        except KeyError as error:
            raise CheckpointVersionError(
                f"service checkpoint declares version {version} but is missing "
                f"the {error.args[0]!r} field that version requires"
            ) from error
        log = RecordingOracleProxy.decode_answer_log(
            answers, oracle, reliability=version >= 2, source="service checkpoint"
        )
        tasks_paid = int(
            answers.get("tasks_paid", len(log.set_answers) + len(log.point_answers[0]))
        )
        jobs = sorted(
            (_Job.from_dict(record) for record in job_store.load_jobs().values()),
            key=lambda job: job.seq,
        )
        service = cls(
            oracle,
            backend=backend,
            batch_size=batch_size,
            speculation=speculation,
            max_active_jobs=(
                max_active_jobs
                if max_active_jobs is not None
                else stored_max_active_jobs
            ),
            dataset_size=dataset_size,
            seed=seed,
            job_store=job_store,
            checkpoint_every=checkpoint_every,
            task_budget=task_budget,
        )
        service._tasks_paid_before = tasks_paid
        service._proxy.replay(log)
        service._proxy.mark_persisted(service._proxy.log_end())
        max_seq = -1
        for job in jobs:
            service._jobs[job.job_id] = job
            max_seq = max(max_seq, job.seq)
            if not job.status.terminal:
                previous = job.status.value
                job.status = JobStatus.QUEUED
                service._event(job, "resumed", f"was {previous}")
                service._queue.append(job)
                service._persist(job)
        # Job records persist at submission, the answer log only at
        # checkpoints: jobs submitted after the last checkpoint carry
        # sequence numbers past the recorded next_seq, and reusing those
        # ids would silently overwrite their records.
        service._seq = max(next_seq, max_seq + 1)
        return service

    # -- batch conveniences ----------------------------------------------
    def submit_many(
        self,
        specs: Iterable[AuditSpec],
        *,
        tenant: str = "default",
        priority: int = 0,
        seed: int | None = None,
    ) -> tuple[JobHandle, ...]:
        """Submit several specs for one tenant; per-job seeds derive from
        ``seed`` (or the service seed) plus each job's sequence number,
        so seeds stay unique across successive batches."""
        handles = []
        for spec in specs:
            job_seed = None if seed is None else seed + self._seq
            handles.append(
                self.submit(spec, tenant=tenant, priority=priority, seed=job_seed)
            )
        return tuple(handles)
