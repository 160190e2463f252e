"""The multi-tenant AuditService: jobs, fairness, failure isolation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import AuditSession, GroupAuditSpec, MultipleAuditSpec
from repro.crowd.backends import LatencyModelBackend, ThreadedBackend
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset, single_attribute_dataset
from repro.errors import (
    BudgetExceededError,
    InvalidParameterError,
    JobFailedError,
)
from repro.service import AuditService, InMemoryJobStore, JobStatus

COUNTS = {f"r{i}": 120 + 40 * i for i in range(4)}
TAU = 100


@pytest.fixture(scope="module")
def dataset():
    return single_attribute_dataset(COUNTS, rng=np.random.default_rng(5))


def spec_for(value: str, tau: int = TAU) -> GroupAuditSpec:
    return GroupAuditSpec(predicate=group(race=value), tau=tau)


class TestSingleJob:
    def test_group_job_matches_a_session_run(self, dataset):
        with AuditSession(GroundTruthOracle(dataset), engine=True) as session:
            reference = session.run(spec_for("r1"))

        oracle = GroundTruthOracle(dataset)
        with AuditService(oracle) as service:
            handle = service.submit(spec_for("r1"), tenant="alice")
            report = handle.result()
        assert report.result.covered == reference.result.covered
        assert report.result.count == reference.result.count
        assert oracle.ledger.total == reference.tasks.total
        assert handle.status == JobStatus.SUCCEEDED

    def test_group_reports_count_their_round_trips(self, dataset):
        """Each group job reports the oracle round trips that carried its
        queries; concurrent jobs share rounds, so the oracle's total lies
        between the largest job's and their sum."""
        oracle = GroundTruthOracle(dataset)
        with AuditService(oracle) as service:
            handles = [
                service.submit(spec_for(value), tenant=value) for value in ("r1", "r2")
            ]
            rounds = [handle.result().tasks.n_rounds for handle in handles]
        assert all(0 < n for n in rounds)
        assert max(rounds) <= oracle.ledger.n_rounds <= sum(rounds)

    def test_blocking_spec_kinds_run_on_the_shared_engine(self, dataset):
        spec = MultipleAuditSpec(
            groups=tuple(group(race=value) for value in COUNTS), tau=TAU
        )
        with AuditSession(
            GroundTruthOracle(dataset), engine=True, seed=23
        ) as session:
            reference = session.run(spec)

        with AuditService(GroundTruthOracle(dataset)) as service:
            handle = service.submit(spec, seed=23)
            report = handle.result()
        for ours, theirs in zip(
            report.result.entries, reference.result.entries
        ):
            assert (ours.covered, ours.count) == (theirs.covered, theirs.count)

    def test_rng_spec_without_seed_fails_cleanly(self, dataset):
        spec = MultipleAuditSpec(groups=(group(race="r0"),), tau=5)
        with AuditService(GroundTruthOracle(dataset)) as service:
            handle = service.submit(spec)
            service.drain()
            assert handle.status == JobStatus.FAILED
            with pytest.raises(JobFailedError):
                handle.result()
            assert any(event.stage == "failed" for event in handle.events())

    def test_group_job_that_cannot_start_fails_and_frees_its_slot(self):
        female = group(gender="female")
        store = InMemoryJobStore()
        oracle = GroundTruthOracle(binary_dataset(1000, 30, rng=np.random.default_rng(0)))
        with AuditService(oracle, max_active_jobs=1, job_store=store) as service:
            bad = service.submit(GroupAuditSpec(predicate=female, tau=5, view=(1, 5, 5000)))
            good = service.submit(GroupAuditSpec(predicate=female, tau=5))
            for _ in range(50):
                if not service.step():
                    break
            assert not service.has_work
            assert bad.status == JobStatus.FAILED
            with pytest.raises(JobFailedError, match="InvalidParameterError: .*5000"):
                bad.result()
            assert store.load_jobs()[bad.job_id]["status"] == "failed"
            assert good.status == JobStatus.SUCCEEDED
            assert good.result().result.covered


class TestConcurrentJobs:
    def test_inline_service_is_bit_identical_to_run_many(self, dataset):
        specs = [spec_for(value) for value in COUNTS]
        reference_oracle = GroundTruthOracle(dataset)
        with AuditSession(reference_oracle, engine=True) as session:
            reference = session.run_many(specs)

        oracle = GroundTruthOracle(dataset)
        with AuditService(oracle, max_active_jobs=len(specs)) as service:
            handles = [service.submit(spec) for spec in specs]
            service.drain()
            reports = [handle.result() for handle in handles]

        for report, entry in zip(reports, reference.entries):
            assert report.result.covered == entry.result.covered
            assert report.result.count == entry.result.count
            # Per-job attribution matches run_many's dispatched split.
            assert report.tasks.n_set_queries == entry.result.tasks.n_set_queries
        assert oracle.ledger.total == reference_oracle.ledger.total
        assert oracle.ledger.n_rounds == reference_oracle.ledger.n_rounds

    def test_cross_tenant_dedup_pays_once(self, dataset):
        oracle = GroundTruthOracle(dataset)
        solo = GroundTruthOracle(dataset)
        with AuditSession(solo, engine=True) as session:
            session.run(spec_for("r2"))
        with AuditService(oracle, max_active_jobs=2) as service:
            service.submit(spec_for("r2"), tenant="alice")
            service.submit(spec_for("r2"), tenant="bob")
            service.drain()
        # Identical audits from two tenants: one crowd bill.
        assert oracle.ledger.total == solo.ledger.total

    def test_fair_share_admits_the_second_tenant_first_wave(self, dataset):
        with AuditService(GroundTruthOracle(dataset), max_active_jobs=2) as service:
            bulk = [
                service.submit(spec_for(value), tenant="bulk")
                for value in list(COUNTS)[:3]
            ]
            urgent = service.submit(spec_for("r3"), tenant="urgent")
            service.step()
            # One slot went to the bulk tenant's first job, the other to
            # the urgent tenant — not to the bulk tenant's second job.
            started = {
                handle.job_id
                for handle in (*bulk, urgent)
                if any(event.stage == "started" for event in handle.events())
            }
            assert bulk[0].job_id in started
            assert urgent.job_id in started
            assert bulk[1].job_id not in started
            service.drain()

    def test_priority_orders_jobs_within_a_tenant(self, dataset):
        with AuditService(GroundTruthOracle(dataset), max_active_jobs=1) as service:
            low = service.submit(spec_for("r0"), priority=0)
            high = service.submit(spec_for("r1"), priority=5)
            mid = service.submit(spec_for("r2"), priority=1)
            service.drain()

            def started_round(handle):
                return next(
                    event.round
                    for event in handle.events()
                    if event.stage == "started"
                )

            assert started_round(high) <= started_round(mid) <= started_round(low)


class TestCancellation:
    def test_cancel_queued_job(self, dataset):
        with AuditService(GroundTruthOracle(dataset), max_active_jobs=1) as service:
            running = service.submit(spec_for("r0"))
            queued = service.submit(spec_for("r1"))
            service.step()
            assert queued.cancel()
            service.drain()
            assert queued.status == JobStatus.CANCELLED
            assert running.status == JobStatus.SUCCEEDED
            with pytest.raises(JobFailedError):
                queued.result()

    def test_cancel_running_group_job_stops_its_spending(self, dataset):
        oracle = GroundTruthOracle(dataset)
        with AuditService(oracle, max_active_jobs=2) as service:
            victim = service.submit(spec_for("r0"))
            survivor = service.submit(spec_for("r3"))
            service.step()
            assert victim.cancel()
            service.drain()
            assert victim.status == JobStatus.CANCELLED
            assert survivor.status == JobStatus.SUCCEEDED

    def test_cancel_finished_job_is_a_no_op(self, dataset):
        with AuditService(GroundTruthOracle(dataset)) as service:
            handle = service.submit(spec_for("r0"))
            service.drain()
            assert not handle.cancel()
            assert handle.status == JobStatus.SUCCEEDED

    def test_cancel_is_idempotent_on_cancelled_jobs(self, dataset):
        # Double-cancel is the race every distributed caller hits
        # (client retry + worker marker): second call is a quiet False.
        with AuditService(GroundTruthOracle(dataset), max_active_jobs=1) as service:
            service.submit(spec_for("r0"))
            victim = service.submit(spec_for("r1"))
            assert victim.cancel()
            assert not victim.cancel()
            assert victim.status == JobStatus.CANCELLED
            service.drain()
            assert victim.status == JobStatus.CANCELLED

    def test_cancel_failed_job_is_a_no_op(self, dataset):
        with AuditService(GroundTruthOracle(dataset)) as service:
            handle = service.submit(
                # rng spec without a seed fails cleanly at start
                MultipleAuditSpec(groups=(group(race="r0"),), tau=5)
            )
            service.drain()
            assert handle.status == JobStatus.FAILED
            assert not handle.cancel()
            assert handle.status == JobStatus.FAILED

    def test_cancel_unknown_job_raises_typed_error(self, dataset):
        with AuditService(GroundTruthOracle(dataset)) as service:
            with pytest.raises(InvalidParameterError):
                service.cancel("job-99999")

    def test_cancel_suspended_job(self, dataset):
        # A budget-suspended job is withdrawable like a queued one; its
        # siblings stay suspended and resumable.
        service = AuditService(
            GroundTruthOracle(dataset),
            max_active_jobs=2,
            job_store=InMemoryJobStore(),
            task_budget=15,
        )
        with service:
            first = service.submit(spec_for("r0"))
            second = service.submit(spec_for("r1"))
            with pytest.raises(BudgetExceededError):
                service.drain()
            assert first.status == JobStatus.SUSPENDED
            assert first.cancel()
            assert first.status == JobStatus.CANCELLED
            assert not first.cancel()
            assert second.status == JobStatus.SUSPENDED


class TestBudgets:
    def test_exhaustion_suspends_every_live_job(self, dataset):
        store = InMemoryJobStore()
        service = AuditService(
            GroundTruthOracle(dataset),
            max_active_jobs=2,
            job_store=store,
            task_budget=15,
        )
        with service:
            first = service.submit(spec_for("r0"))
            second = service.submit(spec_for("r1"))
            with pytest.raises(BudgetExceededError):
                service.drain()
            assert first.status == JobStatus.SUSPENDED
            assert second.status == JobStatus.SUSPENDED
            # Suspension auto-checkpointed: the store can revive both.
            assert len(store.load_jobs()) == 2
            assert store.load_answers() is not None

    def test_resume_after_exhaustion_finishes_the_jobs(self, dataset):
        reference_oracle = GroundTruthOracle(dataset)
        with AuditSession(reference_oracle, engine=True) as session:
            reference = session.run_many([spec_for("r0"), spec_for("r1")])

        store = InMemoryJobStore()
        oracle = GroundTruthOracle(dataset)
        service = AuditService(
            oracle, max_active_jobs=2, job_store=store, task_budget=15
        )
        with service:
            service.submit(spec_for("r0"))
            service.submit(spec_for("r1"))
            with pytest.raises(BudgetExceededError):
                service.drain()

        revived = AuditService.resume(store, oracle, task_budget=100_000)
        with revived:
            revived.drain()
            reports = [handle.result() for handle in revived.jobs()]
        for report, entry in zip(reports, reference.entries):
            assert report.result.covered == entry.result.covered
            assert report.result.count == entry.result.count
        # Both phases together paid exactly the uninterrupted bill.
        assert oracle.ledger.total == reference_oracle.ledger.total

    def test_non_positive_budget_rejected(self, dataset):
        with pytest.raises(InvalidParameterError):
            AuditService(GroundTruthOracle(dataset), task_budget=0)


class TestValidationAndLifecycle:
    def test_unknown_job_id(self, dataset):
        with AuditService(GroundTruthOracle(dataset)) as service:
            with pytest.raises(InvalidParameterError):
                service.status("job-99999")

    def test_submit_after_close_raises(self, dataset):
        service = AuditService(GroundTruthOracle(dataset))
        service.close()
        with pytest.raises(InvalidParameterError):
            service.submit(spec_for("r0"))

    def test_checkpoint_requires_a_store(self, dataset):
        with AuditService(GroundTruthOracle(dataset)) as service:
            with pytest.raises(InvalidParameterError):
                service.checkpoint()

    def test_checkpoint_every_requires_a_store(self, dataset):
        with pytest.raises(InvalidParameterError):
            AuditService(GroundTruthOracle(dataset), checkpoint_every=5)

    def test_max_active_jobs_validated(self, dataset):
        with pytest.raises(InvalidParameterError):
            AuditService(GroundTruthOracle(dataset), max_active_jobs=0)

    def test_submit_many_seeds_unique_across_batches(self, dataset):
        with AuditService(GroundTruthOracle(dataset)) as service:
            first = service.submit_many([spec_for("r0"), spec_for("r1")], seed=5)
            second = service.submit_many([spec_for("r2"), spec_for("r3")], seed=5)
            seeds = [
                service._job(handle.job_id).seed for handle in (*first, *second)
            ]
            assert len(set(seeds)) == len(seeds)
            service.drain()

    def test_describe_mentions_job_tally(self, dataset):
        with AuditService(GroundTruthOracle(dataset)) as service:
            service.submit(spec_for("r0"))
            service.drain()
            assert "succeeded=1" in service.describe()


class TestBackendsUnderTheService:
    def test_latency_backend_overlap_beats_serial(self, dataset):
        """Eight concurrent audits on a simulated-latency crowd finish
        far faster than the same audits run one after another — the
        acceptance property bench_service.py measures at full size."""
        specs = [spec_for(value) for value in COUNTS] * 2  # 8 jobs

        def run(max_active):
            service = AuditService(
                GroundTruthOracle(dataset),
                backend=lambda oracle: LatencyModelBackend(
                    oracle, rng=np.random.default_rng(3)
                ),
                max_active_jobs=max_active,
            )
            with service:
                for position, spec in enumerate(specs):
                    service.submit(spec, tenant=f"tenant-{position}")
                service.drain()
                return service.backend.clock.now()

        serial = run(1)
        overlapped = run(8)
        assert overlapped < serial / 2

    def test_threaded_backend_end_to_end(self, dataset):
        with AuditSession(GroundTruthOracle(dataset), engine=True) as session:
            reference = session.run(spec_for("r2"))
        service = AuditService(
            GroundTruthOracle(dataset),
            backend=lambda oracle: ThreadedBackend(oracle, max_workers=2),
        )
        with service:
            handle = service.submit(spec_for("r2"))
            report = handle.result()
        assert report.result.covered == reference.result.covered
        assert report.result.count == reference.result.count
