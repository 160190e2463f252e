"""JobStore implementations: durability, atomicity, directory resume."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.audit import AuditSession, GroupAuditSpec
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import single_attribute_dataset
from repro.errors import InvalidParameterError
from repro.service import (
    AuditService,
    DirectoryJobStore,
    InMemoryJobStore,
    JobStatus,
)

COUNTS = {"white": 700, "black": 90, "asian": 60}


@pytest.fixture(scope="module")
def dataset():
    return single_attribute_dataset(COUNTS, rng=np.random.default_rng(9))


class TestInMemoryJobStore:
    def test_round_trip(self):
        store = InMemoryJobStore()
        store.save_job("job-00000", {"seq": 0, "status": "queued"})
        store.save_answers({"version": 1, "set_answers": []})
        assert store.load_jobs() == {"job-00000": {"seq": 0, "status": "queued"}}
        assert store.load_answers() == {"version": 1, "set_answers": []}

    def test_records_are_json_safe_copies(self):
        store = InMemoryJobStore()
        record = {"seq": 0, "events": [{"stage": "submitted"}]}
        store.save_job("job-00000", record)
        record["events"].append({"stage": "mutated-after-save"})
        assert store.load_jobs()["job-00000"]["events"] == [{"stage": "submitted"}]

    def test_fresh_store_has_no_answers(self):
        assert InMemoryJobStore().load_answers() is None


class TestDirectoryJobStore:
    def test_layout_and_round_trip(self, tmp_path):
        store = DirectoryJobStore(tmp_path / "ckpt")
        store.save_job("job-00000", {"seq": 0})
        store.save_job("job-00001", {"seq": 1})
        store.save_answers({"version": 1})
        assert (tmp_path / "ckpt" / "jobs" / "job-00000.json").exists()
        assert (tmp_path / "ckpt" / "answers.json").exists()
        assert set(store.load_jobs()) == {"job-00000", "job-00001"}
        assert store.load_answers() == {"version": 1}

    def test_no_scratch_files_left_behind(self, tmp_path):
        store = DirectoryJobStore(tmp_path)
        store.save_answers({"version": 1})
        store.save_job("job-00000", {"seq": 0})
        assert not list(tmp_path.rglob("*.tmp"))

    def test_overwrite_replaces_whole_record(self, tmp_path):
        store = DirectoryJobStore(tmp_path)
        store.save_job("job-00000", {"seq": 0, "status": "queued"})
        store.save_job("job-00000", {"seq": 0, "status": "succeeded"})
        assert store.load_jobs()["job-00000"]["status"] == "succeeded"

    def test_records_are_plain_json(self, tmp_path):
        store = DirectoryJobStore(tmp_path)
        store.save_job("job-00000", {"seq": 0})
        payload = json.loads((tmp_path / "jobs" / "job-00000.json").read_text())
        assert payload == {"seq": 0}


class TestDirectoryResume:
    def test_service_resumes_from_directory(self, tmp_path, dataset):
        reference_oracle = GroundTruthOracle(dataset)
        specs = [
            GroupAuditSpec(predicate=group(race=value), tau=80) for value in COUNTS
        ]
        with AuditSession(reference_oracle, engine=True) as session:
            reference = session.run_many(specs)

        store = DirectoryJobStore(tmp_path / "service")
        oracle = GroundTruthOracle(dataset)
        service = AuditService(
            oracle, max_active_jobs=3, job_store=store, checkpoint_every=2
        )
        with service:
            for spec in specs:
                service.submit(spec)
            for _ in range(4):  # partial progress, auto-checkpointed
                service.step()
            service.checkpoint()
        # The service object is gone — simulate a crash — but the
        # directory survives into a new process.
        del service

        revived = AuditService.resume(store, GroundTruthOracle(dataset))
        with revived:
            revived.drain()
            reports = [handle.result() for handle in revived.jobs()]
        for report, entry in zip(reports, reference.entries):
            assert report.result.covered == entry.result.covered
            assert report.result.count == entry.result.count
        assert all(
            handle.status == JobStatus.SUCCEEDED for handle in revived.jobs()
        )

    def test_resume_never_reuses_ids_of_post_checkpoint_jobs(self, dataset):
        """Job records persist at submission but the answer log only at
        checkpoints; a job submitted after the last checkpoint must keep
        its id after resume instead of being overwritten by the next
        submission."""
        store = InMemoryJobStore()
        service = AuditService(GroundTruthOracle(dataset), job_store=store)
        service.submit(GroupAuditSpec(predicate=group(race="white"), tau=10))
        service.checkpoint()  # records next_seq=1
        late = service.submit(GroupAuditSpec(predicate=group(race="black"), tau=10))
        del service  # crash: the late job's record is in the store, the
        # answer log still says next_seq=1

        revived = AuditService.resume(store, GroundTruthOracle(dataset))
        with revived:
            fresh = revived.submit(
                GroupAuditSpec(predicate=group(race="asian"), tau=10)
            )
            assert fresh.job_id != late.job_id
            assert revived.handle(late.job_id).spec.predicate == group(race="black")
            revived.drain()
            assert {handle.job_id for handle in revived.jobs()} == {
                "job-00000", "job-00001", "job-00002",
            }

    def test_resume_from_empty_store_raises(self, tmp_path):
        store = DirectoryJobStore(tmp_path)
        dataset = single_attribute_dataset(
            {"a": 10, "b": 10}, rng=np.random.default_rng(0)
        )
        with pytest.raises(InvalidParameterError):
            AuditService.resume(store, GroundTruthOracle(dataset))

    def test_resume_rejects_unknown_version(self, tmp_path, dataset):
        store = DirectoryJobStore(tmp_path)
        store.save_answers({"version": 99})
        with pytest.raises(InvalidParameterError):
            AuditService.resume(store, GroundTruthOracle(dataset))

    def test_tasks_paid_carries_over_a_resume(self, dataset):
        """``tasks_paid`` is the whole bill: what the checkpointed service
        paid plus what the resumed one pays, equal to an uninterrupted
        run's."""
        specs = [GroupAuditSpec(predicate=group(race=value), tau=80) for value in COUNTS]
        reference_oracle = GroundTruthOracle(dataset)
        with AuditService(reference_oracle) as reference:
            for spec in specs:
                reference.submit(spec)
            reference.drain()
        assert reference.tasks_paid == reference_oracle.ledger.total

        store = InMemoryJobStore()
        with AuditService(GroundTruthOracle(dataset), job_store=store) as first:
            for spec in specs:
                first.submit(spec)
            for _ in range(3):
                first.step()
            first.checkpoint()
            paid_before_crash = first.tasks_paid
        assert 0 < paid_before_crash < reference.tasks_paid

        revived = AuditService.resume(store, GroundTruthOracle(dataset))
        assert revived.tasks_paid == paid_before_crash
        with revived:
            revived.drain()
        assert revived.tasks_paid == reference.tasks_paid

    def test_answer_log_without_tasks_paid_counts_its_entries(self, dataset):
        store = InMemoryJobStore()
        with AuditService(GroundTruthOracle(dataset), job_store=store) as service:
            service.submit(GroupAuditSpec(predicate=group(race="black"), tau=80))
            service.drain()
        answers = store.load_answers()
        del answers["tasks_paid"]
        store.save_answers(answers)
        revived = AuditService.resume(store, GroundTruthOracle(dataset))
        assert revived.tasks_paid == len(answers["set_answers"]) + len(
            answers["point_answers"]
        )
