"""Checkpoint/resume: pay for every answer once, reach the same verdict."""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import (
    AuditSession,
    GroupAuditSpec,
    MultipleAuditSpec,
)
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset, single_attribute_dataset
from repro.errors import BudgetExceededError, InvalidParameterError

FEMALE = group(gender="female")


class RecordingOracle(GroundTruthOracle):
    """Ground truth plus a log of every set/point question actually asked."""

    def __init__(self, dataset, **kwargs):
        super().__init__(dataset, **kwargs)
        self.set_keys: list = []
        self.point_indices: list[int] = []

    def _answer_set(self, indices, predicate, index_key):
        self.set_keys.append(
            (predicate, np.ascontiguousarray(indices, dtype=np.int64).tobytes())
        )
        return super()._answer_set(indices, predicate, index_key)

    def _answer_set_batch(self, queries, index_keys):
        self.set_keys.extend(
            (predicate, indices.tobytes()) for indices, predicate in queries
        )
        return super()._answer_set_batch(queries, index_keys)

    def _answer_point(self, index):
        self.point_indices.append(index)
        return super()._answer_point(index)

    def _answer_point_batch(self, indices):
        self.point_indices.extend(indices)
        return [super(RecordingOracle, self)._answer_point(i) for i in indices]


@pytest.fixture
def dataset():
    return binary_dataset(4000, 35, rng=np.random.default_rng(5))


@pytest.mark.parametrize("engine", [None, True], ids=["sequential", "engine"])
def test_resume_reaches_same_verdict_without_reasking(dataset, engine):
    spec = GroupAuditSpec(predicate=FEMALE, tau=50)

    reference_oracle = GroundTruthOracle(dataset)
    with AuditSession(reference_oracle, engine=engine) as session:
        reference = session.run(spec)

    oracle = RecordingOracle(dataset)
    session = AuditSession(oracle, engine=engine, task_budget=60)
    with pytest.raises(BudgetExceededError):
        with session:
            session.run(spec)
    assert session.pending_specs == (spec,)
    paid_before = oracle.ledger.total
    assert 0 < paid_before <= 60
    first_phase = set(oracle.set_keys)
    checkpoint = session.checkpoint()

    resumed = AuditSession.resume(checkpoint, oracle)
    assert resumed.pending_specs == (spec,)
    mark = len(oracle.set_keys)
    with resumed:
        report = resumed.run_pending()
    second_phase = set(oracle.set_keys[mark:])

    # Not a single query the first phase paid for was asked again.
    assert not (first_phase & second_phase)
    # Same verdict and count as the uninterrupted reference, and the
    # two phases together paid exactly the uninterrupted bill.
    assert report.result.covered == reference.result.covered
    assert report.result.count == reference.result.count
    assert oracle.ledger.total == reference.result.tasks.total


def test_resume_restores_budget_semantics(dataset):
    spec = GroupAuditSpec(predicate=FEMALE, tau=50)
    oracle = GroundTruthOracle(dataset, budget=40)
    session = AuditSession(oracle, engine=True)
    with pytest.raises(BudgetExceededError):
        with session:
            session.run(spec)
    checkpoint = session.checkpoint()

    # Resume with a raised budget on the same oracle.
    resumed = AuditSession.resume(checkpoint, oracle, task_budget=10_000)
    with resumed:
        report = resumed.run_pending()
    assert report.result.covered is False
    # close() restored the oracle's own (exhausted) budget.
    assert oracle.ledger.budget == 40


def test_checkpoint_round_trips_rng_dependent_specs():
    """With seed= the sampling phase re-draws identically on resume, so
    point queries replay from the checkpoint instead of re-charging."""
    counts = {"white": 900, "black": 60, "asian": 45}
    dataset = single_attribute_dataset(counts, rng=np.random.default_rng(9))
    groups = tuple(group(race=value) for value in counts)
    spec = MultipleAuditSpec(groups=groups, tau=40)

    reference_oracle = GroundTruthOracle(dataset)
    with AuditSession(reference_oracle, engine=True, seed=13) as session:
        reference = session.run(spec)

    oracle = RecordingOracle(dataset)
    session = AuditSession(oracle, engine=True, seed=13, task_budget=90)
    with pytest.raises(BudgetExceededError):
        with session:
            session.run(spec)
    first_sets = set(oracle.set_keys)
    first_points = set(oracle.point_indices)
    checkpoint = session.checkpoint()

    resumed = AuditSession.resume(checkpoint, oracle)
    set_mark, point_mark = len(oracle.set_keys), len(oracle.point_indices)
    with resumed:
        report = resumed.run_pending()

    assert not (first_sets & set(oracle.set_keys[set_mark:]))
    assert not (first_points & set(oracle.point_indices[point_mark:]))
    for ours, theirs in zip(report.result.entries, reference.result.entries):
        assert (ours.covered, ours.count) == (theirs.covered, theirs.count)
    assert oracle.ledger.total == reference.result.tasks.total


def test_resume_restores_rng_stream_position():
    """A session that completed an rng-consuming run *before* the
    interrupted one must resume from the interrupted spec's stream
    position, not from the seed — otherwise the resumed sampling phase
    re-draws the earlier spec's samples and re-charges the crowd."""
    counts = {"white": 900, "black": 60, "asian": 45, "hispanic": 30}
    dataset = single_attribute_dataset(counts, rng=np.random.default_rng(9))
    first = MultipleAuditSpec(groups=(group(race="white"), group(race="black")), tau=40)
    second = MultipleAuditSpec(groups=(group(race="asian"), group(race="hispanic")), tau=40)

    # The same two-session split, uninterrupted: one session would
    # reuse `first`'s point labels in `second` and pay less.
    reference_oracle = GroundTruthOracle(dataset)
    with AuditSession(reference_oracle, engine=True, seed=13) as session:
        session.run(first)
    with AuditSession(reference_oracle, engine=True, rng=session.rng) as session:
        reference = session.run(second)

    oracle = RecordingOracle(dataset)
    session = AuditSession(oracle, engine=True, seed=13)
    with session:
        session.run(first)  # advances the rng stream past `first`
    session = AuditSession(oracle, engine=True, rng=session.rng, task_budget=oracle.ledger.total + 90)
    with pytest.raises(BudgetExceededError):
        with session:
            session.run(second)
    first_points = set(oracle.point_indices)
    checkpoint = session.checkpoint()

    resumed = AuditSession.resume(checkpoint, oracle)
    point_mark = len(oracle.point_indices)
    with resumed:
        report = resumed.run_pending()

    # No point query from either earlier phase was re-asked, and the
    # verdicts match the uninterrupted two-spec reference exactly.
    assert not (first_points & set(oracle.point_indices[point_mark:]))
    for ours, theirs in zip(report.result.entries, reference.result.entries):
        assert (ours.covered, ours.count) == (theirs.covered, theirs.count)
    assert oracle.ledger.total == reference_oracle.ledger.total


def test_failed_validation_does_not_poison_pending(dataset):
    """A spec that dies on parameter validation is not resumable work;
    it must not linger in pending_specs and break later checkpoints."""
    from repro.errors import InvalidParameterError

    with AuditSession(GroundTruthOracle(dataset), engine=True) as session:
        bad = GroupAuditSpec(predicate=FEMALE, tau=5, view=(0, len(dataset) + 7))
        with pytest.raises(InvalidParameterError):
            session.run(bad)
        assert session.pending_specs == ()
        with pytest.raises(InvalidParameterError):
            session.run_many([bad, GroupAuditSpec(predicate=FEMALE, tau=5)])
        assert session.pending_specs == ()
        checkpoint = session.checkpoint()
    resumed = AuditSession.resume(checkpoint, GroundTruthOracle(dataset))
    assert resumed.pending_specs == ()


def test_checkpoint_survives_json_and_rejects_unknown_version(dataset):
    import json

    oracle = GroundTruthOracle(dataset)
    session = AuditSession(oracle, engine=True, task_budget=40)
    with pytest.raises(BudgetExceededError):
        with session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=50))
    payload = json.loads(session.checkpoint())
    assert payload["version"] == 3
    assert payload["pending"]
    assert payload["set_answers"]
    # Contiguous-run answers serialize as compact endpoints, not
    # exhaustive index lists.
    assert any("run" in entry for entry in payload["set_answers"])

    payload["version"] = 99
    with pytest.raises(InvalidParameterError):
        AuditSession.resume(json.dumps(payload), oracle)


def test_version1_checkpoints_remain_readable(dataset):
    """Old checkpoints spell every run out as an index list; resuming
    one must intern those lists back into run keys and replay them."""
    import json

    oracle = RecordingOracle(dataset)
    session = AuditSession(oracle, engine=True, task_budget=40)
    with pytest.raises(BudgetExceededError):
        with session:
            session.run(GroupAuditSpec(predicate=FEMALE, tau=50))
    payload = json.loads(session.checkpoint())

    # Downgrade to the version-1 shape: exhaustive index lists only.
    payload["version"] = 1
    for entry in payload["set_answers"]:
        run = entry.pop("run", None)
        if run is not None:
            entry["indices"] = list(range(run[0], run[1]))

    resumed = AuditSession.resume(json.dumps(payload), oracle)
    mark = len(oracle.set_keys)
    with resumed:
        report = resumed.run_pending()
    replayed = set(oracle.set_keys[:mark])
    asked_after = set(oracle.set_keys[mark:])
    assert not (asked_after & replayed)  # nothing paid for twice
    (entry,) = report.entries
    reference = AuditSession(GroundTruthOracle(dataset), engine=True)
    with reference:
        expected = reference.run(GroupAuditSpec(predicate=FEMALE, tau=50))
    assert entry.result.covered == expected.entries[0].result.covered
    assert entry.result.count == expected.entries[0].result.count


def test_run_pending_requires_pending_specs(dataset):
    with AuditSession(GroundTruthOracle(dataset)) as session:
        with pytest.raises(InvalidParameterError):
            session.run_pending()


class TestServiceJobStoreResume:
    """The service-level analogue of session checkpointing: kill an
    AuditService mid-job, resume from its JobStore, and pay for nothing
    twice."""

    def _specs(self):
        return [
            GroupAuditSpec(predicate=group(gender="female"), tau=50),
            GroupAuditSpec(predicate=group(gender="male"), tau=5000),
        ]

    def test_killed_service_resumes_with_zero_reasked_queries(
        self, dataset, tmp_path
    ):
        from repro.service import AuditService, DirectoryJobStore, JobStatus

        reference_oracle = GroundTruthOracle(dataset)
        with AuditSession(reference_oracle, engine=True) as session:
            reference = session.run_many(self._specs())

        store = DirectoryJobStore(tmp_path / "killed-service")
        oracle = RecordingOracle(dataset)
        service = AuditService(oracle, max_active_jobs=2, job_store=store)
        for spec in self._specs():
            service.submit(spec)
        for _ in range(3):  # partial progress only
            service.step()
        service.checkpoint()
        first_phase = set(oracle.set_keys)
        assert first_phase  # the kill really is mid-job
        assert any(
            handle.status == JobStatus.RUNNING for handle in service.jobs()
        )
        del service  # the crash: no close(), no further checkpoints

        # The store directory is all that survives.
        revived = AuditService.resume(store, oracle)
        mark = len(oracle.set_keys)
        with revived:
            revived.drain()
            reports = [handle.result() for handle in revived.jobs()]
        second_phase = set(oracle.set_keys[mark:])

        # Not a single query the first phase paid for was asked again.
        assert not (first_phase & second_phase)
        # Identical verdicts, and the two phases together paid exactly
        # the uninterrupted bill.
        for report, entry in zip(reports, reference.entries):
            assert report.result.covered == entry.result.covered
            assert report.result.count == entry.result.count
        assert oracle.ledger.total == reference_oracle.ledger.total

    def test_resume_preserves_rng_dependent_jobs(self, tmp_path):
        from repro.service import AuditService, InMemoryJobStore

        counts = {"white": 900, "black": 60, "asian": 45}
        dataset = single_attribute_dataset(counts, rng=np.random.default_rng(9))
        spec = MultipleAuditSpec(
            groups=tuple(group(race=value) for value in counts), tau=40
        )

        reference_oracle = GroundTruthOracle(dataset)
        with AuditSession(reference_oracle, engine=True, seed=13) as session:
            reference = session.run(spec)

        # Kill the service before the job ever activates: the recorded
        # per-job seed must survive into the revived service.
        store = InMemoryJobStore()
        oracle = RecordingOracle(dataset)
        service = AuditService(oracle, job_store=store)
        service.submit(spec, seed=13)
        service.checkpoint()
        del service

        revived = AuditService.resume(store, oracle)
        with revived:
            revived.drain()
            (report,) = [handle.result() for handle in revived.jobs()]
        for ours, theirs in zip(report.result.entries, reference.result.entries):
            assert (ours.covered, ours.count) == (theirs.covered, theirs.count)
        assert oracle.ledger.total == reference_oracle.ledger.total
