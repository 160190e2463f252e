"""Base-Coverage's point scan through the recording proxy.

A scan records the answers a per-point loop records, in the same order
and checkpoint bytes. When the task budget runs out mid-scan the paid
prefix is checkpointed, the error reads as a per-point ask's, and a
resume re-asks none of the checkpointed points.
"""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from repro.audit import AuditSession, BaseAuditSpec
from repro.audit.proxy import AnswerLog, RecordingOracleProxy
from repro.crowd.oracle import CrowdOracle, FlakyOracle, GroundTruthOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.workers import make_worker_pool
from repro.data.groups import group
from repro.data.sharded import ShardedDataset
from repro.data.synthetic import binary_dataset
from repro.errors import BudgetExceededError, CheckpointVersionError
from repro.serving.worker import QueryLoggingOracle

FEMALE = group(gender="female")
KINDS = ["dense", "sharded", "flaky", "crowd", "hooked"]
DETERMINISTIC = ["dense", "sharded", "hooked"]


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(1_500, 40, rng=np.random.default_rng(11))


class HookedOracle(GroundTruthOracle):
    """Overrides only the per-point hook, so scans take the default loop."""

    def _answer_point(self, index):
        return super()._answer_point(index)


def make_oracle(kind, dataset):
    if kind == "dense":
        return GroundTruthOracle(dataset)
    if kind == "sharded":
        return GroundTruthOracle(ShardedDataset.from_dataset(dataset, 250, max_resident_shards=2))
    if kind == "flaky":
        return FlakyOracle(dataset, np.random.default_rng(3), point_error_rate=0.01)
    if kind == "crowd":
        workers = make_worker_pool(5, np.random.default_rng(4), error_rate=0.2)
        return CrowdOracle(CrowdPlatform(dataset, workers, np.random.default_rng(5)))
    return HookedOracle(dataset)


@pytest.mark.parametrize("kind", KINDS)
def test_scan_records_what_the_per_point_loop_records(dataset, kind):
    scanning = RecordingOracleProxy(make_oracle(kind, dataset))
    looping = RecordingOracleProxy(make_oracle(kind, dataset))
    view = np.random.default_rng(6).permutation(len(dataset))[:700]
    codes = scanning.scan_points(view, FEMALE, 12)
    members = 0
    for index in view:
        members += FEMALE.matches_row(looping.ask_point(int(index)))
        if members == 12:
            break
    assert len(codes) == looping.ledger.n_point_queries == scanning.ledger.n_point_queries
    assert scanning.ledger.n_rounds == looping.ledger.n_rounds
    assert json.dumps(scanning.answer_log()) == json.dumps(looping.answer_log())


def test_scan_replays_recorded_runs_and_asks_only_fresh_ones(dataset):
    truth = GroundTruthOracle(dataset)
    replayed = [*range(3, 40), *range(300, 420)]
    labels = {index: dataset.value_row(index) for index in replayed}
    log = io.StringIO()
    proxy = RecordingOracleProxy(QueryLoggingOracle(truth, log))
    proxy.replay(AnswerLog({}, (replayed, dataset.schema.encode_rows(labels.values())), None, None))
    codes = proxy.scan_points(np.arange(len(dataset)), FEMALE, 30)
    expected = GroundTruthOracle(dataset).scan_points(np.arange(len(dataset)), FEMALE, 30)
    np.testing.assert_array_equal(codes, expected)
    asked = [json.loads(line)["index"] for line in log.getvalue().splitlines()]
    assert asked == [i for i in range(len(expected)) if i not in labels]
    assert truth.ledger.n_point_queries == len(asked)
    assert list(proxy.answer_log()["point_answers"][0].values()) == [3, labels[3]]


@pytest.mark.parametrize("kind", KINDS)
def test_budget_mid_scan_checkpoints_the_paid_prefix(dataset, kind):
    spec = BaseAuditSpec(predicate=FEMALE, tau=35)
    with AuditSession(make_oracle(kind, dataset)) as session:
        uninterrupted = session.run(spec)
    assert uninterrupted.tasks.total > 200

    killed = make_oracle(kind, dataset)
    session = AuditSession(killed, task_budget=200)
    with pytest.raises(BudgetExceededError) as error:
        with session:
            session.run(spec)
    assert str(error.value) == "task budget of 200 exhausted (0 set + 200 point queries)"
    checkpoint = session.checkpoint()
    paid = [entry["index"] for entry in json.loads(checkpoint)["point_answers"]]
    assert paid == list(range(200))

    log = io.StringIO()
    resumed_oracle = make_oracle(kind, dataset)
    with AuditSession.resume(checkpoint, QueryLoggingOracle(resumed_oracle, log)) as resumed:
        report = resumed.run_pending()
    asked = [json.loads(line)["index"] for line in log.getvalue().splitlines()]
    assert not set(asked) & set(paid)
    assert asked == list(range(200, 200 + len(asked)))
    if kind in DETERMINISTIC:
        ours, theirs = report.result, uninterrupted.result
        assert (ours.covered, ours.count, ours.discovered_indices) == (
            theirs.covered, theirs.count, theirs.discovered_indices)
        assert killed.ledger.total + resumed_oracle.ledger.total == uninterrupted.tasks.total


def test_on_round_fires_once_per_scan(dataset):
    stages = []
    with AuditSession(GroundTruthOracle(dataset), progress=lambda p: stages.append(p)) as session:
        report = session.run(BaseAuditSpec(predicate=FEMALE, tau=5))
    rounds = [event for event in stages if event.stage == "round"]
    assert len(rounds) == 1
    assert rounds[0].tasks == rounds[0].rounds == report.tasks.total > 5


def test_checkpointed_labels_outside_the_schema_fail_the_resume(dataset):
    """Point answers are code rows, so a checkpointed label the oracle's
    schema cannot encode is refused at decode, before anything is built."""
    with AuditSession(GroundTruthOracle(dataset)) as session:
        session.run(BaseAuditSpec(predicate=FEMALE, tau=2))
    checkpoint = json.loads(session.checkpoint())
    checkpoint["point_answers"][0]["labels"] = {"gender": "unknown"}
    oracle = GroundTruthOracle(dataset)
    with pytest.raises(CheckpointVersionError, match="outside the oracle's schema"):
        AuditSession.resume(json.dumps(checkpoint), oracle, task_budget=5)
    assert oracle.ledger.budget is None
