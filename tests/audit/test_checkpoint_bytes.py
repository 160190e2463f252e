"""Pin the exact bytes of session checkpoints and service answer logs.

Each case runs one audit spec to the end and hashes what a checkpoint
writes: the whole :meth:`AuditSession.checkpoint` string, and the
JSON of the service's folded answer log
(:meth:`~repro.service.DirectoryJobStore.load_answers`) with its
``tasks_paid`` counter removed. The
expected sha256 prefixes were recorded from the reference
implementation, so any change to the answer-log format, its key order,
its entry order or its reliability section shows up here.

The cases cover sequential and engine sessions, with and without an
:class:`~repro.crowd.reliability.AdaptiveAssignmentPolicy` platform,
over three spec kinds: group (set answers only), base (point answers)
and multiple (the engine cache's implied negatives, which the log must
not carry). Beside each pin, the log's entry count equals the tasks
the oracle charged: the answer log is exactly the bill.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.audit import (
    AuditSession,
    BaseAuditSpec,
    GroupAuditSpec,
    MultipleAuditSpec,
)
from repro.crowd.oracle import CrowdOracle, GroundTruthOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.reliability import AdaptiveAssignmentPolicy
from repro.crowd.workers import make_worker_pool
from repro.data.groups import group
from repro.data.synthetic import single_attribute_dataset
from repro.service import AuditService, DirectoryJobStore

RACE_COUNTS = {"white": 1500, "black": 45, "asian": 55, "other": 30}
SPECS = {
    "group": GroupAuditSpec(predicate=group(race="black"), tau=50),
    "base": BaseAuditSpec(predicate=group(race="asian"), tau=10),
    "multiple": MultipleAuditSpec(
        groups=tuple(group(race=value) for value in RACE_COUNTS), tau=50
    ),
}
MODES = ["sequential", "engine"]
RELIABILITY = ["none", "adaptive"]


def make_oracle(reliability: str):
    dataset = single_attribute_dataset(
        RACE_COUNTS, attribute="race", rng=np.random.default_rng(0)
    )
    if reliability == "none":
        return GroundTruthOracle(dataset)
    pool = make_worker_pool(
        12,
        np.random.default_rng(3),
        error_rate=0.03,
        spammer_fraction=0.25,
        spammer_error_rate=0.45,
    )
    platform = CrowdPlatform(
        dataset,
        pool,
        np.random.default_rng(11),
        reliability=AdaptiveAssignmentPolicy(log_odds_threshold=3.5),
    )
    return CrowdOracle(platform)


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def entries(log: dict) -> int:
    return len(log["set_answers"]) + len(log["point_answers"])


def session_checkpoint_digest(kind: str, mode: str, reliability: str) -> str:
    oracle = make_oracle(reliability)
    session = AuditSession(oracle, engine=mode == "engine" or None, seed=5)
    with session:
        session.run(SPECS[kind])
    checkpoint = session.checkpoint()
    assert entries(json.loads(checkpoint)) == oracle.ledger.total
    return sha(checkpoint)


def service_answer_log_digest(reliability: str, tmp_path) -> str:
    store = DirectoryJobStore(tmp_path / "state")
    oracle = make_oracle(reliability)
    with AuditService(oracle, job_store=store, seed=5) as service:
        for spec in SPECS.values():
            service.submit(spec)
        service.drain()
    payload = store.load_answers()
    assert entries(payload) == payload.pop("tasks_paid") == oracle.ledger.total
    return sha(json.dumps(payload))


# (kind, mode, reliability) -> sha256[:16] of AuditSession.checkpoint(),
# recorded from the reference implementation. The engine multiple pins
# were re-recorded when the engine cache's unpaid implied negatives left
# the log (none: 1,046 entries -> its 968 paid tasks).
EXPECTED_SESSION: dict[tuple[str, str, str], str] = {
    ('group', 'sequential', 'none'): '5b3c517c59be0f4b',
    ('group', 'sequential', 'adaptive'): 'c7db6b4f43c37614',
    ('group', 'engine', 'none'): 'ceab64423cc433f0',
    ('group', 'engine', 'adaptive'): 'feb26d84500224be',
    ('base', 'sequential', 'none'): '773d84eb975c53b9',
    ('base', 'sequential', 'adaptive'): '27a7c4802f0cdbdb',
    ('base', 'engine', 'none'): '2109e356448b4e22',
    ('base', 'engine', 'adaptive'): '8fcfd599ce587465',
    ('multiple', 'sequential', 'none'): '0f13af259bbaf623',
    ('multiple', 'sequential', 'adaptive'): '904a6337c036a516',
    ('multiple', 'engine', 'none'): '705f671e824a23c1',
    ('multiple', 'engine', 'adaptive'): '98b12d91e4dd06d4',
}

# reliability -> sha256[:16] of the folded answer log minus ``tasks_paid``,
# re-recorded when the implied negatives left the log and the jobs began
# sharing point answers (none: 1,553 tasks -> 1,536).
EXPECTED_SERVICE: dict[str, str] = {
    'none': '3c6b0a86a193c341',
    'adaptive': '9dc116f859e53152',
}


@pytest.mark.parametrize("reliability", RELIABILITY)
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("kind", list(SPECS))
def test_session_checkpoint_bytes_are_pinned(kind, mode, reliability):
    digest = session_checkpoint_digest(kind, mode, reliability)
    assert digest == EXPECTED_SESSION[kind, mode, reliability]


@pytest.mark.parametrize("reliability", RELIABILITY)
def test_service_answer_log_bytes_are_pinned(reliability, tmp_path):
    digest = service_answer_log_digest(reliability, tmp_path)
    assert digest == EXPECTED_SERVICE[reliability]
