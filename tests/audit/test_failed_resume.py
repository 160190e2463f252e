"""A resume that fails leaves the caller's oracle as it was.

``AuditSession.resume`` and ``AuditService.resume`` decode the whole
checkpoint — answer log, rng state, pending specs, job records and the
reliability section — before they build anything. An unreadable
checkpoint therefore raises :class:`~repro.errors.CheckpointVersionError`
without installing ``task_budget`` on the oracle's ledger or restoring
reliability state onto its platform.
"""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.audit import AuditSession, MultipleAuditSpec
from repro.crowd.oracle import CrowdOracle, GroundTruthOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.reliability import AdaptiveAssignmentPolicy
from repro.crowd.workers import make_worker_pool
from repro.data.groups import group
from repro.data.synthetic import single_attribute_dataset
from repro.errors import BudgetExceededError, CheckpointVersionError
from repro.service import AuditService, InMemoryJobStore

RACE_COUNTS = {"white": 1500, "black": 45, "asian": 55, "other": 30}
SPEC = MultipleAuditSpec(
    groups=tuple(group(race=value) for value in RACE_COUNTS), tau=50
)


@pytest.fixture(scope="module")
def dataset():
    return single_attribute_dataset(
        RACE_COUNTS, attribute="race", rng=np.random.default_rng(0)
    )


def reliability_oracle(dataset):
    pool = make_worker_pool(
        12, np.random.default_rng(3), error_rate=0.03, spammer_fraction=0.25
    )
    platform = CrowdPlatform(
        dataset,
        pool,
        np.random.default_rng(11),
        reliability=AdaptiveAssignmentPolicy(log_odds_threshold=3.5),
    )
    return CrowdOracle(platform)


def drop(field):
    """A corruption removing ``field`` from the first entry of a list."""

    def corrupt(entries):
        del entries[0][field]

    return corrupt


def corrupted(payload, section, corrupt):
    broken = copy.deepcopy(payload)
    if callable(corrupt):
        corrupt(broken[section])
    else:
        broken[section] = corrupt
    return broken


# (section, corruption): one unreadable entry of each kind.
LOG_CORRUPTIONS = {
    "set-answer": ("set_answers", drop("predicate")),
    "point-answer": ("point_answers", drop("labels")),
    "reliability-version": ("reliability", lambda r: r.update(version=99)),
    "reliability-policy": ("reliability", lambda r: r["policy"].pop("tracker")),
    "reliability-rng": (
        "reliability",
        lambda r: r["platform_rng_state"].update(bit_generator="NoSuchGenerator"),
    ),
}
SESSION_CORRUPTIONS = dict(
    LOG_CORRUPTIONS,
    **{
        "rng-state": ("rng_state", {"bit_generator": "NoSuchGenerator"}),
        "pending-spec": ("pending", drop("tau")),
    },
)


def assert_untouched(oracle, reference_state):
    assert oracle.ledger.budget is None
    assert oracle.ledger.total == 0
    platform = getattr(oracle, "platform", None)
    if platform is not None:
        assert platform.reliability.state_dict() == reference_state


@pytest.fixture(scope="module")
def session_checkpoint(dataset):
    session = AuditSession(reliability_oracle(dataset), seed=5, task_budget=150)
    with pytest.raises(BudgetExceededError):
        with session:
            session.run(SPEC)
    payload = json.loads(session.checkpoint())
    assert payload["set_answers"] and payload["point_answers"]
    assert payload["pending"] and payload["rng_state"] and payload["reliability"]
    return payload


@pytest.fixture(scope="module")
def service_checkpoint(dataset):
    store = InMemoryJobStore()
    service = AuditService(
        reliability_oracle(dataset), job_store=store, seed=5, task_budget=150
    )
    with service:
        service.submit(SPEC)
        with pytest.raises(BudgetExceededError):
            service.drain()
    answers, jobs = store.load_answers(), store.load_jobs()
    assert answers["set_answers"] and answers["point_answers"]
    assert answers["reliability"] and jobs
    return answers, jobs


def fresh_reliability_state(dataset):
    return reliability_oracle(dataset).platform.reliability.state_dict()


@pytest.mark.parametrize("case", sorted(SESSION_CORRUPTIONS))
def test_failed_session_resume_leaves_the_oracle_untouched(
    dataset, session_checkpoint, case
):
    broken = corrupted(session_checkpoint, *SESSION_CORRUPTIONS[case])
    oracle = reliability_oracle(dataset)
    with pytest.raises(CheckpointVersionError):
        AuditSession.resume(json.dumps(broken), oracle, task_budget=7)
    assert_untouched(oracle, fresh_reliability_state(dataset))


def test_session_resume_without_a_reliability_platform_leaves_the_oracle_untouched(
    dataset, session_checkpoint
):
    oracle = GroundTruthOracle(dataset)
    with pytest.raises(CheckpointVersionError, match="reliability-enabled"):
        AuditSession.resume(json.dumps(session_checkpoint), oracle, task_budget=7)
    assert_untouched(oracle, None)


def service_store(answers, jobs):
    store = InMemoryJobStore()
    store.save_answers(answers)
    for job_id, record in jobs.items():
        store.save_job(job_id, record)
    return store


@pytest.mark.parametrize("case", sorted(LOG_CORRUPTIONS))
def test_failed_service_resume_leaves_the_oracle_untouched(
    dataset, service_checkpoint, case
):
    answers, jobs = service_checkpoint
    store = service_store(corrupted(answers, *LOG_CORRUPTIONS[case]), jobs)
    oracle = reliability_oracle(dataset)
    with pytest.raises(CheckpointVersionError):
        AuditService.resume(store, oracle, task_budget=7)
    assert_untouched(oracle, fresh_reliability_state(dataset))


def test_service_resume_with_a_broken_job_record_leaves_the_oracle_untouched(
    dataset, service_checkpoint
):
    answers, jobs = service_checkpoint
    jobs = copy.deepcopy(jobs)
    del next(iter(jobs.values()))["events"]
    oracle = reliability_oracle(dataset)
    with pytest.raises(CheckpointVersionError, match="'events'"):
        AuditService.resume(service_store(answers, jobs), oracle, task_budget=7)
    assert_untouched(oracle, fresh_reliability_state(dataset))


def test_service_resume_without_a_reliability_platform_leaves_the_oracle_untouched(
    dataset, service_checkpoint
):
    oracle = GroundTruthOracle(dataset)
    with pytest.raises(CheckpointVersionError, match="reliability-enabled"):
        AuditService.resume(service_store(*service_checkpoint), oracle, task_budget=7)
    assert_untouched(oracle, None)
