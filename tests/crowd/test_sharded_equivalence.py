"""Sharded out-of-core answering == dense answering, end to end.

The sharded index must thread through every layer transparently: the
same oracle kinds, the same stepper-derived run keys, sessions, and the
multi-tenant service — with bit-identical verdicts, counts, task
charges, and rng streams versus the in-RAM dataset (one shard) over
identical content.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.audit import (
    AuditSession,
    GroupAuditSpec,
    IntersectionalAuditSpec,
    MultipleAuditSpec,
)
from repro.crowd.oracle import CrowdOracle, FlakyOracle, GroundTruthOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.workers import make_worker_pool
from repro.data.groups import group
from repro.data.schema import Schema
from repro.data.sharded import ShardedDataset, ShardedMembershipIndex, ShardExecutor
from repro.data.synthetic import (
    binary_dataset,
    intersectional_dataset,
    single_attribute_dataset,
)
from repro.service import AuditService

FEMALE = group(gender="female")


def fingerprint(report):
    return report.to_dict()["entries"]


@pytest.fixture
def dense():
    return binary_dataset(3_000, 40, rng=np.random.default_rng(21))


def run_session(oracle, specs, *, engine, seed=123):
    with AuditSession(oracle, engine=engine, seed=seed) as session:
        return session.run_many(specs)


@pytest.mark.parametrize("engine", [None, True], ids=["sequential", "engine"])
@pytest.mark.parametrize("shard_size", [256, 1_000, 8_192])
def test_group_audit_bit_identical_over_sharded_oracle(dense, engine, shard_size):
    specs = [
        GroupAuditSpec(predicate=FEMALE, tau=50),
        GroupAuditSpec(predicate=group(gender="male"), tau=10),
    ]
    reference = run_session(GroundTruthOracle(dense), specs, engine=engine)
    sharded = ShardedDataset.from_dataset(dense, shard_size, max_resident_shards=2)
    report = run_session(GroundTruthOracle(sharded), specs, engine=engine)
    assert fingerprint(report) == fingerprint(reference)
    assert report.tasks == reference.tasks


@pytest.mark.parametrize("engine", [None, True], ids=["sequential", "engine"])
def test_multiple_audit_bit_identical_over_sharded_oracle(engine):
    rng = np.random.default_rng(4)
    counts = {"white": 2_600, "black": 45, "asian": 40, "other": 15}
    dense = single_attribute_dataset(counts, rng=rng)
    spec = MultipleAuditSpec(
        groups=tuple(group(race=value) for value in counts), tau=50
    )
    reference = run_session(GroundTruthOracle(dense), [spec], engine=engine)
    sharded = ShardedDataset.from_dataset(dense, 512, max_resident_shards=2)
    report = run_session(GroundTruthOracle(sharded), [spec], engine=engine)
    assert fingerprint(report) == fingerprint(reference)
    assert report.tasks == reference.tasks


@pytest.mark.parametrize("engine", [None, True], ids=["sequential", "engine"])
def test_intersectional_audit_bit_identical_over_sharded_oracle(engine):
    schema = Schema.from_dict(
        {"gender": ["male", "female"], "race": ["white", "black"]}
    )
    joint = {
        ("male", "white"): 2_400,
        ("female", "white"): 300,
        ("male", "black"): 45,
        ("female", "black"): 30,
    }
    dense = intersectional_dataset(schema, joint, rng=np.random.default_rng(9))
    spec = IntersectionalAuditSpec(schema=schema, tau=50)
    reference = run_session(GroundTruthOracle(dense), [spec], engine=engine)
    sharded = ShardedDataset.from_dataset(dense, 700, max_resident_shards=3)
    report = run_session(GroundTruthOracle(sharded), [spec], engine=engine)
    assert fingerprint(report) == fingerprint(reference)
    assert report.tasks == reference.tasks


def test_threaded_executor_keeps_bit_identity(dense):
    spec = GroupAuditSpec(predicate=FEMALE, tau=50)
    reference = run_session(GroundTruthOracle(dense), [spec], engine=True)
    sharded = ShardedDataset.from_dataset(dense, 256, max_resident_shards=2)
    with ShardExecutor(mode="threads", max_workers=4) as executor:
        index = ShardedMembershipIndex(sharded, executor=executor)
        report = run_session(
            GroundTruthOracle(sharded, index=index), [spec], engine=True
        )
    assert fingerprint(report) == fingerprint(reference)
    assert report.tasks == reference.tasks


def test_flaky_oracle_consumes_identical_rng_stream(dense):
    spec = GroupAuditSpec(predicate=FEMALE, tau=50)
    reference = run_session(
        FlakyOracle(dense, np.random.default_rng(77), set_error_rate=0.08),
        [spec],
        engine=True,
    )
    sharded = ShardedDataset.from_dataset(dense, 400, max_resident_shards=2)
    report = run_session(
        FlakyOracle(sharded, np.random.default_rng(77), set_error_rate=0.08),
        [spec],
        engine=True,
    )
    # Same truth, same flip draws in the same batch shapes: identical
    # noisy verdicts and identical charges.
    assert fingerprint(report) == fingerprint(reference)
    assert report.tasks == reference.tasks


def test_crowd_platform_answers_from_sharded_hidden_truth(dense):
    spec = GroupAuditSpec(predicate=FEMALE, tau=40)

    def build(dataset, seed):
        workers = make_worker_pool(
            12, rng=np.random.default_rng(seed), error_rate=0.05
        )
        platform = CrowdPlatform(
            dataset, workers, np.random.default_rng(seed + 1)
        )
        return CrowdOracle(platform), platform

    reference_oracle, reference_platform = build(dense, 5)
    reference = run_session(reference_oracle, [spec], engine=None)
    sharded = ShardedDataset.from_dataset(dense, 512)
    oracle, platform = build(sharded, 5)
    report = run_session(oracle, [spec], engine=None)
    assert fingerprint(report) == fingerprint(reference)
    assert platform.ledger.n_hits == reference_platform.ledger.n_hits
    assert platform.raw_error_rate == reference_platform.raw_error_rate


def test_audit_service_runs_sharded_jobs_bit_identically(dense):
    specs = [
        GroupAuditSpec(predicate=FEMALE, tau=50),
        GroupAuditSpec(predicate=group(gender="male"), tau=25),
        MultipleAuditSpec(groups=(FEMALE, group(gender="male")), tau=30),
    ]

    def drain(dataset):
        with AuditService(GroundTruthOracle(dataset), seed=3) as service:
            handles = [
                service.submit(spec, tenant=f"tenant-{i % 2}")
                for i, spec in enumerate(specs)
            ]
            service.drain()
            return [fingerprint(handle.result()) for handle in handles], (
                service.oracle.ledger.total
            )

    reference_results, reference_tasks = drain(dense)
    sharded_results, sharded_tasks = drain(
        ShardedDataset.from_dataset(dense, 640, max_resident_shards=2)
    )
    assert sharded_results == reference_results
    assert sharded_tasks == reference_tasks


def test_session_exposes_sharded_membership_index(dense):
    sharded = ShardedDataset.from_dataset(dense, 512)
    oracle = GroundTruthOracle(sharded)
    with AuditSession(oracle) as session:
        assert isinstance(session.membership_index, ShardedMembershipIndex)
        assert session.dataset_size == len(dense)
