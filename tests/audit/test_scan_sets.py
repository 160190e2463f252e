"""Group-Coverage's generation scans through the recording proxy.

A scan the proxy passes through records the answers the per-query loop
records, in the same order and checkpoint bytes, and keys them only when
the log or a lookup reads them. A scan that might ask a held answer runs
the per-query loop through the proxy, so held answers stay free.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.audit import AuditSession, GroupAuditSpec
from repro.audit.proxy import RecordingOracleProxy
from repro.core.group_coverage import GroupCoverageStepper, run_sequential
from repro.crowd.oracle import FlakyOracle, GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.engine.requests import IndexKey

FEMALE = group(gender="female")


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(1_500, 40, rng=np.random.default_rng(11))


def make_oracle(kind, dataset):
    if kind == "truth":
        return GroundTruthOracle(dataset)
    return FlakyOracle(dataset, np.random.default_rng(3), set_error_rate=0.1)


def per_query(proxy, steppers):
    """The per-query loop the generation scans replace."""
    for stepper in steppers:
        while not stepper.done:
            request = stepper.pending(limit=1)[0]
            answer = proxy.ask_set(request.indices, FEMALE, key=request.key)
            stepper.feed({request.key: answer})


@pytest.mark.parametrize("kind", ["truth", "flaky"])
@pytest.mark.parametrize("view", ["all", "sampled"])
def test_scans_record_what_the_per_query_loop_records(dataset, kind, view):
    indices = np.arange(len(dataset))
    if view == "sampled":
        indices = np.sort(np.random.default_rng(2).choice(indices, 700, replace=False))
    logs, results = [], []
    for drive in (run_sequential, per_query):
        proxy = RecordingOracleProxy(make_oracle(kind, dataset))
        stepper = GroupCoverageStepper(FEMALE, 25, n=30, view=indices)
        drive(proxy, [stepper])
        logs.append(proxy.answer_log())
        results.append((stepper.result(), proxy.ledger.n_set_queries))
    assert logs[0] == logs[1] and results[0] == results[1]
    assert len(logs[0]["set_answers"]) == results[0][1]


def test_scans_are_keyed_only_when_read(dataset, monkeypatch):
    proxy = RecordingOracleProxy(GroundTruthOracle(dataset))
    keyed = []
    of = IndexKey.of
    monkeypatch.setattr(IndexKey, "of", lambda indices: keyed.append(1) or of(indices))
    run_sequential(proxy, [GroupCoverageStepper(FEMALE, 25, n=30, view=np.arange(1_500))])
    assert keyed == [] and proxy.ledger.n_set_queries > 0
    assert len(proxy.answer_log()["set_answers"]) == len(keyed) == proxy.ledger.n_set_queries


@pytest.mark.parametrize("kind", ["truth", "flaky"])
def test_a_run_over_a_paid_predicate_pays_only_fresh_queries(dataset, kind):
    """The second run asks the first run's queries again, and more: the
    proxy answers the held ones free and pays each fresh one once."""
    oracle = make_oracle(kind, dataset)
    with AuditSession(oracle, seed=1) as session:
        session.run(GroupAuditSpec(predicate=FEMALE, tau=10, n=30))
        first = oracle.ledger.n_set_queries
        session.run(GroupAuditSpec(predicate=FEMALE, tau=30, n=30))
        log = json.loads(session.checkpoint())["set_answers"]
    fresh = RecordingOracleProxy(make_oracle(kind, dataset))
    stepper = GroupCoverageStepper(FEMALE, 30, n=30, view=np.arange(len(dataset)))
    run_sequential(fresh, [stepper])
    assert len(log) == oracle.ledger.n_set_queries > first
    if kind == "truth":  # a noisy second run may ask other queries
        assert oracle.ledger.n_set_queries == max(first, fresh.ledger.n_set_queries)
