"""The non-blocking engine core: admit / pump / absorb / retire."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.group_coverage import GroupCoverageStepper
from repro.crowd.backends import InlineBackend, LatencyModelBackend
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.engine import QueryEngine
from repro.errors import InvalidParameterError

FEMALE = group(gender="female")
MALE = group(gender="male")


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(2000, 30, rng=np.random.default_rng(7))


def make_stepper(dataset, predicate=FEMALE, tau=50, **kwargs):
    return GroupCoverageStepper(
        predicate, tau, view=np.arange(len(dataset), dtype=np.int64), **kwargs
    )


def drain(engine):
    """Pump/absorb until the engine has no work — a hand-rolled run()."""
    while engine.has_work:
        engine.pump()
        while engine.outstanding_tickets:
            ticket = engine.backend.next_done()
            engine.absorb(ticket, engine.backend.gather(ticket))
    engine.settle()


class TestPumpAbsorb:
    def test_manual_drain_matches_run(self, dataset):
        reference_oracle = GroundTruthOracle(dataset)
        reference_engine = QueryEngine(reference_oracle, batch_size=16)
        reference = make_stepper(dataset)
        reference_engine.run([reference])

        oracle = GroundTruthOracle(dataset)
        engine = QueryEngine(oracle, batch_size=16)
        stepper = make_stepper(dataset)
        flow = engine.admit(stepper)
        drain(engine)
        assert flow.finished
        assert (stepper.covered, stepper.count) == (
            reference.covered, reference.count,
        )
        assert oracle.ledger.total == reference_oracle.ledger.total
        assert flow.dispatched == oracle.ledger.n_set_queries

    def test_pump_returns_tickets_absorb_feeds_them(self, dataset):
        engine = QueryEngine(GroundTruthOracle(dataset), batch_size=8)
        stepper = make_stepper(dataset, tau=5)
        engine.admit(stepper)
        tickets = engine.pump()
        assert tickets and engine.outstanding_tickets == len(tickets)
        for ticket in tickets:
            engine.absorb(ticket, engine.backend.gather(ticket))
        assert engine.outstanding_tickets == 0
        assert stepper.count > 0 or stepper.done

    def test_absorb_out_of_submission_order(self, dataset):
        """Answers may come back in any order; verdicts must not care."""
        reference_oracle = GroundTruthOracle(dataset)
        reference = make_stepper(dataset)
        QueryEngine(reference_oracle, batch_size=4).run([reference])

        engine = QueryEngine(GroundTruthOracle(dataset), batch_size=4)
        stepper = make_stepper(dataset)
        engine.admit(stepper)
        while engine.has_work:
            tickets = engine.pump()
            gathered = [(t, engine.backend.gather(t)) for t in tickets]
            for ticket, answers in reversed(gathered):
                engine.absorb(ticket, answers)
        engine.settle()
        assert (stepper.covered, stepper.count) == (
            reference.covered, reference.count,
        )

    def test_partial_absorb_keeps_other_audits_moving(self, dataset):
        """With a latency backend, a flow whose answers arrived advances
        while another flow's batch is still outstanding."""
        oracle = GroundTruthOracle(dataset)
        backend = LatencyModelBackend(oracle, rng=np.random.default_rng(3))
        engine = QueryEngine(backend=backend, batch_size=64)
        female = make_stepper(dataset, FEMALE, tau=10)
        male = make_stepper(dataset, MALE, tau=10)
        engine.admit(female)
        engine.admit(male)
        engine.pump()
        # Absorb only the first completed ticket, then pump again: the
        # fed flow re-arms its frontier without waiting for the rest.
        ticket = backend.next_done()
        engine.absorb(ticket, backend.gather(ticket))
        before = engine.outstanding_tickets
        engine.pump()
        assert engine.outstanding_tickets >= before
        drain(engine)
        assert female.done and male.done

    def test_absorb_unknown_ticket_raises(self, dataset):
        engine = QueryEngine(GroundTruthOracle(dataset))
        other = InlineBackend(GroundTruthOracle(dataset))
        import numpy as _np
        from repro.engine import set_query_key

        foreign = other.submit([set_query_key(_np.arange(5), FEMALE)])
        with pytest.raises(InvalidParameterError):
            engine.absorb(foreign, [True])

    def test_absorb_wrong_answer_count_raises(self, dataset):
        engine = QueryEngine(GroundTruthOracle(dataset), batch_size=4)
        engine.admit(make_stepper(dataset, tau=3))
        (ticket, *_) = engine.pump()
        with pytest.raises(InvalidParameterError):
            engine.absorb(ticket, [True])


class TestRetire:
    def test_retired_flow_stops_consuming_budget(self, dataset):
        oracle = GroundTruthOracle(dataset)
        engine = QueryEngine(oracle, batch_size=8)
        stepper = make_stepper(dataset)
        flow = engine.admit(stepper)
        engine.pump()
        spent = oracle.ledger.total
        engine.retire(flow)
        # Outstanding answers are cached (they were paid for) but the
        # audit is abandoned: no further pumps collect it.
        while engine.outstanding_tickets:
            ticket = engine.backend.next_done()
            engine.absorb(ticket, engine.backend.gather(ticket))
        assert engine.pump() == []
        assert oracle.ledger.total == spent
        assert not stepper.done
        assert len(engine.cache) > 0

    def test_retired_answers_still_serve_other_audits(self, dataset):
        oracle = GroundTruthOracle(dataset)
        engine = QueryEngine(oracle, batch_size=8)
        flow = engine.admit(make_stepper(dataset))
        engine.pump()
        engine.retire(flow)
        while engine.outstanding_tickets:
            ticket = engine.backend.next_done()
            engine.absorb(ticket, engine.backend.gather(ticket))
        spent = oracle.ledger.total
        fresh = make_stepper(dataset)
        engine.run([fresh])
        # The second audit replays the retired flow's prefix for free.
        assert engine.cache.hits >= spent
        assert fresh.done


class TestFlowHandles:
    def test_born_done_flow_finishes_at_admission(self, dataset):
        engine = QueryEngine(GroundTruthOracle(dataset))
        finished = []
        flow = engine.admit(
            make_stepper(dataset, tau=0), on_complete=finished.append
        )
        assert flow.finished
        assert len(finished) == 1

    def test_spawned_flows_recorded_on_the_parent(self, dataset):
        engine = QueryEngine(GroundTruthOracle(dataset), batch_size=32)
        child = make_stepper(dataset, tau=5)

        def on_complete(stepper):
            return [child] if stepper is not child else None

        flow = engine.admit(make_stepper(dataset, tau=2), on_complete=on_complete)
        drain(engine)
        assert flow.finished
        assert [spawn.stepper for spawn in flow.spawned] == [child]
        assert flow.spawned[0].finished
