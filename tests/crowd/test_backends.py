"""The CrowdBackend protocol: lifecycle, charging, and the three backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.backends import (
    InlineBackend,
    LatencyModel,
    LatencyModelBackend,
    SimulatedClock,
    ThreadedBackend,
)
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.engine import QueryEngine, SetRequest
from repro.errors import BudgetExceededError, InvalidParameterError

FEMALE = group(gender="female")
MALE = group(gender="male")


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(600, 25, rng=np.random.default_rng(11))


def requests_over(dataset, *, predicate=FEMALE, chunk=50):
    return [
        SetRequest(np.arange(start, min(start + chunk, len(dataset))), predicate)
        for start in range(0, len(dataset), chunk)
    ]


class TestLifecycle:
    def test_submit_poll_gather_round_trip(self, dataset):
        oracle = GroundTruthOracle(dataset)
        backend = InlineBackend(oracle)
        batch = requests_over(dataset)[:4]
        ticket = backend.submit(batch)
        assert ticket.n_queries == 4
        assert backend.outstanding == 1
        assert backend.poll() == [ticket]
        answers = backend.gather(ticket)
        assert answers == [
            oracle.membership_index.any_match(request.predicate, request.key[1])
            for request in batch
        ]
        assert backend.outstanding == 0
        assert backend.poll() == []

    def test_gather_is_one_shot(self, dataset):
        backend = InlineBackend(GroundTruthOracle(dataset))
        ticket = backend.submit(requests_over(dataset)[:1])
        backend.gather(ticket)
        with pytest.raises(InvalidParameterError):
            backend.gather(ticket)

    def test_empty_batch_rejected(self, dataset):
        backend = InlineBackend(GroundTruthOracle(dataset))
        with pytest.raises(InvalidParameterError):
            backend.submit([])

    def test_next_done_requires_outstanding_tickets(self, dataset):
        backend = InlineBackend(GroundTruthOracle(dataset))
        with pytest.raises(InvalidParameterError):
            backend.next_done()

    def test_next_done_returns_submission_order_when_inline(self, dataset):
        backend = InlineBackend(GroundTruthOracle(dataset))
        first = backend.submit(requests_over(dataset)[:1])
        backend.submit(requests_over(dataset, predicate=MALE)[:1])
        assert backend.next_done() is first

    def test_charging_happens_at_submit(self, dataset):
        oracle = GroundTruthOracle(dataset)
        backend = InlineBackend(oracle)
        batch = requests_over(dataset)[:3]
        backend.submit(batch)
        # Tasks and the round-trip are billed whether or not anyone
        # gathers: the HITs are published.
        assert oracle.ledger.n_set_queries == 3
        assert oracle.ledger.n_rounds == 1

    def test_refused_batch_leaves_no_ticket(self, dataset):
        oracle = GroundTruthOracle(dataset, budget=2)
        backend = InlineBackend(oracle)
        with pytest.raises(BudgetExceededError):
            backend.submit(requests_over(dataset)[:3])
        assert backend.outstanding == 0
        assert oracle.ledger.total == 0


class TestLatencyModelBackend:
    def test_answers_withheld_until_the_clock_reaches_them(self, dataset):
        oracle = GroundTruthOracle(dataset)
        backend = LatencyModelBackend(oracle, rng=np.random.default_rng(0))
        ticket = backend.submit(requests_over(dataset)[:4])
        # Published and paid, but not ready: no virtual time has passed.
        assert backend.poll() == []
        assert oracle.ledger.n_set_queries == 4
        ready = backend.next_done()  # advances the clock to the batch
        assert ready is ticket
        assert backend.poll() == [ticket]
        assert backend.clock.now() > 0.0
        backend.gather(ticket)

    def test_gather_advances_the_clock_to_the_batch(self, dataset):
        backend = LatencyModelBackend(
            GroundTruthOracle(dataset), rng=np.random.default_rng(1)
        )
        ticket = backend.submit(requests_over(dataset)[:2])
        assert backend.clock.now() == 0.0
        backend.gather(ticket)
        assert backend.clock.now() >= backend.model.publish_overhead_seconds

    def test_overlapped_batches_share_their_wait(self, dataset):
        """Two batches submitted together complete in roughly one batch's
        time; submitted serially they pay twice — the whole point of the
        asynchronous protocol."""
        model = LatencyModel(sigma=0.0, worker_sigma=0.0)
        serial = LatencyModelBackend(
            GroundTruthOracle(dataset), model=model, rng=np.random.default_rng(2)
        )
        for batch in (requests_over(dataset)[:4], requests_over(dataset)[4:8]):
            serial.gather(serial.submit(batch))
        overlapped = LatencyModelBackend(
            GroundTruthOracle(dataset), model=model, rng=np.random.default_rng(2)
        )
        tickets = [
            overlapped.submit(requests_over(dataset)[:4]),
            overlapped.submit(requests_over(dataset)[4:8]),
        ]
        for ticket in tickets:
            overlapped.gather(ticket)
        assert overlapped.clock.now() < serial.clock.now()

    def test_deterministic_under_a_seed(self, dataset):
        times = []
        for _ in range(2):
            backend = LatencyModelBackend(
                GroundTruthOracle(dataset), rng=np.random.default_rng(7)
            )
            backend.gather(backend.submit(requests_over(dataset)[:5]))
            times.append(backend.clock.now())
        assert times[0] == times[1]

    def test_shared_clock(self, dataset):
        clock = SimulatedClock()
        backend = LatencyModelBackend(
            GroundTruthOracle(dataset), clock=clock, rng=np.random.default_rng(3)
        )
        backend.gather(backend.submit(requests_over(dataset)[:1]))
        assert clock.now() == backend.clock.now() > 0.0

    def test_model_validation(self):
        with pytest.raises(InvalidParameterError):
            LatencyModel(n_workers=0)
        with pytest.raises(InvalidParameterError):
            LatencyModel(median_seconds=0.0)
        with pytest.raises(InvalidParameterError):
            LatencyModel(sigma=-0.1)


class TestThreadedBackend:
    def test_round_trip_on_the_pool(self, dataset):
        oracle = GroundTruthOracle(dataset)
        backend = ThreadedBackend(oracle, max_workers=2)
        try:
            batch = requests_over(dataset)[:4]
            ticket = backend.submit(batch)
            answers = backend.gather(ticket)
            reference = [
                oracle.membership_index.any_match(r.predicate, r.key[1])
                for r in batch
            ]
            assert answers == reference
        finally:
            backend.close()

    def test_external_adapter_replaces_oracle_dispatch(self, dataset):
        oracle = GroundTruthOracle(dataset)
        calls = []

        def adapter(requests):
            calls.append(len(requests))
            return [True] * len(requests)

        backend = ThreadedBackend(oracle, adapter=adapter)
        try:
            ticket = backend.submit(requests_over(dataset)[:3])
            assert backend.gather(ticket) == [True, True, True]
            assert calls == [3]
            # The adapter charges its own platform; the ledger saw nothing.
            assert oracle.ledger.total == 0
        finally:
            backend.close()

    def test_adapter_errors_surface_at_gather(self, dataset):
        def adapter(requests):
            raise ValueError("platform rejected the batch")

        backend = ThreadedBackend(GroundTruthOracle(dataset), adapter=adapter)
        try:
            ticket = backend.submit(requests_over(dataset)[:1])
            with pytest.raises(ValueError):
                backend.gather(ticket)
        finally:
            backend.close()

    def test_failed_gather_does_not_wedge_the_backend(self, dataset):
        """A gather that raises still consumes its ticket: the backend
        must keep answering poll()/next_done()/submit afterwards instead
        of tripping over a ghost ticket forever."""
        calls = []

        def adapter(requests):
            if not calls:
                calls.append("boom")
                raise ValueError("transient platform failure")
            return [True] * len(requests)

        backend = ThreadedBackend(GroundTruthOracle(dataset), adapter=adapter)
        try:
            doomed = backend.submit(requests_over(dataset)[:1])
            with pytest.raises(ValueError):
                backend.gather(doomed)
            assert backend.outstanding == 0
            assert backend.poll() == []
            with pytest.raises(InvalidParameterError):
                backend.next_done()
            retry = backend.submit(requests_over(dataset)[:1])
            assert backend.gather(retry) == [True]
        finally:
            backend.close()

    def test_closed_backend_rejects_submission(self, dataset):
        backend = ThreadedBackend(GroundTruthOracle(dataset))
        backend.close()
        with pytest.raises(InvalidParameterError):
            backend.submit(requests_over(dataset)[:1])


class TestEngineOverBackends:
    """Whatever the backend, an engine drain reaches the same verdicts."""

    @pytest.mark.parametrize("make_backend", [
        lambda oracle: InlineBackend(oracle),
        lambda oracle: LatencyModelBackend(oracle, rng=np.random.default_rng(5)),
        lambda oracle: ThreadedBackend(oracle, max_workers=2),
    ], ids=["inline", "latency", "threaded"])
    def test_identical_verdicts_and_tasks(self, dataset, make_backend):
        from repro.core.group_coverage import GroupCoverageStepper

        reference_oracle = GroundTruthOracle(dataset)
        reference_engine = QueryEngine(reference_oracle, batch_size=16)
        reference = GroupCoverageStepper(
            FEMALE, 25, view=np.arange(len(dataset), dtype=np.int64)
        )
        reference_engine.run([reference])

        oracle = GroundTruthOracle(dataset)
        backend = make_backend(oracle)
        try:
            engine = QueryEngine(backend=backend, batch_size=16)
            stepper = GroupCoverageStepper(
                FEMALE, 25, view=np.arange(len(dataset), dtype=np.int64)
            )
            engine.run([stepper])
            assert (stepper.covered, stepper.count) == (
                reference.covered, reference.count,
            )
            assert stepper.discovered_indices == reference.discovered_indices
            assert oracle.ledger.total == reference_oracle.ledger.total
            assert oracle.ledger.n_rounds == reference_oracle.ledger.n_rounds
        finally:
            backend.close()

    def test_engine_rejects_mismatched_backend_oracle(self, dataset):
        oracle = GroundTruthOracle(dataset)
        other = GroundTruthOracle(dataset)
        with pytest.raises(InvalidParameterError):
            QueryEngine(oracle, backend=InlineBackend(other))

    def test_engine_requires_oracle_or_backend(self):
        with pytest.raises(InvalidParameterError):
            QueryEngine()
