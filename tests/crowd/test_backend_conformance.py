"""One contract, three backends: the CrowdBackend conformance suite.

Every assertion in this module runs identically over
:class:`InlineBackend`, :class:`LatencyModelBackend`, and
:class:`ThreadedBackend` — anything the engine or the audit service is
allowed to rely on must hold for all three, including the edge cases
(empty batches, double gathers, waiting on nothing) and
cancellation-after-submit at the service layer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.crowd.backends import (
    InlineBackend,
    LatencyModelBackend,
    ThreadedBackend,
)
from repro.crowd.oracle import GroundTruthOracle
from repro.data.groups import group
from repro.data.synthetic import binary_dataset
from repro.engine.requests import SetRequest
from repro.errors import InvalidParameterError
from repro.service import AuditService, JobStatus

FEMALE = group(gender="female")
MALE = group(gender="male")

#: name -> factory(oracle) -> backend; ids keep -k selection readable.
BACKENDS = {
    "inline": lambda oracle: InlineBackend(oracle),
    "latency": lambda oracle: LatencyModelBackend(
        oracle, rng=np.random.default_rng(17)
    ),
    "threaded": lambda oracle: ThreadedBackend(oracle, max_workers=2),
}


@pytest.fixture(scope="module")
def dataset():
    return binary_dataset(600, 25, rng=np.random.default_rng(11))


@pytest.fixture(params=sorted(BACKENDS), ids=sorted(BACKENDS))
def make_backend(request):
    return BACKENDS[request.param]


@pytest.fixture
def backend(make_backend, dataset):
    instance = make_backend(GroundTruthOracle(dataset))
    yield instance
    instance.close()


def requests_over(dataset, *, predicate=FEMALE, chunk=50, count=None):
    batches = [
        SetRequest(
            np.arange(start, min(start + chunk, len(dataset))), predicate
        )
        for start in range(0, len(dataset), chunk)
    ]
    return batches if count is None else batches[:count]


class TestTicketLifecycle:
    def test_submit_returns_monotonic_tickets(self, backend, dataset):
        first = backend.submit(requests_over(dataset, count=2))
        second = backend.submit(
            requests_over(dataset, predicate=MALE, count=3)
        )
        assert second.ticket_id > first.ticket_id
        assert (first.n_queries, second.n_queries) == (2, 3)
        assert backend.outstanding == 2
        backend.gather(backend.next_done())
        backend.gather(backend.next_done())
        assert backend.outstanding == 0

    def test_gather_answers_match_ground_truth_in_order(
        self, backend, dataset
    ):
        oracle = backend.oracle
        batch = requests_over(dataset, count=4)
        answers = backend.gather(backend.submit(batch))
        assert answers == [
            oracle.membership_index.any_match(
                request.predicate, request.key[1]
            )
            for request in batch
        ]

    def test_gather_is_exactly_once(self, backend, dataset):
        ticket = backend.submit(requests_over(dataset, count=1))
        backend.gather(ticket)
        with pytest.raises(InvalidParameterError):
            backend.gather(ticket)

    def test_foreign_ticket_rejected(self, backend, dataset, make_backend):
        other = make_backend(GroundTruthOracle(dataset))
        try:
            foreign = other.submit(requests_over(dataset, count=1))
            backend.submit(requests_over(dataset, count=1))
            with pytest.raises(InvalidParameterError):
                backend.gather(foreign)
        finally:
            other.close()

    def test_poll_only_reports_outstanding_tickets(self, backend, dataset):
        assert backend.poll() == []
        ticket = backend.submit(requests_over(dataset, count=1))
        ready = backend.next_done()
        assert ready.ticket_id == ticket.ticket_id
        assert all(t.ticket_id == ticket.ticket_id for t in backend.poll())
        backend.gather(ticket)
        assert backend.poll() == []


class TestEdgeCases:
    def test_empty_batch_raises_and_leaves_nothing(self, backend):
        with pytest.raises(InvalidParameterError):
            backend.submit([])
        assert backend.outstanding == 0
        assert backend.oracle.ledger.total == 0

    def test_next_done_on_idle_backend_raises(self, backend):
        with pytest.raises(InvalidParameterError):
            backend.next_done()

    def test_charging_happens_at_submit(self, backend, dataset):
        backend.submit(requests_over(dataset, count=3))
        assert backend.oracle.ledger.n_set_queries == 3
        assert backend.oracle.ledger.n_rounds == 1

    def test_close_is_idempotent(self, backend, dataset):
        ticket = backend.submit(requests_over(dataset, count=1))
        backend.gather(ticket)
        backend.close()
        backend.close()


class TestCrossBackendEquivalence:
    def test_same_answers_and_bill_everywhere(self, dataset):
        outcomes = {}
        for name, factory in BACKENDS.items():
            oracle = GroundTruthOracle(dataset)
            instance = factory(oracle)
            try:
                tickets = [
                    instance.submit(requests_over(dataset, count=4)),
                    instance.submit(
                        requests_over(dataset, predicate=MALE, count=4)
                    ),
                ]
                answers = [instance.gather(t) for t in tickets]
            finally:
                instance.close()
            outcomes[name] = (answers, oracle.ledger.total)
        assert len(set(map(repr, outcomes.values()))) == 1, outcomes


class TestCancellationAfterSubmit:
    def test_cancel_mid_flight_job_leaves_backend_sane(
        self, make_backend, dataset
    ):
        """Cancel a running job whose queries are already submitted to
        the backend: the cancelled job terminates, its siblings finish,
        and the backend drains rather than wedging."""
        oracle = GroundTruthOracle(dataset)
        service = AuditService(
            oracle, backend=make_backend, batch_size=8, max_active_jobs=2
        )
        with service:
            victim = service.submit(_spec(FEMALE, tau=20))
            survivor = service.submit(_spec(MALE, tau=20))
            service.step()  # queries now live on the backend
            assert victim.cancel() or victim.status.terminal
            service.drain()
            assert victim.status == JobStatus.CANCELLED
            assert survivor.status == JobStatus.SUCCEEDED
            assert service.engine.outstanding_tickets == 0

    def test_cancel_all_jobs_after_submit_then_reuse(
        self, make_backend, dataset
    ):
        """Cancelling every in-flight job must not poison the backend
        for later submissions on the same service."""
        oracle = GroundTruthOracle(dataset)
        service = AuditService(
            oracle, backend=make_backend, batch_size=8, max_active_jobs=2
        )
        with service:
            first = service.submit(_spec(FEMALE, tau=20))
            second = service.submit(_spec(MALE, tau=20))
            service.step()
            for handle in (first, second):
                handle.cancel()
            service.drain()
            assert first.status == JobStatus.CANCELLED
            assert second.status == JobStatus.CANCELLED
            # The same service (and backend) still serves new work.
            fresh = service.submit(_spec(FEMALE, tau=15))
            service.drain()
            assert fresh.status == JobStatus.SUCCEEDED


def _spec(predicate, tau):
    from repro.audit import GroupAuditSpec

    return GroupAuditSpec(predicate=predicate, tau=tau)
