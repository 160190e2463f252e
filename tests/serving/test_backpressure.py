"""Admission control: per-tenant queue ceilings → 429 + Retry-After.

Backpressure is per tenant: one tenant saturating its queue must not
affect another tenant's ability to submit, and draining the queue must
re-open admission.
"""

from __future__ import annotations

import pytest

from repro.audit import GroupAuditSpec
from repro.data.groups import group
from repro.serving import ServerBusyError, ServingClient, ServingGateway

from .conftest import background_worker, make_root


def spec_for(tau):
    return GroupAuditSpec(predicate=group(gender="female"), tau=tau)


@pytest.fixture
def small_root(tmp_path):
    """A root whose tenants may hold at most two unfinished jobs."""
    return make_root(
        tmp_path,
        name="small",
        max_queued_per_tenant=2,
        retry_after_seconds=0.25,
    )


@pytest.fixture
def small_gateway(small_root):
    with ServingGateway(small_root) as server:
        yield server


@pytest.fixture
def small_client(small_gateway):
    with ServingClient("127.0.0.1", small_gateway.port) as client:
        yield client


class TestBackpressure:
    def test_429_past_the_tenant_ceiling(self, small_client):
        small_client.submit(spec_for(10), tenant="greedy")
        small_client.submit(spec_for(11), tenant="greedy")
        with pytest.raises(ServerBusyError) as excinfo:
            small_client.submit(spec_for(12), tenant="greedy")
        assert excinfo.value.retry_after == 0.25

    def test_retry_after_header_travels(self, small_gateway, small_client):
        import http.client
        import json

        small_client.submit(spec_for(10), tenant="header")
        small_client.submit(spec_for(11), tenant="header")
        connection = http.client.HTTPConnection(
            "127.0.0.1", small_gateway.port
        )
        try:
            connection.request(
                "POST",
                "/v1/jobs",
                body=json.dumps(
                    {"spec": spec_for(12).to_dict(), "tenant": "header"}
                ),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 429
            assert float(response.headers["Retry-After"]) == 0.25
            response.read()
        finally:
            connection.close()

    def test_other_tenants_are_unaffected(self, small_client):
        small_client.submit(spec_for(10), tenant="greedy")
        small_client.submit(spec_for(11), tenant="greedy")
        with pytest.raises(ServerBusyError):
            small_client.submit(spec_for(12), tenant="greedy")
        # A different tenant sails through.
        record = small_client.submit(spec_for(12), tenant="patient")
        assert record["created"] is True

    def test_duplicate_submit_never_counts_against_the_ceiling(
        self, small_client
    ):
        first = small_client.submit(spec_for(10), tenant="dup")
        small_client.submit(spec_for(11), tenant="dup")
        # Resubmitting an already-held job is idempotent, not a third job.
        again = small_client.submit(spec_for(10), tenant="dup")
        assert again["job_id"] == first["job_id"]
        assert again["created"] is False

    def test_draining_reopens_admission(self, small_root, small_client):
        small_client.submit(spec_for(10), tenant="greedy")
        small_client.submit(spec_for(11), tenant="greedy")
        with pytest.raises(ServerBusyError):
            small_client.submit(spec_for(12), tenant="greedy")
        with background_worker(small_root):
            for tau in (10, 11):
                job_id = "unused"
                record = small_client.submit(spec_for(tau), tenant="greedy")
                job_id = record["job_id"]
                small_client.result(job_id, timeout=60)
        # Both jobs terminal → the reconciliation pass re-admits.
        record = small_client.submit(spec_for(12), tenant="greedy")
        assert record["created"] is True
