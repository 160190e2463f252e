"""Keep-alive: a client sends its calls over one connection per thread,
reconnects once when the gateway dropped it, and a stopped gateway
closes the connections it kept open."""

from __future__ import annotations

import http.client
import json
import threading

import pytest

from repro.audit import GroupAuditSpec
from repro.data.groups import group
from repro.errors import InvalidParameterError
from repro.serving import ServingClient, ServingGateway


def count_connections(gateway):
    """The client addresses of the connections ``gateway`` accepts from now on."""
    accepted = []
    process = gateway.process_request

    def counted(request, client_address):
        accepted.append(client_address)
        process(request, client_address)

    gateway.process_request = counted
    return accepted


class TestKeepAlive:
    def test_a_clients_requests_share_one_connection(self, gateway, client):
        accepted = count_connections(gateway)
        job_id = client.submit(GroupAuditSpec(group(gender="female"), 5))["job_id"]
        for _ in range(20):
            assert client.health()["ok"]
            assert client.status(job_id)["job_id"] == job_id
        assert client.submit(GroupAuditSpec(group(gender="female"), 5))["job_id"] == job_id
        assert len(accepted) == 1

    def test_each_thread_keeps_its_own_connection(self, gateway, client):
        accepted = count_connections(gateway)

        def calls():
            for _ in range(5):
                client.health()

        threads = [threading.Thread(target=calls) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        calls()
        assert len(accepted) == 4

    def test_error_replies_keep_the_connection(self, gateway, client):
        accepted = count_connections(gateway)
        for _ in range(3):
            with pytest.raises(InvalidParameterError, match="unknown job id"):
                client.status("j" + "0" * 16)
        assert client.health()["ok"]
        assert len(accepted) == 1

    def test_close_releases_the_connection(self, gateway, client):
        accepted = count_connections(gateway)
        client.health()
        client.close()
        client.health()
        assert len(accepted) == 2

    def test_reconnects_once_after_a_restart_and_stop_closes(self, serving_root):
        with ServingGateway(serving_root) as gateway:
            port = gateway.port
        with ServingClient("127.0.0.1", port) as client:
            with ServingGateway(serving_root, ("127.0.0.1", port)):
                assert client.health()["ok"]
            # The stopped gateway closed the kept-alive connection: the call
            # finds it closed, reconnects once and is refused.
            with pytest.raises(ConnectionRefusedError):
                client.health()
            with ServingGateway(serving_root, ("127.0.0.1", port)) as second:
                accepted = count_connections(second)
                assert client.health()["ok"]
                assert len(accepted) == 1
            # Restart again while the client still holds a connection to the
            # second gateway: the next call reconnects through the stale one.
            with ServingGateway(serving_root, ("127.0.0.1", port)) as third:
                accepted = count_connections(third)
                assert client.health()["ok"]
                assert client.health()["ok"]
                assert len(accepted) == 1

    def test_a_refused_post_leaves_no_body_on_the_connection(self, gateway):
        connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=10)
        try:
            connection.request("POST", "/v1/nowhere", body=json.dumps({"x": 1}))
            response = connection.getresponse()
            assert response.status == 400 and b"no such route" in response.read()
            connection.request("GET", "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 200 and json.loads(response.read())["ok"]
        finally:
            connection.close()
