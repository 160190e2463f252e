"""Thin stdlib HTTP client for the serving gateway.

One class, :class:`ServingClient`, mapping each protocol route to a
method and each error status to the typed exception in-process callers
already handle: ``400`` → :class:`~repro.errors.InvalidParameterError`,
``404`` → the same (unknown job id), ``409`` →
:class:`~repro.errors.JobFailedError`, ``429`` →
:class:`~repro.serving.protocol.ServerBusyError` carrying the server's
``Retry-After``. Each thread keeps one keep-alive connection to the
gateway and sends its calls over it, so one client may be shared across
threads. A call whose reused connection turns out to be closed (the
gateway restarted or dropped it) reconnects and sends once more; every
route is safe to repeat, since submit and cancel are idempotent.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from typing import Any, Iterator, Mapping

from repro.audit.specs import AuditSpec
from repro.errors import InvalidParameterError, JobFailedError, ReproError
from repro.serving.protocol import ServerBusyError

__all__ = ["ServingClient"]


class ServingClient:
    """Client for one gateway at ``host:port``.

    Examples
    --------
    >>> client = ServingClient("127.0.0.1", 8080)
    >>> client.base
    '127.0.0.1:8080'

    (Live round-trips are exercised by ``tests/serving/``; see
    ``docs/guide/serving.md`` for an end-to-end walkthrough.)
    """

    def __init__(self, host: str, port: int, *, timeout: float = 30.0) -> None:
        """Remember the gateway address; nothing connects until a call."""
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self._local = threading.local()
        self._connections: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's keep-alive connection; a later call opens
        a new one."""
        with self._lock:
            connections, self._connections = self._connections, []
        for connection in connections:
            connection.close()
        self._local = threading.local()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def base(self) -> str:
        """``host:port`` of the gateway this client talks to."""
        return f"{self.host}:{self.port}"

    # -- plumbing ---------------------------------------------------------
    def _connection(self) -> http.client.HTTPConnection:
        """This thread's keep-alive connection (it connects on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.connection = connection
            with self._lock:
                self._connections.append(connection)
        return connection

    def _request(
        self,
        method: str,
        path: str,
        body: Mapping[str, Any] | None = None,
    ) -> dict[str, Any]:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if payload else {}
        connection = self._connection()
        reused = connection.sock is not None
        while True:
            try:
                connection.request(method, path, body=payload, headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except ConnectionError:
                connection.close()
                if not reused:
                    raise
                reused = False  # the gateway closed it while idle: once more
                continue
            except BaseException:
                connection.close()  # never reuse a connection left mid-response
                raise
            return self._decode(response.status, response.headers, raw)

    @staticmethod
    def _decode(status: int, headers, raw: bytes) -> dict[str, Any]:
        try:
            record = json.loads(raw) if raw else {}
        except json.JSONDecodeError as error:
            raise ReproError(
                f"gateway returned non-JSON body (HTTP {status}): {error}"
            )
        if status in (200, 201, 202):
            record["http_status"] = status
            return record
        message = record.get("error", f"HTTP {status}")
        if status == 429:
            retry_after = float(
                record.get("retry_after")
                or headers.get("Retry-After")
                or 1.0
            )
            raise ServerBusyError(message, retry_after=retry_after)
        if status in (400, 404):
            raise InvalidParameterError(message)
        if status == 409:
            raise JobFailedError(message)
        raise ReproError(f"gateway error (HTTP {status}): {message}")

    # -- protocol methods -------------------------------------------------
    def health(self) -> dict[str, Any]:
        """``GET /v1/healthz`` — liveness plus the board's job tally."""
        return self._request("GET", "/v1/healthz")

    def submit(
        self,
        spec: "AuditSpec | Mapping[str, Any]",
        *,
        tenant: str = "default",
        seed: int | None = None,
        priority: int = 0,
    ) -> dict[str, Any]:
        """``POST /v1/jobs`` — submit an audit (idempotently).

        Accepts a frozen spec or its ``to_dict`` form. Returns
        ``{"job_id", "created", "status", ...}``; ``created`` is False
        when an identical submission already exists (same job). Raises
        :class:`~repro.serving.protocol.ServerBusyError` on 429."""
        spec_dict = spec if isinstance(spec, Mapping) else spec.to_dict()
        return self._request(
            "POST",
            "/v1/jobs",
            {
                "spec": dict(spec_dict),
                "tenant": tenant,
                "seed": seed,
                "priority": priority,
            },
        )

    def status(self, job_id: str) -> dict[str, Any]:
        """``GET /v1/jobs/<id>`` — the job's full state record."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def events(
        self, job_id: str, *, cursor: int = 0, wait: float | None = None
    ) -> dict[str, Any]:
        """``GET /v1/jobs/<id>/events`` — events past ``cursor``.

        With ``wait``, the gateway long-polls up to that many seconds
        for news. The reply's ``cursor`` is the next value to pass."""
        path = f"/v1/jobs/{job_id}/events?cursor={int(cursor)}"
        if wait is not None:
            path += f"&wait={float(wait):g}"
        return self._request("GET", path)

    def stream_events(
        self, job_id: str, *, cursor: int = 0
    ) -> Iterator[dict[str, Any]]:
        """``GET /v1/jobs/<id>/events?stream=1`` — yield events as they
        happen, ending when the job reaches a terminal status.

        Each yielded record carries ``cursor``; on a dropped connection,
        call again with the last seen cursor to resume the stream."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            connection.request(
                "GET", f"/v1/jobs/{job_id}/events?stream=1&cursor={int(cursor)}"
            )
            response = connection.getresponse()
            if response.status != 200:
                self._decode(response.status, response.headers, response.read())
                raise ReproError(f"stream refused (HTTP {response.status})")
            while True:
                line = response.readline()
                if not line:
                    return
                line = line.strip()
                if line:
                    yield json.loads(line)
        finally:
            connection.close()

    def result(
        self,
        job_id: str,
        *,
        timeout: float = 120.0,
        poll_interval: float = 0.05,
    ) -> dict[str, Any]:
        """``GET /v1/jobs/<id>/result`` — block until the report is in.

        Polls while the gateway answers ``202`` (honouring its
        ``Retry-After`` but never sleeping longer than
        ``poll_interval``); raises
        :class:`~repro.errors.JobFailedError` for failed or cancelled
        jobs and :class:`~repro.errors.ReproError` on timeout."""
        deadline = time.monotonic() + timeout
        while True:
            record = self._request("GET", f"/v1/jobs/{job_id}/result")
            if record["http_status"] == 200:
                return record
            if time.monotonic() >= deadline:
                raise ReproError(
                    f"job {job_id} still {record.get('status')!r} after "
                    f"{timeout:g}s"
                )
            advertised = float(record.get("retry_after") or poll_interval)
            time.sleep(min(advertised, poll_interval))

    def cancel(self, job_id: str) -> dict[str, Any]:
        """``POST /v1/jobs/<id>/cancel`` — request cancellation.

        Queued unclaimed jobs cancel immediately; running jobs are
        cancelled by their worker at the next scheduler step. Returns
        the job's status after the request."""
        return self._request("POST", f"/v1/jobs/{job_id}/cancel")
