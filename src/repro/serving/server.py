"""The HTTP/JSON gateway in front of a serving root.

Stdlib-only (``http.server`` + ``socketserver`` threading mixin): one
thread per connection, no framework. Connections are HTTP/1.1
keep-alive; :meth:`ServingGateway.stop` closes the open ones. The
gateway holds **no job state** — every request is answered off the
filesystem job board, so any number of gateways can front the same root
and a gateway restart loses nothing.

Protocol (all bodies JSON)::

    POST /v1/jobs                     submit; idempotent by spec hash
         -> 201 created / 200 duplicate {job_id, created, status}
         -> 429 + Retry-After when the tenant's queue is full
    GET  /v1/jobs/<id>                full state record
    GET  /v1/jobs/<id>/events         ?cursor=N  events past the cursor
                                      &wait=S    long-poll up to S secs
                                      &stream=1  NDJSON until terminal
    GET  /v1/jobs/<id>/result         200 report | 202 not done (+
                                      Retry-After) | 409 failed/cancelled
    POST /v1/jobs/<id>/cancel         marker (+ direct cancel if unclaimed)
    GET  /v1/healthz                  liveness + job tally

Admission control is explicit backpressure, not queueing theory: a
tenant may hold at most ``max_queued_per_tenant`` *unfinished* jobs;
beyond that, submits get ``429`` with a ``Retry-After`` header and a
typed :class:`~repro.serving.protocol.ServerBusyError` on the client.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Mapping
from urllib.parse import parse_qs, urlsplit

from repro.errors import InvalidParameterError
from repro.serving.board import TERMINAL_STATUSES, JobBoard
from repro.serving.config import ServingConfig, load_serving_config
from repro.serving.protocol import ServerBusyError, Submission

__all__ = ["ServingGateway"]

#: Valid job ids: ``j`` + 16 hex digits (see protocol.job_id_for).
_JOB_ID = re.compile(r"^j[0-9a-f]{16}$")

#: Route shapes.
_JOB_PATH = re.compile(r"^/v1/jobs/([^/]+)$")
_JOB_SUBPATH = re.compile(r"^/v1/jobs/([^/]+)/(events|result|cancel)$")

_STREAM_POLL_SECONDS = 0.02


class ServingGateway(ThreadingHTTPServer):
    """Threaded HTTP server over one serving root.

    Start it on an ephemeral port, point clients at :attr:`url`, stop
    it with :meth:`stop`. Pairs with worker processes watching the same
    root (:mod:`repro.serving.worker`) — the gateway itself never runs
    audits.

    Examples
    --------
    >>> import tempfile
    >>> from repro.serving.config import ServingConfig, init_serving_root
    >>> root = init_serving_root(tempfile.mkdtemp(), ServingConfig(
    ...     recipe={"kind": "synthetic-binary", "n": 100,
    ...             "n_minority": 20, "dataset_seed": 0}))
    >>> gateway = ServingGateway(root)
    >>> gateway.start()
    >>> gateway.url.startswith("http://127.0.0.1:")
    True
    >>> gateway.stop()
    """

    daemon_threads = True

    def __init__(
        self,
        root,
        address: tuple[str, int] = ("127.0.0.1", 0),
        *,
        config: ServingConfig | None = None,
    ) -> None:
        """Bind the gateway (port 0 = ephemeral) over ``root``."""
        self.board = JobBoard(root)
        self.config = config if config is not None else load_serving_config(root)
        self._queued: dict[str, set[str]] = {}
        self._admission_lock = threading.Lock()
        self._thread: threading.Thread | None = None
        #: accepted connections not yet closed, so stop() can close them
        self._open: set[socket.socket] = set()
        self._open_lock = threading.Lock()
        super().__init__(address, _GatewayHandler)

    # -- lifecycle --------------------------------------------------------
    @property
    def port(self) -> int:
        """The TCP port the gateway is bound to (0 picks a free one)."""
        return self.server_address[1]

    @property
    def url(self) -> str:
        """Base URL clients talk to."""
        host = self.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> None:
        """Serve requests on a background thread until :meth:`stop`."""
        self._thread = threading.Thread(
            target=self.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="serving-gateway",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        """Shut the server down, close its kept-alive connections and
        release the socket."""
        self.shutdown()
        with self._open_lock:
            open_connections = list(self._open)
        for connection in open_connections:
            try:
                # Wakes the handler thread blocked reading the next request.
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # the peer closed it already
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def process_request(self, request, client_address) -> None:
        """Serve an accepted connection on its own thread, remembering it
        until :meth:`shutdown_request` closes it."""
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        """Close a connection whose handler finished, and forget it."""
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def __enter__(self) -> "ServingGateway":
        """Context-manager entry: starts serving."""
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Context-manager exit: stops serving."""
        self.stop()

    # -- admission control ------------------------------------------------
    def admit(self, submission: Submission) -> None:
        """Admission gate for one submit: raises
        :class:`~repro.serving.protocol.ServerBusyError` when the tenant
        already holds ``max_queued_per_tenant`` unfinished jobs.

        Tracking is optimistic: accepted job ids are remembered per
        tenant, and the set is reconciled against on-disk state only
        when it reaches the limit — the scan cost is paid exactly when
        backpressure is plausible."""
        limit = self.config.max_queued_per_tenant
        with self._admission_lock:
            held = self._queued.setdefault(submission.tenant, set())
            if submission.job_id in held:
                return  # duplicate submit never counts twice
            if len(held) >= limit:
                for job_id in list(held):
                    try:
                        state = self.board.read_state(job_id)
                    except InvalidParameterError:
                        held.discard(job_id)
                        continue
                    if state.get("status") in TERMINAL_STATUSES:
                        held.discard(job_id)
            if len(held) >= limit:
                raise ServerBusyError(
                    f"tenant {submission.tenant!r} already has {len(held)} "
                    f"unfinished jobs (limit {limit})",
                    retry_after=self.config.retry_after_seconds,
                )
            held.add(submission.job_id)


class _GatewayHandler(BaseHTTPRequestHandler):
    """Per-connection request handler; all logic delegates to the
    gateway's board."""

    protocol_version = "HTTP/1.1"
    #: Headers and body go out in two writes; with Nagle's algorithm on, a
    #: keep-alive client's delayed ACK would hold the body back ~40 ms.
    disable_nagle_algorithm = True
    server: ServingGateway

    # -- plumbing ---------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass  # tests and benchmarks drive thousands of requests

    def _send_json(
        self,
        status: int,
        payload: Mapping[str, Any],
        *,
        headers: Mapping[str, str] | None = None,
    ) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> Any:
        raw = self._body
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except json.JSONDecodeError as error:
            raise InvalidParameterError(f"request body is not JSON: {error}")

    def _job_id(self, raw: str) -> str:
        if not _JOB_ID.match(raw):
            raise InvalidParameterError(f"malformed job id {raw!r}")
        return raw

    # -- verbs ------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        try:
            self._route_get()
        except InvalidParameterError as error:
            status = 404 if "unknown job id" in str(error) else 400
            self._send_json(status, {"error": str(error)})
        except BrokenPipeError:
            pass  # client went away mid-stream
        except Exception as error:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            # Read the whole body before routing: a route that fails early
            # must not leave part of it on a kept-alive connection.
            length = int(self.headers.get("Content-Length") or 0)
            self._body = self.rfile.read(length) if length else b""
            self._route_post()
        except ServerBusyError as error:
            self._send_json(
                429,
                {"error": str(error), "retry_after": error.retry_after},
                headers={"Retry-After": f"{error.retry_after:g}"},
            )
        except InvalidParameterError as error:
            status = 404 if "unknown job id" in str(error) else 400
            self._send_json(status, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive
            self._send_json(500, {"error": f"{type(error).__name__}: {error}"})

    # -- GET routes -------------------------------------------------------
    def _route_get(self) -> None:
        parts = urlsplit(self.path)
        query = parse_qs(parts.query)
        if parts.path == "/v1/healthz":
            self._send_json(
                200, {"ok": True, "counts": self.server.board.counts()}
            )
            return
        match = _JOB_PATH.match(parts.path)
        if match:
            job_id = self._job_id(match.group(1))
            self._send_json(200, self.server.board.read_state(job_id))
            return
        match = _JOB_SUBPATH.match(parts.path)
        if match and match.group(2) == "events":
            self._events(self._job_id(match.group(1)), query)
            return
        if match and match.group(2) == "result":
            self._result(self._job_id(match.group(1)))
            return
        raise InvalidParameterError(f"no such route GET {parts.path}")

    def _events(self, job_id: str, query: Mapping[str, list[str]]) -> None:
        cursor = int((query.get("cursor") or ["0"])[0])
        if cursor < 0:
            raise InvalidParameterError(f"cursor must be >= 0, got {cursor}")
        if (query.get("stream") or ["0"])[0] in ("1", "true"):
            self._stream_events(job_id, cursor)
            return
        wait = float((query.get("wait") or ["0"])[0])
        deadline = time.monotonic() + wait
        while True:
            state = self.server.board.read_state(job_id)
            events = state["events"]
            done = state["status"] in TERMINAL_STATUSES
            if len(events) > cursor or done or time.monotonic() >= deadline:
                self._send_json(
                    200,
                    {
                        "job_id": job_id,
                        "status": state["status"],
                        "cursor": len(events),
                        "events": events[cursor:],
                    },
                )
                return
            time.sleep(_STREAM_POLL_SECONDS)

    def _stream_events(self, job_id: str, cursor: int) -> None:
        """Chunk-free streaming: NDJSON terminated by connection close.

        One JSON object per line, each carrying its cursor, so a client
        that loses the connection resumes with ``?cursor=<last + 1>``.
        The stream ends (server closes) once the job is terminal."""
        self.server.board.read_state(job_id)  # 404 before headers go out
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        self.close_connection = True
        while True:
            state = self.server.board.read_state(job_id)
            events = state["events"]
            for position in range(cursor, len(events)):
                record = dict(events[position])
                record["cursor"] = position + 1
                record["status"] = state["status"]
                self.wfile.write((json.dumps(record) + "\n").encode("utf-8"))
            cursor = max(cursor, len(events))
            self.wfile.flush()
            if state["status"] in TERMINAL_STATUSES:
                return
            time.sleep(_STREAM_POLL_SECONDS)

    def _result(self, job_id: str) -> None:
        state = self.server.board.read_state(job_id)
        status = state["status"]
        if status == "succeeded":
            self._send_json(
                200,
                {
                    "job_id": job_id,
                    "status": status,
                    "report": state["result"],
                    "tasks_paid": state.get("tasks_paid", 0),
                },
            )
        elif status in TERMINAL_STATUSES:
            self._send_json(
                409,
                {
                    "job_id": job_id,
                    "status": status,
                    "error": state.get("error") or f"job {status}",
                },
            )
        else:
            retry = self.server.config.retry_after_seconds
            self._send_json(
                202,
                {"job_id": job_id, "status": status, "retry_after": retry},
                headers={"Retry-After": f"{retry:g}"},
            )

    # -- POST routes ------------------------------------------------------
    def _route_post(self) -> None:
        parts = urlsplit(self.path)
        if parts.path == "/v1/jobs":
            self._submit()
            return
        match = _JOB_SUBPATH.match(parts.path)
        if match and match.group(2) == "cancel":
            self._cancel(self._job_id(match.group(1)))
            return
        raise InvalidParameterError(f"no such route POST {parts.path}")

    def _submit(self) -> None:
        submission = Submission.from_payload(self._read_body())
        self.server.admit(submission)
        job_id, created = self.server.board.submit(submission)
        state = self.server.board.read_state(job_id)
        self._send_json(
            201 if created else 200,
            {
                "job_id": job_id,
                "created": created,
                "status": state["status"],
                "spec_hash": submission.digest,
            },
        )

    def _cancel(self, job_id: str) -> None:
        board = self.server.board
        board.request_cancel(job_id)
        state = board.read_state(job_id)
        # Unclaimed queued jobs have no worker to honour the marker;
        # cancel them directly. A worker claiming concurrently still
        # sees the marker and converges on "cancelled".
        if (
            state["status"] == "queued"
            and board.lease_info(job_id) is None
        ):
            state["status"] = "cancelled"
            state["events"].append(
                {
                    "stage": "cancelled",
                    "detail": "cancelled while queued (gateway)",
                    "tasks": state.get("tasks_paid", 0),
                    "worker": None,
                }
            )
            board.write_state(job_id, state)
        self._send_json(
            200, {"job_id": job_id, "status": state["status"]}
        )
