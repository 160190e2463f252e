"""Shared fixtures for the serving conformance/chaos suite."""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

import pytest

from repro.serving import (
    JobBoard,
    ServingClient,
    ServingConfig,
    ServingGateway,
    init_serving_root,
    run_worker,
)

#: Small enough for sub-second audits, big enough to need many rounds.
DEFAULT_RECIPE = {
    "kind": "synthetic-binary",
    "n": 500,
    "n_minority": 60,
    "dataset_seed": 7,
}


def make_root(tmp_path, name="root", **overrides):
    """An initialised serving root under the test's tmp dir."""
    overrides.setdefault("recipe", dict(DEFAULT_RECIPE))
    return init_serving_root(tmp_path / name, ServingConfig(**overrides))


@contextmanager
def background_worker(root, worker_id="test-worker", **kwargs):
    """One in-process worker thread serving ``root`` for the block."""
    stop = threading.Event()
    kwargs.setdefault("stop_event", stop)
    kwargs.setdefault("poll_interval", 0.01)
    thread = threading.Thread(
        target=run_worker, args=(root, worker_id), kwargs=kwargs, daemon=True
    )
    thread.start()
    try:
        yield thread
    finally:
        stop.set()
        thread.join(timeout=30)
        assert not thread.is_alive(), "worker thread failed to stop"


def wait_until(predicate, *, timeout=30.0, interval=0.02, message="condition"):
    """Poll ``predicate`` until truthy; returns its value or fails."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    pytest.fail(f"timed out after {timeout:g}s waiting for {message}")


@pytest.fixture
def serving_root(tmp_path):
    """A default-config serving root."""
    return make_root(tmp_path)


@pytest.fixture
def board(serving_root):
    """A board over the default root."""
    return JobBoard(serving_root)


@pytest.fixture
def gateway(serving_root):
    """A live loopback gateway over the default root."""
    with ServingGateway(serving_root) as server:
        yield server


@pytest.fixture
def client(gateway):
    """A client pointed at the live gateway."""
    with ServingClient("127.0.0.1", gateway.port) as client:
        yield client
