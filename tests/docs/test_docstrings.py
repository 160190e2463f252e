"""The docstring contract's second half: examples execute.

That every exported name on the blessed surface carries an
example-bearing docstring (and every public method a docstring) is
reprolint rule RPL006, gated by
``tests/tools/test_reprolint.py::test_self_run_live_repo_is_clean``.
Here the examples themselves execute as doctests, so a docstring that
references a renamed argument or prints stale output fails here, not in
a reader's terminal.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

#: Modules whose docstring examples must run clean under doctest.
DOCTESTED_MODULES = (
    "repro.audit.specs",
    "repro.audit.report",
    "repro.audit.runners",
    "repro.audit.proxy",
    "repro.audit.session",
    "repro.audit.serialization",
    "repro.service.jobs",
    "repro.service.store",
    "repro.service.service",
    "repro.crowd.backends.base",
    "repro.crowd.backends.inline",
    "repro.crowd.backends.latency",
    "repro.crowd.backends.threaded",
    "repro.crowd.oracle",
    "repro.crowd.reliability.online",
    "repro.crowd.reliability.tracker",
    "repro.crowd.reliability.policy",
    "repro.crowd.reliability.serialization",
    "repro.data.dataset",
    "repro.data.kernels",
    "repro.data.sharded",
    "repro.engine.requests",
    "repro.serving.protocol",
    "repro.serving.config",
    "repro.serving.board",
    "repro.serving.worker",
    "repro.serving.server",
    "repro.serving.client",
    "repro.serving.pool",
)


@pytest.mark.parametrize("module_name", DOCTESTED_MODULES)
def test_docstring_examples_execute(module_name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # examples that write files stay hermetic
    module = importlib.import_module(module_name)
    failures, _ = doctest.testmod(module, verbose=False)
    assert failures == 0, f"{module_name}: {failures} doctest failure(s)"
