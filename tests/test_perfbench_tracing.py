"""The traced benchmark patches named program attributes; this guards
that every name it patches exists and is restored after a traced run."""

from __future__ import annotations

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    try:
        tracer.install()
        patched = list(tracer._patches)
    finally:
        tracer.remove()
    names = {(getattr(owner, "__name__", owner), attribute) for owner, attribute, _ in patched}
    assert {("Oracle", "ask_point_batch"), ("ShardedMembershipIndex", "value_rows")} <= names
    for owner, attribute, raw in patched:
        assert vars(owner)[attribute] is raw, f"{owner!r}.{attribute} was not restored"
