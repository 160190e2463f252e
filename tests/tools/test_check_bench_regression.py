"""Unit tests for the benchmark gate's exact counters
(``tools/check_bench_regression.py --exact``)."""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from check_bench_regression import exact_mismatches, main  # noqa: E402

BASELINE = {
    "adaptive": {
        "tasks": 367,
        "worker_payments": 81.50000000000047,
        "real_seconds": 0.13,
        "verdicts": [{"covered": False, "count": 26}, {"covered": True, "count": 60}],
    },
    "kill_resume": {"tasks": 367, "reasked_paid_queries": 0},
}
EXACT = ["tasks", "worker_payments", "verdicts", "kill_resume"]


def _changed(**updates):
    fresh = json.loads(json.dumps(BASELINE))
    fresh["adaptive"].update(updates)
    return fresh


def test_equal_counters_pass_whatever_the_timings():
    assert exact_mismatches(BASELINE, _changed(real_seconds=9.9), EXACT) == []


def test_a_changed_counter_fails_at_any_depth():
    assert exact_mismatches(BASELINE, _changed(tasks=368), EXACT) == [
        "MISMATCH adaptive.tasks: 368 != 367 (must be equal)"
    ]
    flipped = [{"covered": True, "count": 26}, {"covered": True, "count": 60}]
    assert len(exact_mismatches(BASELINE, _changed(verdicts=flipped), EXACT)) == 1
    drifted = _changed(worker_payments=81.50000000000048)
    assert len(exact_mismatches(BASELINE, drifted, EXACT)) == 1


def test_missing_and_unknown_keys_fail():
    fresh = _changed()
    del fresh["kill_resume"]
    assert exact_mismatches(BASELINE, fresh, EXACT) == [
        "MISMATCH kill_resume: only in baseline"
    ]
    assert exact_mismatches(BASELINE, BASELINE, ["hits"]) == [
        "MISMATCH hits: not in the baseline"
    ]


def test_the_command_line_gates_exact_keys(tmp_path):
    baseline, fresh = tmp_path / "base.json", tmp_path / "new.json"
    baseline.write_text(json.dumps(BASELINE))
    fresh.write_text(json.dumps(_changed(tasks=366)))
    args = ["--baseline", str(baseline), "--new", str(fresh), "--tolerance", "0.25"]
    assert main(args) == 0
    assert main(args + ["--exact", "tasks"]) == 1


SHARDS = {
    "results": [
        {"audit": "group", "n_objects": 1_000_000, "sharded": {"chunk_loads": 8, "seconds": 0.01}},
        {"audit": "group", "n_objects": 10_000_000, "sharded": {"chunk_loads": 80, "seconds": 0.1}},
    ]
}


def _slice(**sharded):
    """A smoke re-run of the 1M entry only, with ``sharded`` changed."""
    entry = json.loads(json.dumps(SHARDS["results"][0]))
    entry["sharded"].update(sharded)
    return {"results": [entry]}


def test_exact_keys_inside_result_lists_pair_elements_by_identity():
    assert exact_mismatches(SHARDS, _slice(seconds=0.5), ["chunk_loads"]) == []
    assert exact_mismatches(SHARDS, _slice(chunk_loads=9), ["chunk_loads"]) == [
        "MISMATCH results[audit=group,n_objects=1000000].sharded.chunk_loads: "
        "9 != 8 (must be equal)"
    ]
    reordered = {"results": [SHARDS["results"][1], SHARDS["results"][0]]}
    assert exact_mismatches(SHARDS, reordered, ["chunk_loads"]) == []


def test_a_counter_gone_from_a_paired_element_fails():
    entry = json.loads(json.dumps(SHARDS["results"][0]))
    del entry["sharded"]["chunk_loads"]
    assert exact_mismatches(SHARDS, {"results": [entry]}, ["chunk_loads"]) == [
        "MISMATCH results[audit=group,n_objects=1000000].sharded.chunk_loads: "
        "only in baseline"
    ]
