"""A takeover reports the bill of the uninterrupted run.

A worker that finishes a job checkpoints the answer log and then writes
the final state record. When that last write is lost (a crash between
the two), the next worker resumes a job that is already finished and
must report the same ``tasks_paid`` as the first one. The answer log
holds more entries than tasks were paid for — the engine cache also
logs the negatives a super-group answer implies — so the bill has to
come from the log's recorded ``tasks_paid``, not from its entry count.
"""

from __future__ import annotations

import pytest

from repro.audit import MultipleAuditSpec
from repro.data.groups import group
from repro.serving import JobBoard, Submission, run_worker

from .conftest import make_root

RECIPE = {
    "kind": "synthetic-single-attribute",
    "counts": {"white": 20000, "black": 45, "asian": 55, "other": 160},
    "dataset_seed": 0,
}
SPEC = MultipleAuditSpec(
    groups=tuple(group(race=value) for value in RECIPE["counts"]), tau=50
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_takeover_after_a_lost_final_write_keeps_the_bill(tmp_path, seed):
    root = make_root(tmp_path, recipe=dict(RECIPE))
    board = JobBoard(root)
    job_id, _ = board.submit(Submission.from_spec(SPEC, tenant="t", seed=seed))
    assert run_worker(root, "first", max_jobs=1, idle_timeout=1.0) == 1
    finished = board.read_state(job_id)
    assert finished["status"] == "succeeded"

    # Lose the final state write: the record goes back to "running".
    board.write_state(
        job_id, dict(finished, status="running", result=None, error=None)
    )
    assert run_worker(root, "second", max_jobs=1, idle_timeout=1.0) == 1

    taken_over = board.read_state(job_id)
    assert taken_over["status"] == "succeeded"
    assert taken_over["tasks_paid"] == finished["tasks_paid"]
    assert taken_over["result"]["tasks"] == finished["result"]["tasks"]
