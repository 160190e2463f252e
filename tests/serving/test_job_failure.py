"""A job that fails ends ``failed`` on the board; the worker moves on."""

from __future__ import annotations

from repro.audit import GroupAuditSpec
from repro.data.groups import group
from repro.serving import JobBoard, Submission, run_worker

from .conftest import make_root

FEMALE = group(gender="female")


def test_a_group_job_that_cannot_start_fails_and_the_worker_moves_on(tmp_path):
    root = make_root(tmp_path)
    board = JobBoard(root)
    bad_id, _ = board.submit(
        Submission.from_spec(
            GroupAuditSpec(predicate=FEMALE, tau=5, view=(1, 5, 5000)), tenant="t"
        )
    )
    good_id, _ = board.submit(
        Submission.from_spec(GroupAuditSpec(predicate=FEMALE, tau=5), tenant="t")
    )
    finished = run_worker(root, "w", max_jobs=2, idle_timeout=1.0, poll_interval=0.01)
    assert finished == 2
    bad = board.read_state(bad_id)
    assert bad["status"] == "failed"
    assert "InvalidParameterError" in bad["error"] and "5000" in bad["error"]
    assert board.lease_info(bad_id) is None
    assert board.read_state(good_id)["status"] == "succeeded"
