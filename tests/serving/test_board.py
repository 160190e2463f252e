"""The job board's lease protocol: atomic claims, stale takeover,
heartbeat fencing — the invariants kill/resume recovery rests on."""

from __future__ import annotations

import json
import threading
import time

import pytest

import repro.serving.board as board_module
from repro.audit import GroupAuditSpec
from repro.data.groups import group
from repro.errors import InvalidParameterError
from repro.serving import LeaseLostError, Submission


def submitted_job(board, tau=40, tenant="lease"):
    submission = Submission.from_spec(
        GroupAuditSpec(predicate=group(gender="female"), tau=tau),
        tenant=tenant,
    )
    job_id, _ = board.submit(submission)
    return job_id


def backdate_lease(board, job_id, seconds):
    """Age the current lease by moving its heartbeat into the past."""
    path = max(
        board.job_dir(job_id).glob("lease.*.json"),
        key=lambda lease: int(lease.name.split(".")[1]),
    )
    info = json.loads(path.read_text())
    info["heartbeat"] -= seconds
    path.write_text(json.dumps(info))


def late_racer_loses(board, monkeypatch, *, release_first):
    """Let racer A win while racer B sits between reading the stale
    lease and claiming; assert B and a later racer C lose to A."""
    job_id = submitted_job(board)
    doomed = board.try_claim(job_id, "doomed", ttl=30)
    backdate_lease(board, job_id, 3600)
    read_json = board_module._read_json
    raced = {}

    def read_then_let_a_win(path):
        info = read_json(path)
        if path.name.startswith("lease.") and "A" not in raced:
            raced["A"] = None  # A's own reads must not re-enter
            if release_first:
                board.release(doomed)
            raced["A"] = board.try_claim(job_id, "A", ttl=60)
        return info

    monkeypatch.setattr(board_module, "_read_json", read_then_let_a_win)
    late = board.try_claim(job_id, "B", ttl=60)
    monkeypatch.undo()
    winner = raced["A"]
    assert winner is not None and winner.worker == "A"
    assert late is None
    assert board.try_claim(job_id, "C", ttl=60) is None
    board.heartbeat(winner)
    assert board.lease_info(job_id)["token"] == winner.token


class TestClaims:
    def test_exactly_one_of_many_racers_claims(self, board):
        job_id = submitted_job(board)
        barrier = threading.Barrier(8)
        wins = []

        def claim(worker):
            barrier.wait()
            lease = board.try_claim(job_id, worker, ttl=30)
            if lease is not None:
                wins.append(lease)

        threads = [
            threading.Thread(target=claim, args=(f"w{i}",)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(wins) == 1
        info = board.lease_info(job_id)
        assert info["worker"] == wins[0].worker

    def test_live_lease_blocks_reclaim(self, board):
        job_id = submitted_job(board)
        assert board.try_claim(job_id, "first", ttl=30) is not None
        assert board.try_claim(job_id, "second", ttl=30) is None
        info = board.lease_info(job_id)
        assert info["worker"] == "first" and not board.lease_is_stale(info, 30)

    def test_stale_lease_is_taken_over_by_exactly_one(self, board):
        job_id = submitted_job(board)
        assert board.try_claim(job_id, "doomed", ttl=30) is not None
        # An hour-old heartbeat is stale under the racers' one-minute
        # ttl, and the winner's fresh lease cannot go stale mid-race.
        backdate_lease(board, job_id, 3600)
        barrier = threading.Barrier(6)
        wins = []

        def takeover(worker):
            barrier.wait()
            lease = board.try_claim(job_id, worker, ttl=60)
            if lease is not None:
                wins.append(lease)

        threads = [
            threading.Thread(target=takeover, args=(f"t{i}",))
            for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(wins) == 1
        assert board.lease_info(job_id)["worker"] == wins[0].worker

    def test_late_takeover_does_not_steal_a_completed_takeover(
        self, board, monkeypatch
    ):
        """Racer B reads the stale lease, then pauses; racer A takes the
        lease over completely. B must lose however late it acts, and so
        must a third racer C, so A stays the only winner."""
        late_racer_loses(board, monkeypatch, release_first=False)

    def test_late_takeover_does_not_steal_a_claim_after_release(
        self, board, monkeypatch
    ):
        """Racer B reads the stale lease, then pauses; the stale holder
        releases it and racer A claims the free job. B and a third racer
        C must both lose."""
        late_racer_loses(board, monkeypatch, release_first=True)

    def test_claimer_killed_mid_claim_never_wedges_the_job(self, board):
        """A claimer SIGKILLed between writing its claim and linking it
        leaves only a stray scratch file; one killed right after linking
        leaves a lease that goes stale. Either way a later claim wins."""
        job_id = submitted_job(board)
        assert board.try_claim(job_id, "doomed", ttl=30) is not None
        backdate_lease(board, job_id, 3600)
        stray = board.job_dir(job_id) / "lease.2.json.link-dead"
        stray.write_text(json.dumps({"worker": "killed", "token": "x"}))
        killed = board.try_claim(job_id, "killed-after-link", ttl=60)
        assert killed is not None
        backdate_lease(board, job_id, 3600)
        survivor = board.try_claim(job_id, "survivor", ttl=60)
        assert survivor is not None
        with pytest.raises(LeaseLostError):
            board.heartbeat(killed)
        assert board.lease_info(job_id)["worker"] == "survivor"

    def test_release_then_reclaim(self, board):
        job_id = submitted_job(board)
        lease = board.try_claim(job_id, "one", ttl=30)
        board.release(lease)
        assert board.lease_info(job_id) is None
        assert board.try_claim(job_id, "two", ttl=30) is not None


class TestHeartbeats:
    def test_heartbeat_keeps_the_lease_fresh(self, board):
        job_id = submitted_job(board)
        lease = board.try_claim(job_id, "beater", ttl=0.3)
        for _ in range(4):
            time.sleep(0.1)
            board.heartbeat(lease)
        assert not board.lease_is_stale(board.lease_info(job_id), 0.3)

    def test_heartbeat_after_takeover_raises_lease_lost(self, board):
        job_id = submitted_job(board)
        doomed = board.try_claim(job_id, "doomed", ttl=0.05)
        time.sleep(0.1)
        thief = board.try_claim(job_id, "thief", ttl=0.05)
        assert thief is not None
        with pytest.raises(LeaseLostError):
            board.heartbeat(doomed)
        # The loser's release must not evict the new owner either.
        board.release(doomed)
        assert board.lease_info(job_id)["worker"] == "thief"

    def test_heartbeat_on_released_lease_raises(self, board):
        job_id = submitted_job(board)
        lease = board.try_claim(job_id, "gone", ttl=30)
        board.release(lease)
        with pytest.raises(LeaseLostError):
            board.heartbeat(lease)


class TestStateRecords:
    def test_unknown_job_raises_typed_error(self, board):
        with pytest.raises(InvalidParameterError, match="unknown job id"):
            board.read_state("j" + "0" * 16)
        with pytest.raises(InvalidParameterError, match="unknown job id"):
            board.request_cancel("j" + "0" * 16)

    def test_cancel_marker_round_trip(self, board):
        job_id = submitted_job(board)
        assert not board.cancel_requested(job_id)
        board.request_cancel(job_id)
        board.request_cancel(job_id)  # idempotent
        assert board.cancel_requested(job_id)

    def test_counts_tally_statuses(self, board):
        first = submitted_job(board, tau=10)
        submitted_job(board, tau=11)
        state = board.read_state(first)
        state["status"] = "succeeded"
        board.write_state(first, state)
        assert board.counts() == {"succeeded": 1, "queued": 1}
