"""The job store's append-only journal: framing, folding, recovery.

A :class:`~repro.service.DirectoryJobStore` appends one CRC-framed JSON
frame per save to ``<root>/journal`` and reads back the fold of the
frames that verify. These tests break the journal the ways a crash, a
race or a bad disk can, and check what readers and the next writer see.
"""

from __future__ import annotations

import json
import multiprocessing
import struct
import zlib

import numpy as np
import pytest

from repro.audit import BaseAuditSpec, GroupAuditSpec
from repro.audit.proxy import RecordingOracleProxy
from repro.crowd.oracle import CrowdOracle, GroundTruthOracle
from repro.crowd.platform import CrowdPlatform
from repro.crowd.reliability import AdaptiveAssignmentPolicy
from repro.crowd.workers import make_worker_pool
from repro.data.groups import group
from repro.data.synthetic import single_attribute_dataset
from repro.service import (
    AuditService,
    DirectoryJobStore,
    InMemoryJobStore,
    JobStatus,
)

COUNTS = {"white": 700, "black": 90, "asian": 60}
SPECS = [
    GroupAuditSpec(predicate=group(race="black"), tau=80),
    BaseAuditSpec(predicate=group(race="asian"), tau=10),
    GroupAuditSpec(predicate=group(race="asian"), tau=50),
]


@pytest.fixture(scope="module")
def dataset():
    return single_attribute_dataset(COUNTS, rng=np.random.default_rng(9))


def frame(body: dict) -> bytes:
    data = json.dumps(body).encode()
    return struct.pack("<II", len(data), zlib.crc32(data)) + data


def frame_ends(data: bytes) -> list[int]:
    """The end offset of each leading frame of ``data`` that verifies."""
    ends, offset = [], 0
    while offset + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, offset)
        body = data[offset + 8 : offset + 8 + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        offset += 8 + length
        ends.append(offset)
    return ends


def folded_size(store: DirectoryJobStore) -> int:
    """The bytes of the store's whole state written as one frame."""
    answers = store.load_answers()
    jobs = store.load_jobs()
    return len(frame({"jobs": jobs} if answers is None else {"answers": answers, "jobs": jobs}))


def run_to_end(service: AuditService) -> dict:
    with service:
        service.drain()
        return {
            handle.job_id: (handle.result().result.covered, handle.result().result.count)
            for handle in service.jobs()
        }


class TestFraming:
    def test_corrupt_frame_mid_journal_stops_the_fold(self, tmp_path):
        frames = [
            frame({"jobs": {"job-00000": {"seq": 0}}}),
            frame({"answers": {"version": 1}}),
            frame({"answers": {"version": 2}}),
            frame({"jobs": {"job-00000": {"seq": 1}}}),
        ]
        corrupt = bytearray(frames[2])
        corrupt[-2] ^= 0x01
        frames[2] = bytes(corrupt)
        (tmp_path / "journal").write_bytes(b"".join(frames))
        store = DirectoryJobStore(tmp_path)
        assert store.load_answers() == {"version": 1}
        assert store.load_jobs() == {"job-00000": {"seq": 0}}

        # A writer cuts the journal where the fold stopped, then appends.
        store.save_answers({"version": 3})
        data = (tmp_path / "journal").read_bytes()
        assert frame_ends(data)[-1] == len(data)
        assert store.load_answers() == {"version": 3}
        assert store.load_jobs() == {"job-00000": {"seq": 0}}

    def test_dead_writers_torn_tail_is_cut_before_the_next_append(self, tmp_path):
        whole = frame({"answers": {"version": 2, "set_answers": []}})
        torn = frame({"jobs": {"job-00000": {"seq": 0}}})
        (tmp_path / "journal").write_bytes(whole + torn[: len(torn) // 2])
        store = DirectoryJobStore(tmp_path)
        assert store.load_answers() == {"version": 2, "set_answers": []}
        assert store.load_jobs() == {}
        store.save_job("job-00001", {"seq": 1})
        data = (tmp_path / "journal").read_bytes()
        assert frame_ends(data) == [len(whole), len(data)]
        assert store.load_jobs() == {"job-00001": {"seq": 1}}

    def test_unchanged_saves_append_nothing(self, tmp_path):
        store = DirectoryJobStore(tmp_path)
        store.save_job("job-00000", {"seq": 0})
        store.save_answers({"version": 2, "set_answers": []})
        size = store.journal.stat().st_size
        store.save_job("job-00000", {"seq": 0})
        store.save_answers({"version": 2, "set_answers": []})
        assert store.journal.stat().st_size == size


class TestFold:
    def test_entries_union_in_first_seen_order_latest_answer_wins(self, tmp_path):
        def entry(index, label):
            return {"index": index, "labels": {"race": label}}

        saves = [
            {"version": 2, "tasks_paid": 1, "point_answers": [entry(4, "black")]},
            {"version": 2, "tasks_paid": 3, "point_answers": [entry(1, "white"), entry(4, "asian")]},
        ]
        for store in (InMemoryJobStore(), DirectoryJobStore(tmp_path)):
            for payload in saves:
                store.save_answers(payload)
            assert store.load_answers() == {
                "version": 2,
                "tasks_paid": 3,
                "point_answers": [entry(4, "asian"), entry(1, "white")],
            }

    def test_checkpoint_deltas_fold_to_the_full_answer_log(self, tmp_path, dataset):
        stores = [InMemoryJobStore(), DirectoryJobStore(tmp_path)]
        for store in stores:
            service = AuditService(
                GroundTruthOracle(dataset), job_store=store, checkpoint_every=1, batch_size=4
            )
            with service:
                for spec in SPECS:
                    service.submit(spec)
                service.drain()
            log = store.load_answers()
            full = service._proxy.answer_log()
            for section in ("set_answers", "point_answers", "reliability"):
                assert log[section] == full[section]
            assert len(log["set_answers"]) + len(log["point_answers"]) == log["tasks_paid"]
        assert stores[0].load_answers() == stores[1].load_answers()
        events = [
            {job_id: record["events"] for job_id, record in store.load_jobs().items()}
            for store in stores
        ]
        assert events[0] == events[1]

    def test_a_resumed_service_saves_only_answers_paid_after_the_resume(self, dataset):
        class Recording(InMemoryJobStore):
            def save_answers(self, payload):
                self.last = payload
                super().save_answers(payload)

        store = Recording()
        with AuditService(GroundTruthOracle(dataset), job_store=store) as service:
            service.submit(SPECS[0])
            service.step()
            service.checkpoint()
        assert store.last["set_answers"]
        revived = AuditService.resume(store, GroundTruthOracle(dataset))
        revived.checkpoint()
        assert store.last["set_answers"] == store.last["point_answers"] == []
        with revived:
            revived.drain()
        assert store.last["set_answers"]

    def test_a_point_recorded_again_below_the_cursor_rides_the_delta(self, dataset):
        proxy = RecordingOracleProxy(GroundTruthOracle(dataset))
        proxy.ask_point_batch([3, 5])
        proxy.mark_persisted(proxy.log_end())
        proxy.points.record([5], np.array([[2]], dtype=np.int16))
        sections, cursor = proxy.answer_delta()
        assert cursor == (0, 2)
        assert [entry["index"] for entry in sections["point_answers"]] == [5]
        proxy.mark_persisted(cursor)
        assert proxy.answer_delta()[0]["point_answers"] == []


def _appender(root: str, writer: int, saves: int, start) -> None:
    store = DirectoryJobStore(root)
    start.wait(timeout=60)
    for seq in range(saves):
        store.save_job(f"job-{writer}", {"seq": seq, "pad": "x" * 200})
        store.save_answers(
            {
                "writer": writer,
                "set_answers": [{"key": f"{writer}-{seq}", "answer": True}],
            }
        )


class TestConcurrentAppenders:
    def test_two_process_appenders_leave_every_frame_verifying(self, tmp_path):
        """Two processes appending (and compacting) the same journal at
        once: every frame verifies and no save is lost."""
        context = multiprocessing.get_context("spawn")
        root = str(tmp_path / "store")
        DirectoryJobStore(root)
        saves = 300
        start = context.Barrier(2)
        writers = [
            context.Process(target=_appender, args=(root, writer, saves, start))
            for writer in range(2)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=120)
            assert process.exitcode == 0
        store = DirectoryJobStore(root)
        data = store.journal.read_bytes()
        assert frame_ends(data)[-1] == len(data)
        jobs = store.load_jobs()
        assert {job_id: record["seq"] for job_id, record in jobs.items()} == {
            "job-0": saves - 1,
            "job-1": saves - 1,
        }
        keys = {entry["key"] for entry in store.load_answers()["set_answers"]}
        assert keys == {f"{writer}-{seq}" for writer in range(2) for seq in range(saves)}


class TestRecoveryAndGrowth:
    def test_parent_format_directory_survives_resume_checkpoint_resume(
        self, tmp_path, dataset
    ):
        """A directory of ``answers.json`` and ``jobs/<id>.json``, as
        earlier builds wrote it, resumes, checkpoints into the journal and
        resumes again; its files are read, never written."""
        reference = AuditService(GroundTruthOracle(dataset), batch_size=4)
        for spec in SPECS:
            reference.submit(spec)
        expected = run_to_end(reference)

        snapshot = InMemoryJobStore()
        first = AuditService(GroundTruthOracle(dataset), job_store=snapshot, batch_size=4)
        with first:
            for spec in SPECS:
                first.submit(spec)
            for _ in range(3):
                first.step()
            first.checkpoint()
        (tmp_path / "jobs").mkdir()
        legacy = {tmp_path / "answers.json": snapshot.load_answers()}
        for job_id, record in snapshot.load_jobs().items():
            legacy[tmp_path / "jobs" / f"{job_id}.json"] = record
        for path, payload in legacy.items():
            path.write_text(json.dumps(payload))
        written = {path: path.read_bytes() for path in legacy}

        store = DirectoryJobStore(tmp_path)
        assert store.load_answers() == snapshot.load_answers()
        resumed = AuditService.resume(store, GroundTruthOracle(dataset))
        assert run_to_end(resumed) == expected
        assert resumed.tasks_paid == reference.tasks_paid

        oracle = GroundTruthOracle(dataset)
        again = AuditService.resume(DirectoryJobStore(tmp_path), oracle)
        assert all(handle.status is JobStatus.SUCCEEDED for handle in again.jobs())
        assert run_to_end(again) == expected
        assert oracle.ledger.total == 0
        assert again.tasks_paid == reference.tasks_paid
        assert {path: path.read_bytes() for path in legacy} == written

    def test_thousand_checkpoints_stay_within_the_compaction_bound(self, tmp_path):
        """The journal of a long-lived service stays within twice its
        folded state (up to each frame's few bytes of framing): the
        reliability snapshot every checkpoint rewrites goes stale, and
        compaction drops it. A resume reads back the same fold."""
        dataset = single_attribute_dataset(
            {"white": 200, "black": 25, "asian": 16}, rng=np.random.default_rng(9)
        )

        def oracle():
            pool = make_worker_pool(6, np.random.default_rng(3), error_rate=0.03)
            platform = CrowdPlatform(
                dataset,
                pool,
                np.random.default_rng(11),
                reliability=AdaptiveAssignmentPolicy(log_odds_threshold=3.5),
            )
            return CrowdOracle(platform)

        store = DirectoryJobStore(tmp_path)
        service = AuditService(oracle(), job_store=store, batch_size=1)
        predicates = [group(race="black"), group(race="asian")]
        compactions, previous = 0, 0
        with service:
            for checkpoint in range(1_000):
                if not service.has_work:
                    service.submit(
                        GroupAuditSpec(
                            predicate=predicates[checkpoint % 2], tau=14 + checkpoint % 7
                        )
                    )
                service.step()
                service.checkpoint()
                data = store.journal.read_bytes()
                ends = frame_ends(data)
                assert ends[-1] == len(data)
                if checkpoint % 25 == 0:
                    assert len(data) <= 2 * folded_size(store) + 16 * len(ends)
                compactions += len(data) < previous
                previous = len(data)
        assert compactions >= 3
        revived = AuditService.resume(DirectoryJobStore(tmp_path), oracle())
        assert revived.tasks_paid == service.tasks_paid
        assert [handle.job_id for handle in revived.jobs()] == [
            handle.job_id for handle in service.jobs()
        ]
