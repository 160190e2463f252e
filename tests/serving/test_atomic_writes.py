"""A write that fails part-way leaves no scratch file and no torn record.

Every durable file of the serving layer's board — its submissions and
state records, the root's ``serving.json`` — is written to a scratch
file and renamed into place. Here the scratch write fails half-way, as
on a full disk (``ENOSPC``): the error must reach the caller, the
scratch file must be gone, and the previous version of the file must
still be there, whole. The job store appends to a journal instead, and
its torn frame must not reach a reader.
"""

from __future__ import annotations

import errno
import json
import os
import struct
import zlib
from pathlib import Path

import pytest

from repro.audit import GroupAuditSpec
from repro.data.groups import group
from repro.service import DirectoryJobStore
from repro.serving import JobBoard, ServingConfig, Submission, init_serving_root

from .conftest import make_root

SPEC = GroupAuditSpec(predicate=group(gender="female"), tau=10)
CONFIG = ServingConfig(
    recipe={"kind": "synthetic-binary", "n": 50, "n_minority": 5, "dataset_seed": 0}
)


@pytest.fixture
def disk_full(monkeypatch):
    """From now on, every ``Path.write_text`` writes half its text and
    then fails with ENOSPC."""
    real_write_text = Path.write_text

    def torn_write_text(self, data, *args, **kwargs):
        real_write_text(self, data[: len(data) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device", str(self))

    def install():
        monkeypatch.setattr(Path, "write_text", torn_write_text)

    return install


def scratch_files(directory: Path) -> list[str]:
    return sorted(
        path.name
        for path in directory.rglob("*")
        if ".tmp-" in path.name or ".link-" in path.name
    )


def test_store_writes(tmp_path, monkeypatch):
    """The job store appends frames to its journal instead: a frame torn
    by a full disk surfaces the error, readers keep the previous state,
    and the next append cuts the torn bytes off before its own."""
    store = DirectoryJobStore(tmp_path / "store")
    store.save_job("job-00000", {"seq": 0})
    store.save_answers({"version": 2})
    before = store.journal.read_bytes()
    real_write = os.write

    def torn_write(descriptor, data):
        real_write(descriptor, bytes(data[: len(data) // 2]))
        raise OSError(errno.ENOSPC, "No space left on device")

    with monkeypatch.context() as patch:
        patch.setattr(os, "write", torn_write)
        with pytest.raises(OSError, match="No space"):
            store.save_job("job-00000", {"seq": 1})
        with pytest.raises(OSError, match="No space"):
            store.save_answers({"version": 3})
    torn = store.journal.read_bytes()
    assert len(torn) > len(before) and torn.startswith(before)
    assert scratch_files(tmp_path) == []
    assert store.load_jobs() == {"job-00000": {"seq": 0}}
    assert store.load_answers() == {"version": 2}

    store.save_answers({"version": 3})  # the disk has room again
    assert store.load_answers() == {"version": 3}
    assert store.load_jobs() == {"job-00000": {"seq": 0}}
    assert verified_length(store.journal.read_bytes()) == store.journal.stat().st_size


def verified_length(data: bytes) -> int:
    """How many leading bytes of a journal are whole, CRC-valid frames."""
    offset = 0
    while offset + 8 <= len(data):
        length, crc = struct.unpack_from("<II", data, offset)
        body = data[offset + 8 : offset + 8 + length]
        if len(body) < length or zlib.crc32(body) != crc:
            break
        offset += 8 + length
    return offset


def test_board_writes(tmp_path, disk_full):
    board = JobBoard(make_root(tmp_path))
    job_id, _ = board.submit(Submission.from_spec(SPEC, tenant="t"))
    before = board.read_state(job_id)
    disk_full()
    with pytest.raises(OSError, match="No space"):
        board.write_state(job_id, dict(before, status="running"))
    with pytest.raises(OSError, match="No space"):
        board.submit(Submission.from_spec(SPEC, tenant="other"))
    assert scratch_files(tmp_path) == []
    assert board.read_state(job_id) == before


def test_config_write(tmp_path, disk_full):
    root = tmp_path / "root"
    disk_full()
    with pytest.raises(OSError, match="No space"):
        init_serving_root(root, CONFIG)
    assert scratch_files(tmp_path) == []
    assert not (root / "serving.json").exists()


def test_config_bytes_are_indented_and_sorted(tmp_path):
    root = init_serving_root(tmp_path / "root", CONFIG)
    assert (root / "serving.json").read_text() == json.dumps(
        CONFIG.to_dict(), indent=2, sort_keys=True
    )
