"""A write that fails part-way leaves no scratch file and no torn record.

Every durable file of the serving layer — the job store's records and
answer log, the board's submissions and state records, the root's
``serving.json`` — is written to a scratch file and renamed into place.
Here the scratch write fails half-way, as on a full disk (``ENOSPC``):
the error must reach the caller, the scratch file must be gone, and the
previous version of the file must still be there, whole.
"""

from __future__ import annotations

import errno
import json
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


def test_store_writes(tmp_path, disk_full):
    store = DirectoryJobStore(tmp_path / "store")
    store.save_job("job-00000", {"seq": 0})
    store.save_answers({"version": 2})
    disk_full()
    with pytest.raises(OSError, match="No space"):
        store.save_job("job-00000", {"seq": 1})
    with pytest.raises(OSError, match="No space"):
        store.save_answers({"version": 3})
    assert scratch_files(tmp_path) == []
    assert store.load_jobs() == {"job-00000": {"seq": 0}}
    assert store.load_answers() == {"version": 2}


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
