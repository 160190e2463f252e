"""reprolint test suite: each rule catches its seeded violation, passes
its clean counterpart, and the live repository lints clean.

Fixture tests write small files into ``tmp_path`` and run the engine
with a narrow, rule-specific config; the self-run test invokes
``python -m reprolint src`` exactly as CI does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "tools"))

from reprolint import Config, RuleScope, run_paths  # noqa: E402
from reprolint.cli import main as cli_main  # noqa: E402
from reprolint.findings import META_CODE  # noqa: E402


def lint(tmp_path: Path, files: dict[str, str], config: Config):
    """Write ``files`` under ``tmp_path`` and lint them with ``config``."""
    for name, body in files.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(body))
    return run_paths([tmp_path], root=tmp_path, config=config)


def codes(result) -> list[str]:
    return [finding.code for finding in result.findings]


def scoped(code: str, **options) -> Config:
    """A config enabling one rule everywhere in the fixture tree."""
    return Config(rules=(RuleScope(code=code, options=options),))


# -- RPL001: determinism ------------------------------------------------


def test_rpl001_flags_random_module_and_wall_clock(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import random
            import time

            def jitter():
                return random.random() + time.time()
            """
        },
        scoped("RPL001"),
    )
    assert codes(result).count("RPL001") == 3  # import, call, wall clock
    assert any("random" in finding.message for finding in result.findings)


def test_rpl001_flags_unseeded_and_legacy_numpy_rng(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import numpy as np

            def sample():
                a = np.random.default_rng()
                b = np.random.rand(3)
                return a, b
            """
        },
        scoped("RPL001"),
    )
    assert codes(result) == ["RPL001", "RPL001"]


def test_rpl001_clean_on_seeded_rng(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import numpy as np

            def sample(seed):
                rng = np.random.default_rng(seed)
                return rng.integers(0, 10)
            """
        },
        scoped("RPL001"),
    )
    assert result.findings == ()


def test_rpl001_allow_wall_clock_is_per_path(tmp_path):
    files = {
        "serving/loop.py": """\
        import time

        def heartbeat():
            return time.time()
        """,
        "audit/core.py": """\
        import time

        def stamp():
            return time.time()
        """,
    }
    config = scoped("RPL001", allow_wall_clock=("serving/*",))
    result = lint(tmp_path, files, config)
    assert [finding.path for finding in result.findings] == ["audit/core.py"]


def test_rpl001_numpy_log_exp_flags_math_in_scoped_paths(tmp_path):
    body = """\
    import math
    from math import expm1, log1p, sqrt

    def rates(x):
        return math.exp(x) + math.log(x) + log1p(x) + expm1(x) + sqrt(x)
    """
    config = scoped("RPL001", numpy_log_exp=("reliability/*",))
    result = lint(tmp_path, {"reliability/online.py": body, "audit/core.py": body}, config)
    assert [(f.path, f.line) for f in result.findings] == [
        ("reliability/online.py", 2),
        ("reliability/online.py", 5),
        ("reliability/online.py", 5),
    ]
    assert "math.expm1, math.log1p" in result.findings[0].message


def test_rpl001_numpy_log_exp_clean_on_numpy(tmp_path):
    result = lint(
        tmp_path,
        {
            "reliability/online.py": """\
            import math

            import numpy as np

            def rates(x):
                return float(np.exp(x)) + float(np.log(x)) + math.sqrt(x)
            """
        },
        scoped("RPL001", numpy_log_exp=("reliability/*",)),
    )
    assert result.findings == ()


# -- RPL002: atomic writes ----------------------------------------------


def test_rpl002_flags_in_place_write(tmp_path):
    result = lint(
        tmp_path,
        {
            "store.py": """\
            def save(path, payload):
                with open(path, "w") as handle:
                    handle.write(payload)
            """
        },
        scoped("RPL002"),
    )
    assert codes(result) == ["RPL002"]
    assert "in place" in result.findings[0].message


def test_rpl002_flags_shared_scratch_name(tmp_path):
    result = lint(
        tmp_path,
        {
            "store.py": """\
            import os

            def save(path, payload):
                scratch = path + ".tmp"
                with open(scratch, "w") as handle:
                    handle.write(payload)
                os.replace(scratch, path)
            """
        },
        scoped("RPL002"),
    )
    assert codes(result) == ["RPL002"]
    assert "uniqueness" in result.findings[0].message


def test_rpl002_clean_on_unique_scratch_and_append(tmp_path):
    result = lint(
        tmp_path,
        {
            "store.py": """\
            import os
            import secrets

            def save(path, payload):
                scratch = f"{path}.tmp-{os.getpid()}-{secrets.token_hex(4)}"
                with open(scratch, "w") as handle:
                    handle.write(payload)
                os.replace(scratch, path)

            def log(path, line):
                with open(path, "a") as handle:
                    handle.write(line)
            """
        },
        scoped("RPL002"),
    )
    assert result.findings == ()


# -- RPL003: frozen specs with codec coverage ---------------------------


def test_rpl003_flags_unfrozen_dataclass(tmp_path):
    result = lint(
        tmp_path,
        {
            "spec.py": """\
            from dataclasses import dataclass

            @dataclass
            class Spec:
                tau: int

                def to_dict(self):
                    return {"tau": self.tau}

                @classmethod
                def from_dict(cls, data):
                    return cls(tau=data.get("tau"))
            """
        },
        scoped("RPL003"),
    )
    assert codes(result) == ["RPL003"]
    assert "frozen" in result.findings[0].message


def test_rpl003_flags_field_missing_from_codec(tmp_path):
    result = lint(
        tmp_path,
        {
            "spec.py": """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Spec:
                tau: int
                n: int

                def to_dict(self):
                    return {"tau": self.tau}

                @classmethod
                def from_dict(cls, data):
                    return cls(tau=data.get("tau"), n=50)
            """
        },
        scoped("RPL003"),
    )
    # ``n`` is covered by neither to_dict nor from_dict: two findings.
    assert codes(result) == ["RPL003", "RPL003"]
    assert all("Spec.n" in finding.message for finding in result.findings)


def test_rpl003_clean_with_aliases_and_classvars(tmp_path):
    result = lint(
        tmp_path,
        {
            "spec.py": """\
            from dataclasses import dataclass
            from typing import ClassVar

            @dataclass(frozen=True)
            class Spec:
                kind: ClassVar[str] = "spec"
                tau: int = 0
                digest: str = ""

                def to_dict(self):
                    return {"tau": self.tau, "hash": self.digest}

                @classmethod
                def from_dict(cls, data):
                    return cls(tau=data.get("tau"), digest=data.get("hash"))
            """
        },
        scoped("RPL003", field_aliases={"Spec": {"digest": "hash"}}),
    )
    assert result.findings == ()


def test_rpl003_codec_table_catches_unregistered_spec(tmp_path, monkeypatch):
    module_dir = tmp_path / "fakepkg"
    module_dir.mkdir()
    (module_dir / "__init__.py").write_text("")
    (module_dir / "specs.py").write_text(
        textwrap.dedent(
            """\
            from dataclasses import dataclass
            from typing import ClassVar

            @dataclass(frozen=True)
            class Registered:
                kind: ClassVar[str] = "registered"

                def to_dict(self):
                    return {}

                @classmethod
                def from_dict(cls, data):
                    return cls()

            @dataclass(frozen=True)
            class Orphan:
                kind: ClassVar[str] = "orphan"

                def to_dict(self):
                    return {}

                @classmethod
                def from_dict(cls, data):
                    return cls()

            TYPES = {Registered.kind: Registered}
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    config = scoped(
        "RPL003",
        codec_tables={"fakepkg/specs.py": ("fakepkg.specs", "TYPES")},
    )
    result = run_paths([tmp_path], root=tmp_path, config=config)
    table_findings = [
        finding for finding in result.findings if "registered in" in finding.message
    ]
    assert len(table_findings) == 1
    assert "Orphan" in table_findings[0].message


def test_rpl003_codec_table_clean_on_live_spec_table(tmp_path):
    config = scoped(
        "RPL003",
        codec_tables={
            "src/repro/audit/specs.py": ("repro.audit.specs", "_SPEC_TYPES")
        },
    )
    result = run_paths(
        [REPO_ROOT / "src" / "repro" / "audit" / "specs.py"],
        root=REPO_ROOT,
        config=config,
    )
    assert not [f for f in result.findings if "registered in" in f.message]


# -- RPL004: decoder error contract -------------------------------------


def test_rpl004_flags_bare_subscript_in_decoder(tmp_path):
    result = lint(
        tmp_path,
        {
            "codec.py": """\
            def from_dict(data):
                return data["tau"]
            """
        },
        scoped("RPL004", decoder_names=("from_dict",)),
    )
    assert codes(result) == ["RPL004"]
    assert "'tau'" in result.findings[0].message


def test_rpl004_clean_on_guarded_subscript_and_get(tmp_path):
    result = lint(
        tmp_path,
        {
            "codec.py": """\
            class BadPayload(ValueError):
                pass

            def from_dict(data):
                try:
                    return data["tau"], data.get("n", 50)
                except KeyError as error:
                    raise BadPayload(str(error)) from error

            def _from_dict_helper(data):
                return data["tau"]  # private: the caller's guard covers it
            """
        },
        scoped("RPL004", decoder_names=("from_dict",)),
    )
    assert result.findings == ()


def test_rpl004_handler_must_reraise(tmp_path):
    result = lint(
        tmp_path,
        {
            "codec.py": """\
            def from_dict(data):
                try:
                    return data["tau"]
                except KeyError:
                    pass
                return None
            """
        },
        scoped("RPL004", decoder_names=("from_dict",)),
    )
    assert codes(result) == ["RPL004"]


# -- RPL005: checkpoint version stamps ----------------------------------


def test_rpl005_flags_unstamped_writer_and_blind_reader(tmp_path):
    result = lint(
        tmp_path,
        {
            "state.py": """\
            class Record:
                def to_dict(self):
                    return {"payload": 1}

                @classmethod
                def from_dict(cls, data):
                    return cls()
            """
        },
        scoped("RPL005"),
    )
    assert codes(result) == ["RPL005", "RPL005"]


def test_rpl005_clean_on_versioned_roundtrip_and_nested_exemption(tmp_path):
    result = lint(
        tmp_path,
        {
            "state.py": """\
            class Record:
                def to_dict(self):
                    return {"version": 2, "payload": 1}

                @classmethod
                def from_dict(cls, data):
                    if data.get("version") != 2:
                        raise ValueError("bad version")
                    return cls()

            class Event:
                def to_dict(self):
                    return {"stage": "x"}

                @classmethod
                def from_dict(cls, data):
                    return cls()
            """
        },
        scoped("RPL005", nested_payloads=("Event",)),
    )
    assert result.findings == ()


# -- RPL006: docstring contract -----------------------------------------


def test_rpl006_flags_undocumented_export(tmp_path, monkeypatch):
    module_dir = tmp_path / "docpkg"
    module_dir.mkdir()
    (module_dir / "__init__.py").write_text(
        textwrap.dedent(
            '''\
            """A documented module."""

            __all__ = ["documented", "bare"]


            def documented():
                """Documented with an example, at proper length.

                >>> documented()
                """


            def bare():
                pass
            '''
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    config = scoped("RPL006", modules=("docpkg",))
    result = run_paths([tmp_path], root=tmp_path, config=config)
    assert codes(result) == ["RPL006"]
    assert "docpkg.bare" in result.findings[0].message


# -- suppressions -------------------------------------------------------


def test_suppression_silences_finding_with_reason(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import time

            def stamp():
                return time.time()  # reprolint: disable=RPL001 (profiling only)
            """
        },
        scoped("RPL001"),
    )
    assert result.findings == ()


def test_standalone_suppression_covers_next_line(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import time

            def stamp():
                # reprolint: disable=RPL001 (profiling only)
                return time.time()
            """
        },
        scoped("RPL001"),
    )
    assert result.findings == ()


def test_file_wide_suppression(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            # reprolint: disable-file=RPL001 (legacy experiment script)
            import time

            def stamp():
                return time.time()
            """
        },
        scoped("RPL001"),
    )
    assert result.findings == ()


def test_unused_suppression_is_reported(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            def stamp():
                return 0  # reprolint: disable=RPL001 (stale directive)
            """
        },
        scoped("RPL001"),
    )
    assert codes(result) == [META_CODE]
    assert "unused suppression" in result.findings[0].message


def test_suppression_without_reason_is_malformed(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import time

            def stamp():
                return time.time()  # reprolint: disable=RPL001
            """
        },
        scoped("RPL001"),
    )
    # The directive is rejected AND the finding it failed to silence stays.
    assert sorted(codes(result)) == [META_CODE, "RPL001"]
    assert any("no reason" in finding.message for finding in result.findings)


def test_meta_findings_cannot_be_suppressed(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            x = 1  # reprolint: disable=RPL000 (nice try)
            """
        },
        scoped("RPL001"),
    )
    assert codes(result) == [META_CODE]
    assert "cannot be suppressed" in result.findings[0].message


def test_directive_inside_string_literal_is_ignored(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            DOC = "# reprolint: disable=RPL001 (not a real directive)"
            """
        },
        scoped("RPL001"),
    )
    assert result.findings == ()


# -- engine and CLI -----------------------------------------------------


def test_syntax_error_reports_meta_finding(tmp_path):
    result = lint(tmp_path, {"broken.py": "def f(:\n"}, scoped("RPL001"))
    assert codes(result) == [META_CODE]
    assert "cannot parse" in result.findings[0].message


def test_out_of_scope_files_are_not_checked(tmp_path):
    config = Config(rules=(RuleScope(code="RPL001", include=("core/*",)),))
    result = lint(
        tmp_path,
        {
            "core/a.py": "import random\n",
            "scripts/b.py": "import random\n",
        },
        config,
    )
    assert [finding.path for finding in result.findings] == ["core/a.py"]


def test_cli_json_output_and_exit_code(tmp_path, capsys):
    (tmp_path / "core.py").write_text("import random\n")
    # findings -> exit 1, parseable JSON
    code = cli_main(
        ["--root", str(tmp_path), "--format", "json", str(tmp_path)]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0  # fixture tree is outside every DEFAULT scope
    assert payload["files_scanned"] == 1


def test_cli_list_rules(capsys):
    assert cli_main(["--list-rules"]) == 0
    output = capsys.readouterr().out
    for rule in (
        "RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006",
        "RPL007", "RPL008", "RPL009", "RPL010",
    ):
        assert rule in output


# -- the live repository is clean ---------------------------------------


def test_self_run_live_repo_is_clean():
    """``python -m reprolint src`` — the CI gate — passes on this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "reprolint", "--format", "json", "src"],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    payload = json.loads(proc.stdout)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert payload["findings"] == []
    assert payload["files_scanned"] > 50


def test_self_run_fails_on_seeded_violation(tmp_path):
    """The gate actually gates: a planted violation flips the exit code."""
    bad = tmp_path / "src" / "repro" / "planted.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT / "tools")]
    )
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "reprolint",
            "--root",
            str(tmp_path),
            str(bad),
        ],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "RPL001" in proc.stdout


@pytest.mark.parametrize(
    "module",
    ["repro.audit.specs", "repro.serving.protocol", "repro.audit.report"],
)
def test_fixed_decoders_raise_library_errors(module):
    """The PR's src fixes hold: malformed payloads raise ReproError."""
    import importlib

    from repro.errors import ReproError

    mod = importlib.import_module(module)
    targets = {
        "repro.audit.specs": lambda: mod.GroupAuditSpec.from_dict(
            {"tau": 1, "n": 1, "view": None}
        ),
        "repro.serving.protocol": lambda: mod.Submission.from_dict(
            {"version": 1, "tenant": "t"}
        ),
        "repro.audit.report": lambda: mod.AuditReport.from_dict(
            {"version": 1, "entries": []}
        ),
    }
    with pytest.raises(ReproError):
        targets[module]()


# -- RPL007: thread-shared mutation -------------------------------------


def test_rpl007_flags_unlocked_mutation_on_spawned_path(tmp_path):
    result = lint(
        tmp_path,
        {
            "tally.py": """\
            import threading
            from concurrent.futures import ThreadPoolExecutor

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def bump(self):
                    self.count += 1

                def bump_locked(self):
                    with self._lock:
                        self.count += 1

                def run(self):
                    with ThreadPoolExecutor() as pool:
                        pool.submit(self.bump)
                        pool.submit(self.bump_locked)
            """
        },
        scoped("RPL007"),
    )
    assert codes(result) == ["RPL007"]
    assert "self.count" in result.findings[0].message
    assert "Tally.bump" in result.findings[0].message


def test_rpl007_lock_held_at_call_site_protects_the_callee(tmp_path):
    result = lint(
        tmp_path,
        {
            "tally.py": """\
            import threading

            class Tally:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.count = 0

                def _merge(self):
                    self.count += 1      # guarded by every caller

                def on_done(self):
                    with self._lock:
                        self._merge()

                def run(self):
                    threading.Thread(target=self.on_done).start()
            """
        },
        scoped("RPL007"),
    )
    assert result.findings == ()


def test_rpl007_instance_per_thread_class_is_exempt(tmp_path):
    files = {
        "handler.py": """\
        import threading

        class Handler:
            def handle(self):
                self.n_requests = 1

            def serve(self):
                threading.Thread(target=self.handle).start()
        """
    }
    assert codes(lint(tmp_path, dict(files), scoped("RPL007"))) == ["RPL007"]
    clean = lint(
        tmp_path, files, scoped("RPL007", instance_per_thread=("Handler",))
    )
    assert clean.findings == ()


def test_rpl007_thread_roots_seed_reachability_without_a_spawn_site(tmp_path):
    result = lint(
        tmp_path,
        {
            "gateway.py": """\
            class Gateway:
                def do_GET(self):
                    self.hits += 1
            """
        },
        scoped("RPL007", thread_roots=("Gateway.do_GET",)),
    )
    assert codes(result) == ["RPL007"]


# -- RPL008: rng-stream discipline --------------------------------------


def test_rpl008_flags_mid_path_mint_and_module_level_generator(tmp_path):
    result = lint(
        tmp_path,
        {
            "session.py": """\
            import numpy as np

            _RNG = np.random.default_rng(0)

            class Session:
                def run(self, rng):
                    return fresh() + shared()

            def fresh():
                return np.random.default_rng(7).random()

            def shared():
                return _RNG.random()
            """
        },
        scoped("RPL008", entry_points=("Session.run",)),
    )
    assert sorted(codes(result)) == ["RPL008", "RPL008"]
    messages = " ".join(finding.message for finding in result.findings)
    assert "default_rng" in messages and "_RNG" in messages


def test_rpl008_entry_point_factories_and_unreachable_mints_are_clean(tmp_path):
    result = lint(
        tmp_path,
        {
            "session.py": """\
            import numpy as np

            class Session:
                def resume(self, seed):
                    rng = np.random.default_rng(seed)   # sanctioned factory
                    return helper(rng)

            def helper(rng):
                return rng.random()

            def offline():
                return np.random.default_rng(3)         # not on an audit path
            """
        },
        scoped(
            "RPL008",
            entry_points=("Session.resume",),
            rng_factories=("Session.resume",),
        ),
    )
    assert result.findings == ()


# -- RPL009: serving file protocol --------------------------------------


def test_rpl009_flags_raw_write_and_intolerant_read(tmp_path):
    result = lint(
        tmp_path,
        {
            "store.py": """\
            import json
            import os

            def _write_atomic(path, payload):
                scratch = path.with_suffix(".tmp")
                scratch.write_text(json.dumps(payload))
                os.replace(scratch, path)

            def save(path, payload):
                path.write_text(json.dumps(payload))   # raw write

            def load(path):
                return json.loads(path.read_text())    # intolerant read
            """
        },
        scoped("RPL009", atomic_helpers=("_write_atomic",)),
    )
    assert sorted(codes(result)) == ["RPL009", "RPL009"]
    messages = " ".join(finding.message for finding in result.findings)
    assert "atomic-write helper" in messages
    assert "FileNotFoundError" in messages


def test_rpl009_interprocedural_fnf_guard_covers_the_read_helper(tmp_path):
    result = lint(
        tmp_path,
        {
            "store.py": """\
            import json
            import os

            def _write_atomic(path, payload):
                scratch = path.with_suffix(".tmp")
                scratch.write_text(json.dumps(payload))
                os.replace(scratch, path)

            def _read(path):
                return json.loads(path.read_text())

            def load(path):
                try:
                    return _read(path)
                except FileNotFoundError:
                    return None
            """
        },
        scoped("RPL009", atomic_helpers=("_write_atomic",)),
    )
    assert result.findings == ()


def test_rpl009_claim_must_use_link_or_rename(tmp_path):
    files = {
        "board.py": """\
        import json
        import os

        def _write_atomic(path, payload):
            scratch = path.with_suffix(".tmp")
            scratch.write_text(json.dumps(payload))
            os.replace(scratch, path)

        def try_claim(path, worker):
            _write_atomic(path, {"owner": worker})   # clobbering
        """
    }
    result = lint(
        tmp_path, dict(files), scoped("RPL009", atomic_helpers=("_write_atomic",))
    )
    assert codes(result) == ["RPL009"]
    assert "link-or-rename" in result.findings[0].message

    good = {
        "board.py": """\
        import os

        def try_claim(path, worker):
            os.link(path, path.with_suffix(f".{worker}"))
        """
    }
    assert lint(tmp_path, good, scoped("RPL009")).findings == ()


# -- RPL010: nonblocking engine core ------------------------------------


def test_rpl010_flags_sleep_and_bare_join_in_the_pump_closure(tmp_path):
    result = lint(
        tmp_path,
        {
            "engine.py": """\
            import time

            class Engine:
                def pump(self):
                    self._step()

                def _step(self):
                    time.sleep(0.01)
                    self.worker.join()

                def drain(self):
                    time.sleep(1.0)    # fine: not reachable from pump
            """
        },
        scoped("RPL010", entry_points=("Engine.pump",)),
    )
    assert sorted(codes(result)) == ["RPL010", "RPL010"]
    messages = " ".join(finding.message for finding in result.findings)
    assert "time.sleep" in messages and "join" in messages


def test_rpl010_spawn_edges_and_path_joins_do_not_count(tmp_path):
    result = lint(
        tmp_path,
        {
            "engine.py": """\
            import os
            import time

            class Engine:
                def pump(self, pool):
                    pool.submit(self._background)   # handing off is the point
                    return os.path.join("a", "b")   # not a thread join

                def _background(self):
                    time.sleep(0.5)                 # runs on the pool thread
            """
        },
        scoped("RPL010", entry_points=("Engine.pump",)),
    )
    assert result.findings == ()


# -- suppression attachment: spans --------------------------------------


def test_suppression_on_decorator_line_covers_the_decorated_def(tmp_path):
    result = lint(
        tmp_path,
        {
            "spec.py": """\
            from dataclasses import dataclass

            @dataclass  # reprolint: disable=RPL003 (fixture: mutability is the point)
            class Spec:
                tau: int

                def to_dict(self):
                    return {"tau": self.tau}

                @classmethod
                def from_dict(cls, data):
                    return cls(tau=data.get("tau"))
            """
        },
        scoped("RPL003"),
    )
    assert result.findings == ()


def test_suppression_on_any_line_of_a_multiline_statement_covers_it(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import numpy as np

            rng = np.random.default_rng(
            )  # reprolint: disable=RPL001 (fixture: entropy wanted here)
            """
        },
        scoped("RPL001"),
    )
    assert result.findings == ()


def test_suppression_on_def_line_does_not_silence_the_body(tmp_path):
    result = lint(
        tmp_path,
        {
            "core.py": """\
            import time

            def stamp():  # reprolint: disable=RPL001 (should not reach the body)
                return time.time()
            """
        },
        scoped("RPL001"),
    )
    assert "RPL001" in codes(result)  # the body finding survives
    assert META_CODE in codes(result)  # and the directive reports unused


# -- CLI: baseline mode -------------------------------------------------


def test_cli_baseline_records_then_suppresses_with_line_drift(tmp_path, capsys):
    # Plant the file under src/repro/ so the DEFAULT RPL001 scope applies.
    target = tmp_path / "src" / "repro" / "planted.py"
    target.parent.mkdir(parents=True)
    target.write_text("import random\n")
    baseline = tmp_path / "baseline.json"
    config_args = ["--root", str(tmp_path), str(target)]

    assert cli_main(config_args) == 1  # live finding without a baseline
    capsys.readouterr()
    assert cli_main(["--baseline", str(baseline), "--update-baseline", *config_args]) == 0
    recorded = json.loads(baseline.read_text())
    assert [entry["code"] for entry in recorded["findings"]] == ["RPL001"]
    capsys.readouterr()

    # Re-running against the recorded baseline is clean.
    assert cli_main(["--baseline", str(baseline), *config_args]) == 0
    captured = capsys.readouterr()
    assert "stale" not in captured.err

    # Line drift: shift the finding down two lines; the baseline
    # (path + code + message, no line) still matches.
    target.write_text("# moved\n# down\nimport random\n")
    assert cli_main(["--baseline", str(baseline), *config_args]) == 0
    capsys.readouterr()


def test_cli_baseline_reports_stale_entries(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "findings": [
                    {
                        "path": "gone.py",
                        "code": "RPL001",
                        "message": "this finding no longer exists",
                    }
                ]
            }
        )
    )
    target = tmp_path / "core.py"
    target.write_text("x = 1\n")
    code = cli_main(["--root", str(tmp_path), "--baseline", str(baseline), str(target)])
    captured = capsys.readouterr()
    assert code == 0
    assert "stale baseline entry" in captured.err
    assert "gone.py" in captured.err


def test_cli_update_baseline_requires_baseline_path(tmp_path):
    with pytest.raises(SystemExit):
        cli_main(["--update-baseline", str(tmp_path)])
