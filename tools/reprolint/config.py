"""Per-path rule scoping: which rules apply where, with what options.

Scoping is the difference between an invariant and a nuisance: wall
clocks are a determinism bug inside the audit core but the whole point
of lease heartbeats in the serving layer; version stamps belong on
checkpoint envelopes, not on every nested value object. ``DEFAULT``
below is the repository's reviewed policy; tests build narrow configs
of their own around fixture directories.

Patterns are :mod:`fnmatch`-style and match posix-form paths relative
to the scan root (``*`` crosses ``/``, so ``src/repro/serving/*``
covers the whole subtree).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from typing import Any, Mapping


@dataclass(frozen=True)
class RuleScope:
    """Where one rule applies and its checker-specific options."""

    code: str
    include: tuple[str, ...] = ("*",)
    exclude: tuple[str, ...] = ()
    options: Mapping[str, Any] = field(default_factory=dict)

    def applies_to(self, path: str) -> bool:
        """Whether ``path`` (posix, root-relative) is in this rule's scope."""
        if not any(fnmatch(path, pattern) for pattern in self.include):
            return False
        return not any(fnmatch(path, pattern) for pattern in self.exclude)


@dataclass(frozen=True)
class Config:
    """The full rule policy: one :class:`RuleScope` per enabled rule."""

    rules: tuple[RuleScope, ...]

    def scope(self, code: str) -> RuleScope | None:
        """The scope for ``code``, or ``None`` when the rule is disabled."""
        for rule in self.rules:
            if rule.code == code:
                return rule
        return None

    def codes_for(self, path: str) -> set[str]:
        """Every rule code whose scope covers ``path``."""
        return {rule.code for rule in self.rules if rule.applies_to(path)}


#: The repository policy. Rationale for every scoping decision lives in
#: ``docs/guide/invariants.md``; change both together.
DEFAULT = Config(
    rules=(
        # Determinism holds across the whole library; the serving layer
        # alone may read wall clocks (lease heartbeats, idle timeouts),
        # which is an *option* of the rule, not an exemption from its
        # rng discipline. The reliability estimator and the platform
        # that drives it promise results bit-identical to NumPy array
        # formulas, so they take log and exp from NumPy, never math.
        RuleScope(
            code="RPL001",
            include=("src/repro/*",),
            options={
                "allow_wall_clock": ("src/repro/serving/*",),
                "numpy_log_exp": (
                    "src/repro/crowd/reliability/*",
                    "src/repro/crowd/platform.py",
                ),
            },
        ),
        # Atomic writes: the durable-state layers. Benchmarks and
        # experiment scripts write throwaway artifacts and are out of
        # scope by design.
        RuleScope(
            code="RPL002",
            include=("src/repro/service/*", "src/repro/serving/*"),
        ),
        # Frozen serializable payload types with full codec coverage.
        RuleScope(
            code="RPL003",
            include=(
                "src/repro/audit/specs.py",
                "src/repro/serving/protocol.py",
                "src/repro/serving/config.py",
                "src/repro/service/jobs.py",
                "src/repro/crowd/reliability/serialization.py",
            ),
            options={
                # to_dict key differs from the field name: reviewed
                # wire-format aliases, not missing coverage.
                "field_aliases": {
                    "Submission": {"spec_dict": "spec", "digest": "spec_hash"},
                },
                # Import-time check: every spec dataclass must be
                # registered in the kind-dispatch codec table.
                "codec_tables": {
                    "src/repro/audit/specs.py": ("repro.audit.specs", "_SPEC_TYPES"),
                },
            },
        ),
        # Decoders on the public audit/service/serving surface convert
        # missing-field KeyError into InvalidParameterError subclasses.
        RuleScope(
            code="RPL004",
            include=(
                "src/repro/audit/*",
                "src/repro/service/*",
                "src/repro/serving/*",
                "src/repro/crowd/reliability/*",
            ),
            options={
                "decoder_names": (
                    "from_dict",
                    "from_json",
                    "from_payload",
                    "from_list",
                    "resume",
                    "*_from_dict",
                    "*_from_list",
                ),
            },
        ),
        # Version stamps on checkpoint/payload envelopes. Nested value
        # objects ride inside a versioned envelope and are exempt;
        # specs are kind-tagged and scoped out entirely.
        RuleScope(
            code="RPL005",
            include=(
                "src/repro/service/*",
                "src/repro/serving/*",
                "src/repro/audit/session.py",
                "src/repro/audit/report.py",
                "src/repro/crowd/reliability/serialization.py",
            ),
            options={
                "reader_names": ("from_dict", "from_json", "resume", "read_state"),
                "writer_names": ("to_dict",),
                "nested_payloads": ("AuditEntry", "JobEvent", "Lease"),
            },
        ),
        # Interprocedural rules (RPL007-010) report on the runtime
        # package; their call graph is built over all of src/repro so
        # cross-module edges (worker -> board, index -> dataset) exist
        # even when the reporting scope is narrower.
        #
        # Thread-shared mutation: anything reachable from an executor
        # submit / Thread target mutates attributes only under a lock.
        RuleScope(
            code="RPL007",
            include=("src/repro/*",),
            exclude=("src/repro/experiments/*",),
            options={
                "model_include": ("src/repro/*",),
                # Per-connection HTTP handlers run on their own thread
                # without a visible spawn site in the project.
                "thread_roots": (
                    "_GatewayHandler.do_GET",
                    "_GatewayHandler.do_POST",
                ),
                # One handler instance per connection thread: its own
                # attributes are thread-local by construction.
                "instance_per_thread": ("_GatewayHandler",),
                # QueryEngine is single-threaded by contract (workers
                # own one engine per process; RPL010 enforces its
                # non-blocking half) — the thread cone stops at the
                # layers that actually share state across threads.
                "follow": (
                    "src/repro/crowd/*",
                    "src/repro/data/*",
                    "src/repro/serving/*",
                    "src/repro/service/*",
                    "src/repro/audit/*",
                ),
            },
        ),
        # Rng-stream discipline: the audit paths must thread the one
        # entry-point generator; no mid-path minting, seeded or not.
        RuleScope(
            code="RPL008",
            include=("src/repro/*",),
            exclude=("src/repro/experiments/*",),
            options={
                "model_include": ("src/repro/*",),
                "entry_points": (
                    "AuditSession.run",
                    "AuditSession.resume",
                    "AuditService.step",
                    "AuditService.drain",
                    "QueryEngine.pump",
                    "QueryEngine.absorb",
                    "QueryEngine.run",
                    "repro.serving.worker:run_worker",
                ),
                # Reviewed mints: entry points derive the stream from an
                # explicit seed (session/service activation, the
                # worker's submission-digest seed, content-digest image
                # synthesis). Constructors are always allowed.
                "rng_factories": (
                    "AuditSession.resume",
                    "AuditService.resume",
                    # Checkpoint restore rebuilds the crowd platform's
                    # stream from the durable bit-generator state the
                    # snapshot carries, so resumed runs replay the
                    # worker-answer sequence bit-identically.
                    "ReliabilitySnapshot.restore",
                    # The per-job execution boundary: the stream is
                    # re-minted from the job's durable seed, so a
                    # re-leased or resumed job replays identically.
                    "AuditService._start",
                    "_run_leased_job",
                    "synthesize_image",
                    "image_for_row",
                ),
            },
        ),
        # Serving/job-store file protocol: atomic publication, tolerant
        # reads, link-or-rename claims.
        RuleScope(
            code="RPL009",
            include=(
                "src/repro/serving/board.py",
                "src/repro/serving/config.py",
                "src/repro/service/store.py",
            ),
            options={
                "model_include": ("src/repro/*",),
                "atomic_helpers": ("write_atomic", "_link_exclusive"),
                "tolerant_readers": ("_read_json",),
            },
        ),
        # Non-blocking engine core: pump/absorb never wait.
        RuleScope(
            code="RPL010",
            include=("src/repro/*",),
            exclude=("src/repro/experiments/*",),
            options={
                "model_include": ("src/repro/*",),
                "entry_points": ("QueryEngine.pump", "QueryEngine.absorb"),
                # Keep the name-match over-approximation inside the
                # engine's actual dependency cone; the serving client's
                # sockets are not on this path.
                "follow": (
                    "src/repro/engine/*",
                    "src/repro/crowd/*",
                    "src/repro/data/*",
                    "src/repro/audit/*",
                    "src/repro/core/*",
                    "src/repro/patterns/*",
                ),
            },
        ),
        # The docstring contract.
        RuleScope(
            code="RPL006",
            include=("src/repro/*",),
            options={
                "modules": (
                    "repro.audit",
                    "repro.service",
                    "repro.crowd.backends",
                    "repro.crowd.reliability",
                    "repro.data.kernels",
                    "repro.data.sharded",
                    "repro.serving",
                ),
                "min_doc_length": 20,
            },
        ),
    ),
)
