"""Outside-in tracing: timing shims around the public calls into each layer.

Only the traced run installs them; the untraced run measures the program
untouched. Spans nest across threads (the gateway answers on its own
threads while the sequential client waits), so one stack serves the whole
process: a span's parent is whatever span was open when it started, and a
layer's self time is its spans' time minus the time of their children.
The stack takes no lock: in every workload exactly one thread runs traced
code at a time (the client is blocked in a socket read while a gateway
thread serves it).

Methods are replaced on their classes, never by subclassing:
``GroundTruthOracle`` picks its vectorized path by checking which class
defines its ``_answer_*`` hooks, so a traced subclass would silently take
the slow path.
"""

from __future__ import annotations

import time
from collections import defaultdict

from measure import percentile, read_wchar


class Tracer:
    """Span and counter store; :meth:`install` patches, :meth:`remove`
    restores."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        #: span name -> [calls, self seconds]
        self.spans: dict[str, list] = {}
        self.reset()

    def reset(self) -> None:
        for record in self.spans.values():
            record[:] = [0, 0.0]
        self.counts: dict[str, int] = defaultdict(int)
        self.gateway_seconds: list[float] = []
        self.engines: dict[int, object] = {}

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attribute: str, name: str, before=None, after=None) -> None:
        """Replace ``owner.attribute`` with a shim that records a span named
        ``name``; ``before(args, kwargs)`` runs ahead of the span and
        ``after(seconds, failed)`` after it."""
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        is_classmethod = isinstance(raw, classmethod)
        function = raw.__func__ if is_classmethod else raw
        record = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            frame = [0.0]  # seconds spent in child spans
            parent = stack[-1] if stack else None
            stack.append(frame)
            failed = True
            started = clock()
            try:
                result = function(*args, **kwargs)
                failed = False
                return result
            finally:
                elapsed = clock() - started
                if stack[-1] is frame:
                    stack.pop()
                else:  # closed out of order by another thread
                    del stack[next(i for i, f in enumerate(stack) if f is frame)]
                if parent is not None:
                    parent[0] += elapsed
                record[0] += 1
                record[1] += elapsed - frame[0]
                if after is not None:
                    after(elapsed, failed)

        setattr(owner, attribute, classmethod(shim) if is_classmethod else shim)
        self._patches.append((owner, attribute, raw))

    def _count(self, key: str, size=lambda args, kwargs: 1):
        def before(args, kwargs):
            self.counts[key] += size(args, kwargs)

        return before

    def install(self) -> None:
        """Patch every layer boundary the per-layer metrics read."""
        import repro.audit.runners as runners
        from repro.audit.session import AuditSession
        from repro.core.group_coverage import GroupCoverageStepper
        from repro.crowd.backends.base import CrowdBackend
        from repro.crowd.oracle import Oracle
        from repro.crowd.platform import CrowdPlatform
        from repro.data.membership import GroupMembershipIndex
        from repro.data.sharded import ShardedMembershipIndex
        from repro.engine.requests import IndexKey
        from repro.engine.scheduler import QueryEngine
        from repro.service import AuditService, DirectoryJobStore
        from repro.serving import JobBoard, ServingClient

        def gateway_done(elapsed, failed):
            self.gateway_seconds.append(elapsed)
            if failed:
                self.counts["gateway.rejected"] += 1

        for method in ("submit", "status", "result"):
            self._patch(ServingClient, method, "gateway", after=gateway_done)
        for method in (
            "submit", "job_ids", "read_submission", "read_state", "write_state",
            "cancel_requested", "lease_info", "try_claim", "heartbeat", "release",
        ):
            self._patch(JobBoard, method, "board")

        def store_bytes():
            mark = []

            def before(args, kwargs):
                self.counts["store.writes"] += 1
                mark.append(read_wchar())

            def after(elapsed, failed):
                self.counts["store.bytes"] += read_wchar() - mark.pop()

            return before, after

        self._patch(AuditService, "checkpoint", "store")
        for method in ("save_job", "save_answers"):
            before, after = store_bytes()
            self._patch(DirectoryJobStore, method, "store", before=before, after=after)
        self._patch(AuditService, "step", "service")
        for method in ("run", "run_many"):
            self._patch(AuditSession, method, "session")
        self._patch(GroupCoverageStepper, "pending", "core.pending")
        self._patch(GroupCoverageStepper, "feed", "core.feed")
        self._patch(runners, "execute_base_coverage", "core.base")

        def seen_engine(args, kwargs):
            self.engines[id(args[0])] = args[0]

        # run() and pump() both drive the scheduler round through _pump.
        self._patch(QueryEngine, "_pump", "engine.pump", before=seen_engine)
        self._patch(QueryEngine, "absorb", "engine.absorb")
        self._patch(IndexKey, "of", "engine.keys")

        def submitted(args, kwargs):
            self.counts["backend.submits"] += 1
            self.counts["backend.queries"] += len(args[1])

        self._patch(CrowdBackend, "submit", "backend", before=submitted)
        for method in ("gather", "next_done"):
            self._patch(CrowdBackend, method, "backend")
        self._patch(Oracle, "ask_set", "oracle", before=self._count("oracle.set"))
        self._patch(
            Oracle, "ask_set_batch", "oracle",
            before=self._count("oracle.set", lambda a, k: len(a[1])),
        )
        self._patch(Oracle, "ask_point", "oracle", before=self._count("oracle.point"))
        self._patch(
            Oracle, "ask_point_batch", "oracle",
            before=self._count("oracle.point", lambda a, k: len(a[1])),
        )
        self._patch(Oracle, "ask_point_membership", "oracle")
        for method in ("publish_set_query", "publish_point_query"):
            self._patch(CrowdPlatform, method, "crowd")
        for method in ("count", "any_match", "any_match_runs", "any_match_batch", "matches"):
            self._patch(GroupMembershipIndex, method, "index")
        for method in (
            "build_totals", "shard_totals", "count", "any_match", "any_match_runs",
            "any_match_batch", "matches", "value_rows",
        ):
            self._patch(ShardedMembershipIndex, method, "shard")

    def remove(self) -> None:
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    # -- per-layer metrics ------------------------------------------------
    def metrics(self, outcome, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of one traced round."""

        def per(numerator: float, denominator: float) -> float:
            return numerator / denominator if denominator else 0.0

        def calls(span: str) -> int:
            return self.spans[span][0]

        def ms(span: str) -> float:
            return 1e3 * self.spans[span][1]

        def us(span: str) -> float:
            return 1e6 * self.spans[span][1]

        c = self.counts
        stats = [engine.snapshot() for engine in self.engines.values()]
        hits = sum(s.cache_hits for s in stats)
        misses = sum(s.cache_misses for s in stats)
        deduped = sum(s.deduped_queries for s in stats)
        dispatched = sum(s.dispatched_queries for s in stats)
        gateway = self.gateway_seconds
        crowd_hits = outcome.counters.get("crowd.hits", 0)
        return {
            "gateway.requests": calls("gateway"),
            "gateway.request_p50_ms": 1e3 * percentile(gateway, 50) if gateway else 0.0,
            "gateway.request_p90_ms": 1e3 * percentile(gateway, 90) if gateway else 0.0,
            "gateway.rejected": c["gateway.rejected"],
            "board.calls": calls("board"),
            "board.self_ms": ms("board"),
            "store.writes": c["store.writes"],
            "store.self_ms": ms("store"),
            "store.bytes_per_answer": per(c["store.bytes"], outcome.tasks),
            "service.steps": calls("service"),
            "service.self_ms": ms("service"),
            "session.runs": calls("session"),
            "session.self_ms": ms("session"),
            "core.pending.calls": calls("core.pending"),
            "core.pending.self_us": us("core.pending"),
            "core.feed.calls": calls("core.feed"),
            "core.feed.self_us": us("core.feed"),
            "core.base.self_ms": ms("core.base"),
            "engine.pump.calls": calls("engine.pump"),
            "engine.pump.self_ms": ms("engine.pump"),
            "engine.absorb.self_ms": ms("engine.absorb"),
            "engine.cache_hit_rate": per(hits, hits + misses),
            "engine.dedup_share": per(deduped, deduped + dispatched + hits),
            "engine.keys.calls": calls("engine.keys"),
            "engine.keys.self_us": us("engine.keys"),
            "backend.submits": c["backend.submits"],
            "backend.queries_per_submit": per(c["backend.queries"], c["backend.submits"]),
            "backend.self_ms": ms("backend"),
            "oracle.set_queries": c["oracle.set"],
            "oracle.point_queries": c["oracle.point"],
            "oracle.self_us_per_query": per(us("oracle"), c["oracle.set"] + c["oracle.point"]),
            "crowd.hits": crowd_hits,
            "crowd.assignments": outcome.counters.get("crowd.assignments", 0),
            "crowd.self_us_per_hit": per(us("crowd"), crowd_hits),
            "crowd.quarantined": outcome.counters.get("crowd.quarantined", 0),
            "index.calls": calls("index"),
            "index.self_us_per_call": per(us("index"), calls("index")),
            "shard.calls": calls("shard"),
            "shard.self_ms": ms("shard"),
            "shard.loads": outcome.counters.get("shard.loads", 0),
            "shard.evictions": outcome.counters.get("shard.evictions", 0),
            "shard.peak_resident_mb": outcome.counters.get("shard.peak_resident_mb", 0),
            "trace.control_plane_share": 1.0
            - per(self.spans["index"][1] + self.spans["shard"][1], wall_s),
        }
