"""RPL009 — serving/job-store file protocol.

The durability model of the serving layer (see ``docs/guide/serving.md``)
rests on three idioms; this rule makes each one mechanical inside the
store/board modules:

1. **writes flow through the atomic helper** — a raw
   ``write_text``/``write_bytes``/``open(..., "w")``/``json.dump`` is
   only legal inside one of the designated atomic publishers (unique
   scratch + ``os.replace``); every other function must call the
   helper.  Append-mode opens are exempt (event logs are append-only).
2. **reads tolerate ``FileNotFoundError``** — a raw read must sit
   under a ``try`` catching FNF, be inside a designated tolerant
   reader, or (interprocedurally) be reached only through FNF-guarded
   call sites.
3. **claims use link-or-rename** — functions matching the configured
   claim patterns (``*claim*``/``*takeover*``) must reach an exclusive
   publisher (``_link_exclusive``, ``os.rename``/``os.link``), not a
   clobbering ``write_atomic``: two racers both "succeed" at
   ``os.replace``, only one wins a hard link or rename.

Options
-------
``atomic_helpers`` / ``tolerant_readers``
    Display-name patterns of the blessed publisher/reader functions.
``claim_functions`` / ``exclusive_publishers``
    Patterns for clause 3 (defaults above).
``model_include``
    File set the call graph is built over (default: the rule's
    include — widen it so out-of-file callers count as FNF guards).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterable

from reprolint.analysis import CallGraph, get_call_graph, reachable
from reprolint.checkers.base import RepoChecker, RepoContext, register
from reprolint.findings import Finding

_WRITE_TAILS = ("write_text", "write_bytes")
_READ_TAILS = ("read_text", "read_bytes")
_DEFAULT_CLAIMS = ("*claim", "*takeover*", "*take_over*")
_DEFAULT_EXCLUSIVE = ("*_link_exclusive", "os.rename", "os.link")


def _open_mode(call: ast.Call) -> str | None:
    """The mode argument of an ``open(...)`` call, when literal."""
    mode: ast.expr | None = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None


@register
class FsProtocolChecker(RepoChecker):
    """Flag raw writes, intolerant reads, and clobbering claims."""

    code = "RPL009"
    name = "fs-protocol"
    description = (
        "store/board files: writes via the atomic helper, reads tolerate "
        "FileNotFoundError, claims use link-or-rename"
    )

    def check_repo(self, ctx: RepoContext) -> Iterable[Finding]:
        graph = get_call_graph(
            ctx,
            include=tuple(ctx.options.get("model_include", ctx.include)),
            exclude=ctx.exclude,
        )
        atomic = tuple(ctx.options.get("atomic_helpers", ()))
        tolerant = tuple(ctx.options.get("tolerant_readers", ()))
        claims = tuple(ctx.options.get("claim_functions", _DEFAULT_CLAIMS))
        exclusive = tuple(
            ctx.options.get("exclusive_publishers", _DEFAULT_EXCLUSIVE)
        )

        for qualname in sorted(graph.project.functions):
            fn = graph.project.functions[qualname]
            if not ctx.in_report_scope(fn.path):
                continue
            facts = graph.facts.get(qualname)
            if facts is None:
                continue
            is_atomic = any(fnmatch(fn.display, p) for p in atomic)
            is_tolerant = any(fnmatch(fn.display, p) for p in tolerant)

            for call in facts.calls:
                tail = call.name.split(".")[-1]
                mode = _open_mode(call.node) if tail == "open" else None
                writes = tail in _WRITE_TAILS or tail == "dump" or (
                    mode is not None and any(c in mode for c in ("w", "x", "+"))
                )
                if tail == "dump" and call.name not in ("json.dump", "?.dump"):
                    writes = False
                reads = tail in _READ_TAILS or (
                    mode is not None and not writes and "r" in mode
                ) or (tail == "load" and call.name in ("json.load",))
                if writes and not is_atomic:
                    yield ctx.finding(
                        fn.path,
                        call.node,
                        self.code,
                        (
                            f"raw file write (`{call.name}`) in "
                            f"`{fn.display}` — durable state must be "
                            "published through the atomic-write helper"
                        ),
                        self.name,
                    )
                elif reads and not is_tolerant and "fnf" not in call.guards:
                    if self._callers_guard(graph, qualname):
                        continue
                    yield ctx.finding(
                        fn.path,
                        call.node,
                        self.code,
                        (
                            f"raw file read (`{call.name}`) in "
                            f"`{fn.display}` without FileNotFoundError "
                            "handling — a concurrent worker may remove or "
                            "replace the file at any time"
                        ),
                        self.name,
                    )

            if any(fnmatch(fn.display, p) for p in claims):
                if not self._reaches_exclusive(graph, qualname, exclusive):
                    yield ctx.finding(
                        fn.path,
                        fn.node,
                        self.code,
                        (
                            f"`{fn.display}` claims/takes over shared state "
                            "but never uses the link-or-rename idiom — a "
                            "clobbering write lets two racers both succeed"
                        ),
                        self.name,
                    )

    @staticmethod
    def _callers_guard(graph: CallGraph, qualname: str) -> bool:
        """Every project call into ``qualname`` is FNF-guarded."""
        incoming = graph.in_edges(qualname)
        return bool(incoming) and all(
            "fnf" in edge.guards for edge in incoming
        )

    def _reaches_exclusive(
        self, graph: CallGraph, qualname: str, patterns: tuple[str, ...]
    ) -> bool:
        closure = reachable(graph, [qualname])
        for reached_name in closure:
            facts = graph.facts.get(reached_name)
            if facts is None:
                continue
            for call in facts.calls:
                lowered = call.name.lower()
                if any(
                    fnmatch(lowered, pattern.lower()) for pattern in patterns
                ):
                    return True
        return False
