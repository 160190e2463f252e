"""RPL001 — determinism: audits must replay bit-identically.

Every source of nondeterminism the paper reproduction cares about is a
global the code must not touch: the :mod:`random` module (process-wide
state no checkpoint captures), numpy's legacy global rng
(``np.random.seed``/``np.random.random``/...), unseeded
``np.random.default_rng()``, and wall clocks (``time.time``,
``datetime.now``) whose readings leak into results. Randomness must
flow from a seeded :class:`numpy.random.Generator` threaded through
call signatures — the discipline PR 2's sessions and PR 4's per-job
seeds established.

Paths listed in the ``allow_wall_clock`` option may read clocks (the
serving layer's lease heartbeats are *supposed* to be wall-clock) but
stay bound by the rng rules.

Paths listed in the ``numpy_log_exp`` option must take logarithms and
exponentials from NumPy: ``math.exp``, ``math.log``, ``math.log1p`` and
``math.expm1`` differ from NumPy's in the last bit on some inputs, so a
scalar fast path through :mod:`math` would break bit-identity with the
array formulas it stands for (the reliability estimator's contract).
"""

from __future__ import annotations

import ast
from fnmatch import fnmatch
from typing import Iterable, Iterator

from reprolint.checkers.base import FileChecker, FileContext, dotted_name, register
from reprolint.findings import Finding

CODE = "RPL001"

#: Wall-clock reads (dotted call targets).
_WALL_CLOCK = {"time.time", "time.time_ns"}
#: Wall-clock constructors on datetime/date objects.
_WALL_CLOCK_TAILS = {"now", "utcnow", "today"}
#: np.random members that are fine to *call*: seeded-generator plumbing.
_NP_RANDOM_OK = {"default_rng", "Generator", "SeedSequence", "PCG64", "Philox"}
#: math functions whose results may differ from NumPy's in the last bit.
_MATH_LOG_EXP = {"exp", "log", "log1p", "expm1"}


@register
class DeterminismChecker(FileChecker):
    code = CODE
    name = "determinism"
    description = (
        "no random-module/global-numpy rng, unseeded default_rng, or "
        "wall clocks in core paths; rng flows from a threaded Generator"
    )

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        allow_clock = any(
            fnmatch(ctx.path, pattern)
            for pattern in ctx.options.get("allow_wall_clock", ())
        )
        numpy_log_exp = any(
            fnmatch(ctx.path, pattern)
            for pattern in ctx.options.get("numpy_log_exp", ())
        )
        for node in ast.walk(ctx.tree):
            yield from self._check_node(ctx, node, allow_clock)
            if numpy_log_exp:
                yield from self._check_math(ctx, node)

    def _check_math(self, ctx: FileContext, node: ast.AST) -> Iterator[Finding]:
        if isinstance(node, ast.ImportFrom) and node.module == "math":
            names = sorted(a.name for a in node.names if a.name in _MATH_LOG_EXP)
            if names:
                yield ctx.finding(
                    node,
                    CODE,
                    f"from-import of math.{', math.'.join(names)}: these differ "
                    "from NumPy's in the last bit on some inputs; use np.log "
                    "and np.exp",
                    self.name,
                )
        elif isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted is not None and dotted.startswith("math."):
                if dotted[len("math."):] in _MATH_LOG_EXP:
                    yield ctx.finding(
                        node,
                        CODE,
                        f"call to {dotted}(): it differs from NumPy's in the "
                        "last bit on some inputs, which breaks bit-identity "
                        "with the array formulas; use np.log and np.exp",
                        self.name,
                    )

    def _check_node(
        self, ctx: FileContext, node: ast.AST, allow_clock: bool
    ) -> Iterator[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    yield ctx.finding(
                        node,
                        CODE,
                        "import of the stdlib 'random' module: its global "
                        "state survives no checkpoint; thread a seeded "
                        "np.random.Generator instead",
                        self.name,
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "random":
                yield ctx.finding(
                    node,
                    CODE,
                    "from-import of the stdlib 'random' module: thread a "
                    "seeded np.random.Generator instead",
                    self.name,
                )
        elif isinstance(node, ast.Call):
            yield from self._check_call(ctx, node, allow_clock)

    def _check_call(
        self, ctx: FileContext, node: ast.Call, allow_clock: bool
    ) -> Iterator[Finding]:
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[0] == "random":
            yield ctx.finding(
                node,
                CODE,
                f"call to {dotted}(): stdlib random uses process-global "
                "state; use the threaded np.random.Generator",
                self.name,
            )
            return
        if not allow_clock:
            if dotted in _WALL_CLOCK or (
                parts[-1] in _WALL_CLOCK_TAILS
                and any(part in ("datetime", "date") for part in parts[:-1])
            ):
                yield ctx.finding(
                    node,
                    CODE,
                    f"wall-clock read {dotted}(): clock values leak "
                    "nondeterminism into results; take timestamps at the "
                    "edges and pass them in",
                    self.name,
                )
                return
        if len(parts) >= 2 and parts[-2] == "random" and parts[0] in ("np", "numpy"):
            tail = parts[-1]
            if tail == "default_rng" and not node.args and not node.keywords:
                yield ctx.finding(
                    node,
                    CODE,
                    "np.random.default_rng() without a seed: OS-entropy "
                    "seeding makes replay impossible; pass an explicit "
                    "seed or SeedSequence",
                    self.name,
                )
            elif tail not in _NP_RANDOM_OK:
                yield ctx.finding(
                    node,
                    CODE,
                    f"call to {dotted}(): numpy's legacy global rng is "
                    "process-wide state; use a seeded "
                    "np.random.Generator threaded through the call",
                    self.name,
                )
