"""RPL006 — docstring-contract: the public surface documents itself.

The contract: every name exported (via ``__all__``) from the blessed
API modules carries a docstring with a runnable ``>>>`` example, and
every public method of those exported classes carries a docstring of
its own. It lives in reprolint so one tool owns all of the repository's
contracts.

This is a :class:`RepoChecker`: it imports the modules under contract
(the package must be importable, e.g. ``PYTHONPATH=src``) and anchors
findings at each object's definition line.
"""

from __future__ import annotations

import importlib
import inspect
from pathlib import Path
from typing import Any, Iterable, Iterator

from reprolint.checkers.base import RepoChecker, RepoContext, register
from reprolint.findings import Finding

CODE = "RPL006"

#: Modules whose exported names require example-bearing docstrings when
#: no ``modules`` option is configured.
DEFAULT_MODULES = (
    "repro.audit",
    "repro.service",
    "repro.crowd.backends",
    "repro.data.sharded",
    "repro.serving",
)

#: Shortest docstring that can plausibly document anything.
DEFAULT_MIN_DOC_LENGTH = 20


def _unwrap(member: Any) -> Any:
    """The underlying function of a method-like class attribute."""
    if isinstance(member, (classmethod, staticmethod)):
        return member.__func__
    if isinstance(member, property):
        return member.fget
    return member


def _location(ctx: RepoContext, obj: Any, fallback_module: Any) -> tuple[str, int]:
    """(root-relative path, line) of an object's definition."""
    for target in (obj, fallback_module):
        try:
            source_file = inspect.getsourcefile(target)
        except TypeError:
            source_file = None
        if source_file is None:
            continue
        try:
            path = Path(source_file).resolve().relative_to(ctx.root.resolve())
        except ValueError:
            continue
        line = 1
        if target is obj:
            try:
                _, line = inspect.getsourcelines(obj)
            except (OSError, TypeError):
                line = 1
        return path.as_posix(), line
    return "<unknown>", 1


@register
class DocstringContractChecker(RepoChecker):
    code = CODE
    name = "docstring-contract"
    description = (
        "every __all__ export of the blessed modules carries an "
        "example-bearing docstring; every public method a docstring"
    )

    def check_repo(self, ctx: RepoContext) -> Iterable[Finding]:
        modules = tuple(ctx.options.get("modules", DEFAULT_MODULES))
        min_length = int(ctx.options.get("min_doc_length", DEFAULT_MIN_DOC_LENGTH))
        for module_name in modules:
            yield from self._check_module(ctx, module_name, min_length)

    def _check_module(
        self, ctx: RepoContext, module_name: str, min_length: int
    ) -> Iterator[Finding]:
        try:
            module = importlib.import_module(module_name)
        except Exception as error:  # pragma: no cover - environment issue
            yield Finding(
                path="<unknown>",
                line=1,
                col=0,
                code=CODE,
                message=(
                    f"cannot import {module_name} to check its docstring "
                    f"contract ({error.__class__.__name__}: {error}); run "
                    "with the package on PYTHONPATH"
                ),
                checker=self.name,
            )
            return
        module_path, _ = _location(ctx, module, module)
        if not (module.__doc__ or "").strip():
            yield self._finding(module_path, 1, f"{module_name}: module has no docstring")
        exported = getattr(module, "__all__", None)
        if exported is None:
            yield self._finding(
                module_path, 1, f"{module_name}: module defines no __all__"
            )
            return
        for name in exported:
            obj = getattr(module, name, None)
            if obj is None:
                yield self._finding(
                    module_path, 1, f"{module_name}.{name}: exported but missing"
                )
                continue
            if not (inspect.isclass(obj) or inspect.isroutine(obj)):
                continue  # re-exported constants document themselves elsewhere
            path, line = _location(ctx, obj, module)
            doc = inspect.getdoc(obj) or ""
            if len(doc.strip()) < min_length:
                yield self._finding(
                    path, line, f"{module_name}.{name}: missing docstring"
                )
                continue
            if ">>>" not in doc:
                yield self._finding(
                    path, line, f"{module_name}.{name}: docstring has no '>>>' example"
                )
            if inspect.isclass(obj):
                yield from self._check_methods(
                    ctx, module_name, name, obj, min_length
                )

    def _check_methods(
        self,
        ctx: RepoContext,
        module_name: str,
        class_name: str,
        cls: type,
        min_length: int,
    ) -> Iterator[Finding]:
        for attr_name, raw in vars(cls).items():
            if attr_name.startswith("_"):
                continue
            member = _unwrap(raw)
            if not inspect.isroutine(member) and not isinstance(raw, property):
                continue
            doc = (getattr(member, "__doc__", None) or "").strip()
            if len(doc) < min_length:
                path, line = _location(ctx, member, cls)
                kind = "property" if isinstance(raw, property) else "method"
                yield self._finding(
                    path,
                    line,
                    f"{module_name}.{class_name}.{attr_name}: public "
                    f"{kind} missing docstring",
                )

    def _finding(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            path=path, line=line, col=0, code=CODE, message=message, checker=self.name
        )
