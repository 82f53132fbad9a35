"""``FLOW-BLOCK``: blocking calls reachable on the event loop.

One rule over the repository's own source, built on ``ast`` alone (no
imports, no execution): blocking I/O (``os.fsync``, ``time.sleep``,
``subprocess.*``, ``open``, result-store writes) or
``pool.submit(...).result()`` called inside an ``async def`` — directly
or through a chain of same-module synchronous helpers.  This is the
defect class the sweep service's dedicated I/O executor exists to
prevent, and the defect PR 7 shipped: one fsync on the event loop
stalls every in-flight job.

The pass walks the ``Call`` nodes of each ``async def`` (nested defs and
lambdas are values, not calls) and consults a per-module summary of
which synchronous functions block, closed under same-module calls.

Run via ``python -m repro.analyze --lint`` (or ``--all``); wired into
CI as a blocking step.
"""

from __future__ import annotations

import ast
from typing import Optional, Union

from .findings import Report
from .lint import _dotted

__all__ = ["flow_module"]

_AnyFunc = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: Calls that block the calling thread (dotted suffix match).
_BLOCKING_CALLS: set[tuple[str, ...]] = {
    ("os", "fsync"), ("os", "replace"), ("os", "rename"),
    ("time", "sleep"),
    ("subprocess", "run"), ("subprocess", "call"),
    ("subprocess", "check_call"), ("subprocess", "check_output"),
    ("subprocess", "Popen"),
    ("socket", "create_connection"),
}

#: Bare builtins that block (file open hits the disk).
_BLOCKING_BARE = {"open"}

#: Write/flush methods of the result store: calling them inline in a
#: coroutine re-introduces the fsync-on-the-event-loop defect.
_STORE_METHODS = {"put", "put_structure", "sync", "compact"}


class _FnInfo:
    __slots__ = ("qual", "calls", "cls", "is_async", "blocking")

    def __init__(self, qual: str, node: _AnyFunc, cls: Optional[str]) -> None:
        self.qual = qual
        self.calls = _calls(node)
        self.cls = cls
        self.is_async = isinstance(node, ast.AsyncFunctionDef)
        #: Human description of a blocking call reachable from this
        #: function (sync functions only), or None.
        self.blocking: Optional[str] = None


class _ModuleCtx:
    """Symbol tables + blocking-call summaries of one module."""

    def __init__(self, tree: ast.Module) -> None:
        self.functions: list[_FnInfo] = []
        self.by_bare: dict[str, list[_FnInfo]] = {}
        self.by_method: dict[tuple[str, str], _FnInfo] = {}
        self._collect(tree, None, "")
        self._blocking_fixpoint()

    def _collect(self, node: ast.AST, cls: Optional[str], prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                info = _FnInfo(qual, child, cls)
                self.functions.append(info)
                self.by_bare.setdefault(child.name, []).append(info)
                if cls is not None:
                    self.by_method[(cls, child.name)] = info
                self._collect(child, cls, f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                self._collect(child, child.name, f"{child.name}.")

    def resolve_call(self, fn: _FnInfo, func: ast.AST) -> Optional[_FnInfo]:
        """Resolve a called expression to a same-module function."""
        d = _dotted(func)
        if d is None:
            return None
        if len(d) == 1:
            cands = self.by_bare.get(d[0], [])
            return cands[0] if len(cands) == 1 else None
        if len(d) == 2 and d[0] == "self" and fn.cls is not None:
            return self.by_method.get((fn.cls, d[1]))
        return None

    def why_blocks(self, fn: _FnInfo, call: ast.Call) -> Optional[str]:
        """Why ``call`` (made from ``fn``) blocks the thread, or None: a
        blocking primitive, or a sync helper whose summary blocks."""
        desc = _blocking_call(call)
        if desc is None:
            callee = self.resolve_call(fn, call.func)
            if callee is not None and not callee.is_async \
                    and callee.blocking is not None:
                desc = f"{callee.blocking} via {callee.qual}()"
        return desc

    def _blocking_fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for fn in self.functions:
                if fn.is_async or fn.blocking is not None:
                    continue
                for call in fn.calls:
                    fn.blocking = self.why_blocks(fn, call)
                    if fn.blocking is not None:
                        changed = True
                        break


def _calls(fn: _AnyFunc) -> list[ast.Call]:
    """The calls a function body makes, in source order, without
    descending into nested defs (analysed as functions of their own) or
    lambdas (values, not calls)."""
    out: list[ast.Call] = []
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    out.sort(key=lambda c: (c.lineno, c.col_offset))
    return out


def _blocking_call(call: ast.Call) -> Optional[str]:
    """Classify one call as blocking the current thread, or None."""
    d = _dotted(call.func)
    if d is not None:
        if d[-1] == "shutdown":
            return None  # lifecycle teardown, exempt by design
        for pat in _BLOCKING_CALLS:
            if d[-len(pat):] == pat:
                return ".".join(pat)
        if len(d) == 1 and d[0] in _BLOCKING_BARE:
            return d[0]
        if len(d) >= 2 and d[-2] == "store" and d[-1] in _STORE_METHODS:
            return f"store.{d[-1]}"
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr == "result" \
            and isinstance(func.value, ast.Call):
        inner = _dotted(func.value.func)
        if inner and inner[-1] in ("submit", "run_in_executor"):
            return f"{inner[-1]}(...).result"
    return None


def flow_module(text: str, rel: str, rep: Optional[Report] = None) -> Report:
    """Run the FLOW-BLOCK pass over one module's source text."""
    rep = rep if rep is not None else Report()
    try:
        tree = ast.parse(text)
    except SyntaxError as exc:
        rep.add("ANA-PARSE", "error", f"file does not parse: {exc.msg}",
                location=f"{rel}:{exc.lineno or 0}",
                hint="fix the syntax error")
        return rep
    ctx = _ModuleCtx(tree)
    for fn in ctx.functions:
        if not fn.is_async:
            continue
        reported: set[int] = set()
        for call in fn.calls:
            desc = ctx.why_blocks(fn, call)
            if desc is None or call.lineno in reported:
                continue
            reported.add(call.lineno)
            rep.add(
                "FLOW-BLOCK", "error",
                f"blocking call ({desc}) on the event loop in "
                f"async {fn.qual}()",
                location=f"{rel}:{call.lineno}",
                hint="move it behind loop.run_in_executor / a dedicated "
                     "I/O executor",
            )
    return rep
