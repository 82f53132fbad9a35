"""AST-based codebase invariant linter.

Repo-wide invariants that no unit test states but every PR relies on,
checked by walking Python ASTs (no imports, no execution):

* ``ANA-RAND`` — no *unseeded* randomness outside test fixtures: the
  module-level ``random.*`` / ``numpy.random.*`` functions draw from
  hidden global state and break the repo's replay guarantees.  Seeded
  construction (``np.random.default_rng(seed)``, ``random.Random(seed)``,
  ``np.random.SeedSequence(...)``) is fine; the zero-argument forms are
  not;
* ``ANA-CLOCK`` — no wall-clock reads (``time.time``,
  ``time.perf_counter``, ``time.monotonic``, ``datetime.now``) inside
  ``runtime/simulator/``: the simulator owns its clock, and a wall-clock
  read there silently breaks bit-exact engine equality;
* ``ANA-PARSE`` — every source file parses.

Run via ``python -m repro.analyze --lint`` (or ``--all``); wired into
CI as a blocking step.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from pathlib import Path
from typing import Optional

from .findings import Report, Severity

__all__ = ["lint_repo", "lint_sources"]

#: Module-level ``random`` functions that use the hidden global RNG.
_RANDOM_GLOBAL_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate", "seed",
    "getrandbits", "normalvariate",
}

#: ``numpy.random`` module-level functions backed by the legacy global
#: state (plus ``seed`` itself).
_NP_RANDOM_GLOBAL_FNS = {
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "standard_normal",
    "seed",
}

#: Wall-clock reads forbidden inside the simulator.
_CLOCK_CALLS = {
    ("time", "time"), ("time", "perf_counter"), ("time", "monotonic"),
    ("time", "time_ns"), ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"),
}

#: Directories whose files may use unseeded randomness (fixtures).
_RAND_EXEMPT_PARTS = ("tests", "benchmarks", "examples", "conftest")


def _dotted(node: ast.AST) -> Optional[tuple[str, ...]]:
    """Flatten ``a.b.c`` into ("a", "b", "c"); None for other shapes."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


class _FileLint(ast.NodeVisitor):
    """Collects rule hits for one parsed source file."""

    def __init__(self, rel: str, in_simulator: bool, rand_exempt: bool):
        self.rel = rel
        self.in_simulator = in_simulator
        self.rand_exempt = rand_exempt
        self.hits: list[tuple[str, int, str, str]] = []

    def _hit(self, rule: str, lineno: int, message: str, hint: str) -> None:
        self.hits.append((rule, lineno, message, hint))

    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func)
        if dotted:
            self._check_call(dotted, node)
        self.generic_visit(node)

    def _check_call(self, dotted: tuple[str, ...], node: ast.Call) -> None:
        if not self.rand_exempt:
            # random.<global fn>(...)
            if len(dotted) == 2 and dotted[0] == "random" \
                    and dotted[1] in _RANDOM_GLOBAL_FNS:
                self._hit(
                    "ANA-RAND", node.lineno,
                    f"call to random.{dotted[1]} uses the unseeded global "
                    "RNG",
                    "construct random.Random(seed) and draw from it",
                )
            # random.Random() / np.random.default_rng() with no arguments
            if dotted[-1] in ("Random", "default_rng") \
                    and "random" in dotted and not node.args \
                    and not node.keywords:
                self._hit(
                    "ANA-RAND", node.lineno,
                    f"{'.'.join(dotted)}() without a seed draws entropy "
                    "from the OS",
                    "pass an explicit seed or SeedSequence",
                )
            # np.random.<legacy global fn>(...)
            if len(dotted) >= 3 and dotted[-2] == "random" \
                    and dotted[-1] in _NP_RANDOM_GLOBAL_FNS:
                self._hit(
                    "ANA-RAND", node.lineno,
                    f"call to {'.'.join(dotted)} uses numpy's legacy "
                    "global RNG state",
                    "use np.random.default_rng(seed)",
                )

        if self.in_simulator:
            tail = dotted[-2:] if len(dotted) >= 2 else dotted
            if tuple(tail) in _CLOCK_CALLS:
                self._hit(
                    "ANA-CLOCK", node.lineno,
                    f"wall-clock read {'.'.join(dotted)}() inside "
                    "runtime/simulator/",
                    "the simulator's time axis is the event clock; pass "
                    "times in explicitly",
                )


def _iter_sources(src_root: Path) -> Iterable[Path]:
    return sorted(src_root.rglob("*.py"))


def lint_sources(src_root: Path) -> Report:
    """Lint every Python file under ``src_root``."""
    rep = Report()
    src_root = Path(src_root)
    files = list(_iter_sources(src_root))
    rep.note_pass("lint", len(files))
    for path in files:
        rel = path.relative_to(src_root).as_posix()
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            rep.add("ANA-PARSE", Severity.ERROR,
                    f"cannot parse: {exc.msg}",
                    f"{rel}:{exc.lineno or 0}")
            continue
        in_sim = "runtime/simulator/" in rel
        exempt = any(part in _RAND_EXEMPT_PARTS for part in rel.split("/"))
        visitor = _FileLint(rel, in_sim, exempt)
        visitor.visit(tree)
        for rule, lineno, message, hint in visitor.hits:
            rep.add(rule, Severity.ERROR, message, f"{rel}:{lineno}", hint)
    return rep


def lint_repo(root: Path) -> Report:
    """Lint the ``src/`` tree of the repository at ``root``."""
    return lint_sources(Path(root) / "src")
