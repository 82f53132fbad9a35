"""``python -m repro.analyze`` — the static-analysis CLI.

Modes (combinable; ``--all`` turns everything on):

* ``--graphs`` — compile every shipped graph builder (Cholesky, LU,
  POSV, POTRI × SBC / 2DBC / 2.5D / remap variants) and run the full
  schedule verifier on each, including SBC symmetry and the Theorem 1
  volume bound where the distribution is an SBC;
* ``--lint`` — AST invariant rules, plus FLOW-BLOCK (blocking calls on
  the event loop), over ``src/``;
* ``--mc`` — every scheduler policy's plan is checked on the
  small-scope graph matrix and its ready queue driven through every
  short push / pop sequence the engines could issue (MC-*);
* ``--races [TRACE [TRACE2]]`` — with no path, run a seeded traced
  simulation and race-check it (plus a replay determinism check); with
  one JSONL trace, race-check it against the graph named by
  ``--trace-graph``; with two traces, diff them for determinism;
* ``--self-test`` — the seeded mutation harness: every injected defect
  class must be detected (the no-false-negative gate).

``--report PATH`` writes the machine-readable findings document that CI
publishes as an artifact.  Exit status is 0 iff no error-severity
finding was produced (``--strict`` also fails on warnings).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Optional

from ..distributions.block_cyclic import BlockCyclic2D
from ..distributions.row_cyclic import RowCyclic1D
from ..distributions.sbc import SymmetricBlockCyclic
from ..distributions.twod5 import TwoDotFiveD
from ..graph import OPERATIONS
from ..graph.compiled import CompiledGraph, compile_graph
from ..graph.task import TaskGraph
from ..obs.events import Recorder
from ..obs.export import read_jsonl
from ..runtime.simulator.engine import simulate
from .findings import Report, Severity
from .flow import flow_module
from .lint import lint_sources
from .mc import check_policies
from .mutate import Baseline, build_baseline, self_test
from .races import compare_traces, detect_races
from .schedule import verify_all


def _matrix() -> list[tuple[str, str, tuple[Any, ...], int]]:
    """Every shipped operation × the layouts it supports, as rows of
    ``(name, operation in repro.graph.OPERATIONS, layouts, N)``.

    Sizes are chosen so the whole matrix verifies in seconds while still
    exercising multiple pattern periods (N > r) and every task kind.  A
    ``-direct`` row verifies the column sink's arrays, which keep no
    DataKey table, so the owner-computes check against the distribution
    is left to the row's lowered twin.
    """
    N, Ninv = 8, 6
    sbc, sbc_basic = SymmetricBlockCyclic(4), SymmetricBlockCyclic(4, "basic")
    bc, rhs = BlockCyclic2D(2, 4), RowCyclic1D(6)
    d25 = TwoDotFiveD(BlockCyclic2D(2, 2), 2)
    return [
        ("cholesky/sbc4-ext", "cholesky", (sbc,), N),
        ("cholesky/sbc4-basic", "cholesky", (sbc_basic,), N),
        ("cholesky/2dbc-2x4", "cholesky", (bc,), N),
        ("cholesky/sbc4-ext-direct", "cholesky", (sbc,), N),
        ("cholesky/2.5d-c2", "cholesky", (d25,), N),
        ("lu/2dbc-2x4", "lu", (bc,), N),
        ("lu/sbc4-ext", "lu", (sbc,), N),
        ("lu/2dbc-2x4-direct", "lu", (bc,), N),
        ("lu/2.5d-c2", "lu", (d25,), N),
        ("posv/sbc4-ext", "posv", (sbc, rhs), N),
        ("posv/2dbc-2x4", "posv", (bc, rhs), N),
        ("posv/sbc4-ext-direct", "posv", (sbc, rhs), N),
        ("potri/sbc4-ext", "potri", (sbc,), Ninv),
        ("potri/2dbc-2x4", "potri", (bc,), Ninv),
        ("potri/sbc4-remap-2dbc", "potri", (sbc, bc), Ninv),
        ("potri/sbc4-remap-2dbc-direct", "potri", (sbc, bc), Ninv),
    ]


def run_graphs(quiet: bool = False) -> Report:
    """Verify the full builder matrix."""
    b = 32
    rep = Report()
    for name, op, layouts, n in _matrix():
        build, direct = OPERATIONS[op]
        cg = (direct(n, b, *layouts) if name.endswith("-direct")
              else compile_graph(build(n, b, *layouts)))
        # 2.5D runs tasks on slice copies: no single owner per tile, so
        # the distribution-level rules do not apply (dist=None).  A graph
        # spanning several layouts may use the nodes of any of them.
        dist = None if isinstance(layouts[0], TwoDotFiveD) else layouts[0]
        one = verify_all(cg, dist=dist, name=name, N=n,
                         num_nodes=max(d.num_nodes for d in layouts))
        if not quiet:
            state = "ok" if one.ok() else "FAIL"
            print(f"  {state:4s} {name:28s} "
                  f"({cg.n_tasks} tasks, {cg.n_data} versions)")
        rep.extend(one)
    return rep


def run_traced_races(quiet: bool = False,
                     base: Optional[Baseline] = None) -> Report:
    """Simulate the baseline with tracing on; race- and replay-check it."""
    base = base if base is not None else build_baseline()
    rep = detect_races(base.recorder, base.cg, name="simulated")
    rerun = Recorder(source="simulator")
    simulate(base.graph, base.machine, trace=True, recorder=rerun)
    rep.extend(compare_traces(base.recorder, rerun, name="simulated"))
    if not quiet:
        state = "ok" if rep.ok() else "FAIL"
        print(f"  {state:4s} simulated trace "
              f"({len(base.recorder.task_events)} tasks, "
              f"{len(base.recorder.transfer_events)} transfers)")
    return rep


def _trace_graph(spec: str) -> tuple[CompiledGraph, TaskGraph]:
    """Build the graph a standalone trace file is checked against.

    ``spec`` is ``builder:N:b:r`` with builder an operation of
    ``repro.graph.OPERATIONS`` under SBC(r) (POSV's right-hand side
    row-cyclic over the same nodes, the paper's setup); the trace must
    come from a run of exactly that graph.
    """
    parts = spec.split(":")
    builder = parts[0]
    n = int(parts[1]) if len(parts) > 1 else 8
    b = int(parts[2]) if len(parts) > 2 else 32
    r = int(parts[3]) if len(parts) > 3 else 4
    if builder not in OPERATIONS:
        raise SystemExit(f"unknown --trace-graph builder {builder!r} "
                         f"(expected one of {', '.join(OPERATIONS)})")
    dist = SymmetricBlockCyclic(r)
    rhs = (RowCyclic1D(dist.num_nodes),) if builder == "posv" else ()
    g = OPERATIONS[builder][0](n, b, dist, *rhs)
    return compile_graph(g), g


def run_races(paths: list[str], spec: str, quiet: bool = False,
              base: Optional[Baseline] = None) -> Report:
    if not paths:
        return run_traced_races(quiet=quiet, base=base)
    if len(paths) == 1:
        cg, _ = _trace_graph(spec)
        rec = read_jsonl(paths[0])
        return detect_races(rec, cg, name=Path(paths[0]).name)
    if len(paths) == 2:
        a, b = (read_jsonl(p) for p in paths)
        return compare_traces(
            a, b, name="traces",
            label_a=Path(paths[0]).name, label_b=Path(paths[1]).name)
    raise SystemExit("--races takes at most two trace files")


def run_lint(root: Path, quiet: bool = False) -> Report:
    """The ANA-* invariants, then FLOW-BLOCK on every file under src/."""
    src = root / "src"
    rep = lint_sources(src)
    files = sorted(src.rglob("*.py"))
    for path in files:
        flow_module(path.read_text(encoding="utf-8"),
                    path.relative_to(src).as_posix(), rep)
    rep.note_pass("flow", len(files))
    if not quiet:
        state = "ok" if rep.ok() else "FAIL"
        print(f"  {state:4s} lint ({rep.passes.get('lint', 0)} files)")
    return rep


def run_mc(quiet: bool = False) -> Report:
    """Model-check every registered policy on the small-scope matrix."""
    results, rep = check_policies()
    if not quiet:
        for name in sorted(results):
            cases = results[name]
            state = "ok" if all(r.ok() for r in cases) else "FAIL"
            states = sum(r.states for r in cases)
            print(f"  {state:4s} {name:26s} "
                  f"({len(cases)} cases, {states} states)")
    return rep


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.analyze",
        description="Schedule verifier, trace race detector, scheduler "
                    "model checker, and codebase invariant linter.",
    )
    ap.add_argument("--all", action="store_true",
                    help="run every pass (graphs, lint, mc, races, "
                         "self-test)")
    ap.add_argument("--graphs", action="store_true",
                    help="verify every shipped graph builder")
    ap.add_argument("--lint", action="store_true",
                    help="AST invariant rules plus FLOW-BLOCK over src/")
    ap.add_argument("--mc", action="store_true",
                    help="model-check every scheduler policy (MC-*)")
    ap.add_argument("--races", nargs="*", metavar="TRACE", default=None,
                    help="race-check a trace (none: simulate one; one: "
                         "JSONL vs --trace-graph; two: determinism diff)")
    ap.add_argument("--trace-graph", default="cholesky:8:32:4",
                    metavar="BUILDER:N:B:R",
                    help="graph a standalone trace is checked against "
                         "(default %(default)s)")
    ap.add_argument("--self-test", action="store_true",
                    help="mutation harness: injected defects must be caught")
    ap.add_argument("--seed", type=int, default=0,
                    help="mutation-harness seed (default %(default)s)")
    ap.add_argument("--report", metavar="PATH",
                    help="write the JSON findings document here")
    ap.add_argument("--root", default=".",
                    help="repository root for --lint (default: cwd)")
    ap.add_argument("--strict", action="store_true",
                    help="exit nonzero on warnings too")
    ap.add_argument("-q", "--quiet", action="store_true",
                    help="suppress per-subject progress lines")
    args = ap.parse_args(argv)

    do_graphs = args.all or args.graphs
    do_lint = args.all or args.lint
    do_mc = args.all or args.mc
    do_races = args.all or args.races is not None
    do_selftest = args.all or args.self_test
    if not (do_graphs or do_lint or do_mc or do_races or do_selftest):
        ap.print_help()
        return 2

    rep = Report()
    # --races (traced mode) and --self-test both start from the seeded
    # baseline simulation; under --all build it once and share it.
    base: Optional[Baseline] = None
    if do_selftest and do_races and not args.races:
        base = build_baseline()
    if do_graphs:
        if not args.quiet:
            print("[schedule] verifying graph builders")
        rep.extend(run_graphs(quiet=args.quiet))
    if do_mc:
        if not args.quiet:
            print("[mc] model-checking scheduler policies")
        rep.extend(run_mc(quiet=args.quiet))
    if do_races:
        if not args.quiet:
            print("[races] availability analysis")
        rep.extend(run_races(args.races or [], args.trace_graph,
                             quiet=args.quiet, base=base))
    if do_lint:
        if not args.quiet:
            print("[lint] codebase invariants")
        rep.extend(run_lint(Path(args.root), quiet=args.quiet))
    if do_selftest:
        if not args.quiet:
            print("[self-test] mutation harness")
        rep.extend(self_test(seed=args.seed, verbose=not args.quiet,
                             base=base))

    if args.report:
        rep.write(args.report)
        if not args.quiet:
            print(f"findings report written to {args.report}")
    interesting = [f for f in rep
                   if f.severity != Severity.INFO or not rep.ok()]
    if interesting or not args.quiet:
        print(rep.render())
    return rep.exit_code(strict=args.strict)


if __name__ == "__main__":
    sys.exit(main())
