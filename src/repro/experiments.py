"""The paper's figures, each defined once, and a small CLI over them.

A figure is a table: labelled layouts (a distribution plus the run
options that set it apart) crossed with matrix sizes, i.e. ``label ->
JobSpecs`` (:func:`table`).  :func:`run` submits a table through a
:class:`repro.service.SweepClient` and regroups the reports under the
same labels, so a point is simulated once per store however many figures
show it (Figure 12 is Figure 10 read in seconds).  The bench suite
(``benchmarks/``) imports these tables and asserts the paper's claims on
them; this module returns the same data as plain functions and prints it:

    python -m repro.experiments list
    python -m repro.experiments fig9 --sizes 30 60 --store ~/.cache/repro
    python -m repro.experiments theorem1 --ntiles 240
    python -m repro.experiments trace --r 8 --ntiles 40 --trace-path run.json
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Iterable, Mapping, Sequence

from .api import simulate_cholesky
from .comm import (
    bc2d_cholesky_volume,
    cholesky_message_count,
    cholesky_volume_exact,
    sbc_cholesky_volume,
)
from .config import bora
from .distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD, best_rectangle
from .graph import compile_cholesky
from .obs.timeline import critical_path_breakdown
from .runtime.simulator import simulate_compiled
from .service import JobSpec, SweepClient

__all__ = [
    "TABLE1", "FIG8", "FIG9", "FIG10", "FIG11", "FIG12", "THEOREM1",
    "potrf", "table", "run", "run_panels",
    "fig8_volumes", "fig9_performance", "theorem1_table", "strong_scaling",
    "spine_breakdown", "main",
]

B_DEFAULT = 500

#: Table I: SBC parameter r -> the two fairest 2DBC grids for P = r(r-1)/2.
TABLE1 = {6: ((5, 3), (4, 4)), 7: ((5, 4), (7, 3)),
          8: ((7, 4), (6, 5)), 9: ((7, 5), (6, 6))}
#: Figure 8: the P = 20 / 21 layouts whose POTRF volume the paper measures.
FIG8 = {"SBC r=7": SymmetricBlockCyclic(7),
        "2DBC 5x4": BlockCyclic2D(5, 4), "2DBC 7x3": BlockCyclic2D(7, 3)}
#: Figure 9: label -> (layout, run options) at P ~ 28.  The COnfCHOX
#: baseline is modelled: a synchronized block-cyclic run on its P = 32.
FIG9 = {
    "2D SBC r=8": (SymmetricBlockCyclic(8), {}),
    "2DBC 7x4": (BlockCyclic2D(7, 4), {}),
    "2DBC 6x5": (BlockCyclic2D(6, 5), {}),
    "2.5D SBC c=3": (TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 3), {}),
    "2.5D BC c=3": (TwoDotFiveD(BlockCyclic2D(3, 3), 3), {}),
    "COnfCHOX-like": (BlockCyclic2D(8, 4), {"synchronized": True}),
}
#: Figure 10 panels: r -> SBC(r), then Table I's two 2DBC competitors.
FIG10 = {r: {d.name: (d, {}) for d in (
    SymmetricBlockCyclic(r), *(BlockCyclic2D(p, q) for p, q in grids))}
    for r, grids in TABLE1.items()}
#: Figure 12 is Figure 10 read in seconds: SBC and the 2DBC grid on the same P.
FIG12 = {r: {name: (d, o) for name, (d, o) in panel.items()
             if d.num_nodes == SymmetricBlockCyclic(r).num_nodes}
         for r, panel in FIG10.items()}
#: Figure 11: the eight layouts of the strong-scaling sweep, P = 15..36.
FIG11 = {d.name: (d, {}) for d in [SymmetricBlockCyclic(r) for r in TABLE1] + [
    BlockCyclic2D(p, q) for p, q in ((4, 4), (5, 4), (7, 4), (6, 6))]}
#: Theorem 1: extended and basic SBC against the 2DBC closed form.
THEOREM1 = ([SymmetricBlockCyclic(r) for r in TABLE1]
            + [SymmetricBlockCyclic(r, variant="basic") for r in (6, 8)]
            + [BlockCyclic2D(p, q) for p, q in ((5, 4), (7, 4), (6, 6))])


def potrf(dist, ntiles: int, b: int = B_DEFAULT, machine=None, **options) -> JobSpec:
    """One POTRF point: ``dist`` on ``bora(P)`` unless a machine is given."""
    return JobSpec.make("cholesky", ntiles, b, dist,
                        machine or bora(dist.num_nodes), **options)


def table(layouts: Mapping, sizes: Sequence[int], b: int = B_DEFAULT) -> dict:
    """``label -> (dist, options)`` x tile counts: ``label -> [JobSpec]``."""
    return {label: [potrf(dist, N, b, **options) for N in sizes]
            for label, (dist, options) in layouts.items()}


def run(client: SweepClient, specs: Mapping) -> dict:
    """Submit a ``label -> [JobSpec]`` table as one sweep; ``label -> [SimReport]``."""
    results = iter(client.sweep([s for row in specs.values() for s in row]))
    return {label: [next(results).raise_for_status().report for _ in row]
            for label, row in specs.items()}


def run_panels(client: SweepClient, panels: Mapping, sizes: Sequence[int],
               b: int = B_DEFAULT) -> dict:
    """:data:`FIG10` / :data:`FIG12`: ``r -> {layout name: [SimReport per size]}``."""
    return {r: run(client, table(panel, sizes, b)) for r, panel in panels.items()}


def fig8_volumes(
    sizes: Sequence[int] = (25, 50, 100, 200, 400, 600), b: int = B_DEFAULT
) -> dict[str, list[float]]:
    """Figure 8 series: exact POTRF volume (GB) per tile count."""
    return {name: [cholesky_volume_exact(d, N, b) / 1e9 for N in sizes]
            for name, d in FIG8.items()}


def fig9_performance(sizes: Sequence[int] = (30, 60, 100), b: int = B_DEFAULT,
                     store=None) -> dict[str, list[float]]:
    """Figure 9 series: simulated GFlop/s per node for the P~28 configs.

    Re-runs against the same ``store`` (a path, a ``ResultStore``, or
    None for ``$REPRO_SWEEP_STORE`` / a temp directory that lives for
    this call) are pure cache hits — 0 simulations.
    """
    with SweepClient(store=store) as client:
        reports = run(client, table(FIG9, sizes, b))
    return {name: [rep.gflops_per_node for rep in reps] for name, reps in reports.items()}


def theorem1_table(ntiles: int = 240) -> list[tuple[str, int, int, float]]:
    """(name, counted, formula, ratio) rows, one per :data:`THEOREM1` layout."""
    rows = []
    for d in THEOREM1:
        counted = cholesky_message_count(d, ntiles)
        formula = (bc2d_cholesky_volume(ntiles, d.p, d.q) if isinstance(d, BlockCyclic2D)
                   else sbc_cholesky_volume(ntiles, d.r, variant=d.variant))
        rows.append((d.name, counted, int(formula), counted / formula))
    return rows


def strong_scaling(ntiles: int = 72, b: int = B_DEFAULT,
                   store=None) -> list[tuple[str, int, float]]:
    """Figure 11 rows: (config, P, GFlop/s per node) at fixed matrix size;
    ``store`` as for :func:`fig9_performance`."""
    with SweepClient(store=store) as client:
        reports = run(client, table(FIG11, [ntiles], b))
    return [(name, rep.num_nodes, rep.gflops_per_node) for name, (rep,) in reports.items()]


def spine_breakdown(r: int = 8, ntiles: int = 60, b: int = B_DEFAULT):
    """Realized-critical-path breakdown for SBC vs the matched 2DBC."""
    sbc = SymmetricBlockCyclic(r)
    bc = best_rectangle(sbc.num_nodes)
    out = {}
    for d in (sbc, bc):
        cg = compile_cholesky(ntiles, b, d)
        rep = simulate_compiled(cg, bora(d.num_nodes), trace=True)
        out[d.name] = critical_path_breakdown(cg, rep)
    return out


def _print_series(series: Mapping[str, Sequence[float]], sizes: Sequence[int],
                  b: int, unit: str, digits: int = 1) -> None:
    names = list(series)
    print(f"{'n':>8} " + " ".join(f"{n:>14}" for n in names))
    for i, N in enumerate(sizes):
        print(f"{N * b:>8} "
              + " ".join(f"{series[n][i]:>14.{digits}f}" for n in names))
    print(f"({unit})")


def _series(series, default: Sequence[int], unit: str):
    def runner(args) -> None:
        sizes = args.sizes or default
        _print_series(series(sizes, args), sizes, args.b, unit)
    return runner


def _panels(panels: Mapping, field: str, unit: str, digits: int):
    def runner(args) -> None:
        sizes = args.sizes or [40, 80]
        with SweepClient(store=args.store) as client:
            out = run_panels(client, panels, sizes, args.b)
        for r, panel in out.items():
            print(f"--- r = {r} ---")
            _print_series({name: [getattr(rep, field) for rep in reps]
                           for name, reps in panel.items()},
                          sizes, args.b, unit, digits)
    return runner


def _print_rows(fmt: str, rows: Iterable) -> None:
    for row in rows:
        print(fmt.format(*row))


def _trace(args) -> None:
    rep = simulate_cholesky(args.ntiles or 40, args.b, SymmetricBlockCyclic(args.r),
                            trace=True, trace_path=args.trace_path)
    print(rep)
    print(rep.obs.metrics.summary())
    if args.trace_path:
        print(f"wrote {args.trace_path} — open it at https://ui.perfetto.dev "
              "or chrome://tracing")


#: The CLI: experiment name -> (what ``list`` says, what runs).
EXPERIMENTS = {
    "fig8": ("exact communication volumes (SBC r=7 vs 2DBC)",
             _series(lambda sizes, a: fig8_volumes(sizes, a.b),
                     [25, 50, 100, 200, 400, 600], "GB")),
    "fig9": ("simulated performance at P ~ 28 (2D/2.5D, baseline)",
             _series(lambda sizes, a: fig9_performance(sizes, a.b, a.store),
                     [30, 60], "GFlop/s per node")),
    "fig10": ("SBC vs Table I's 2DBC grids, GFlop/s per node, r = 6..9",
              _panels(FIG10, "gflops_per_node", "GFlop/s per node", 1)),
    "fig12": ("the same runs in seconds, SBC vs the equal-P 2DBC",
              _panels(FIG12, "makespan", "s", 3)),
    "theorem1": ("counted volumes vs the closed forms", lambda a: _print_rows(
        "{:>20} counted {:>9} formula {:>9} ratio {:.3f}",
        theorem1_table(a.ntiles or 240))),
    "scaling": ("strong scaling across P = 15..36", lambda a: _print_rows(
        "{:>18} P={:<3} {:>8.1f} GFlop/s/node",
        strong_scaling(a.ntiles or 72, a.b, a.store))),
    "breakdown": ("realized-critical-path analysis, SBC vs 2DBC", lambda a: _print_rows(
        "{}: {}", spine_breakdown(a.r, a.ntiles or 60, a.b).items())),
    "trace": ("traced run: metrics summary, --trace-path exports a Perfetto JSON", _trace),
}


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run the paper's experiment sweeps from the command line.",
    )
    parser.add_argument("experiment", choices=["list", *EXPERIMENTS])
    parser.add_argument("--sizes", type=int, nargs="+", default=None,
                        help="tile counts N to sweep")
    parser.add_argument("--ntiles", type=int, default=None, help="tile count N")
    parser.add_argument("--b", type=int, default=B_DEFAULT, help="tile size")
    parser.add_argument("--r", type=int, default=8, help="SBC parameter r")
    parser.add_argument("--trace-path", default=None, metavar="PATH",
                        help="write a Perfetto/chrome://tracing JSON of the "
                             "traced run (trace experiment)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="result store of the simulated figures "
                             "(default: $REPRO_SWEEP_STORE or a temp dir)")
    args = parser.parse_args(argv)
    if args.experiment == "list":
        for name, (text, _runner) in EXPERIMENTS.items():
            print(f"{name:<9} {text}")
    else:
        EXPERIMENTS[args.experiment][1](args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
