"""Figure 13 — POSV (solve) performance with 2DBC and SBC, P = 28.

POSV chains POTRF with forward and backward triangular solves against a
one-tile-wide right-hand side held 1D row-cyclically (the paper's setup).
The solve phases communicate the same volume under both layouts, so SBC's
relative improvement is smaller than for POTRF alone — both the gain and
its dilution are asserted.  The POTRF side is two rows of Figure 9, read
from the sweep store; no ``JobSpec`` describes a POSV graph, so the POSV
side compiles its description directly and runs the core.
"""

from conftest import print_header, sizes

from repro.config import bora
from repro.distributions import RowCyclic1D
from repro.experiments import FIG9, run, table
from repro.graph import compile_posv
from repro.runtime.simulator import simulate_compiled

B = 500
NS = sizes([30, 60, 100], [30, 60, 100, 140])
LAYOUTS = {label: FIG9[label] for label in ("2D SBC r=8", "2DBC 7x4")}  # P = 28


def sweep(client):
    potrf = run(client, table(LAYOUTS, NS, B))
    out = {"posv": {}, "potrf": {}}
    for label, (dist, _options) in LAYOUTS.items():
        machine = bora(dist.num_nodes)
        rhs = RowCyclic1D(dist.num_nodes)
        out["posv"][dist.name] = [
            simulate_compiled(compile_posv(N, B, dist, rhs), machine).gflops_per_node
            for N in NS
        ]
        out["potrf"][dist.name] = [rep.gflops_per_node for rep in potrf[label]]
    return out


def test_fig13_posv(run_once, sweep_client):
    series = run_once(sweep, sweep_client)
    sbc, bc = "SBC-extended(r=8)", "2DBC(7x4)"
    print_header(
        "Figure 13: POSV GFlop/s per node, P=28 (b=500, RHS one tile wide)",
        f"{'n':>8} {'SBC':>10} {'2DBC':>10} {'gain':>7}",
    )
    for i, N in enumerate(NS):
        s, b = series["posv"][sbc][i], series["posv"][bc][i]
        print(f"{N * B:>8} {s:>10.1f} {b:>10.1f} {(s / b - 1) * 100:>6.1f}%")

    for i in range(len(NS)):
        # SBC still wins on POSV...
        assert series["posv"][sbc][i] > 0.995 * series["posv"][bc][i]
    # ...but the average relative gain is smaller than for POTRF alone
    # (the solve phases are distribution-independent, §V-F.1).
    gain = lambda tab: sum(
        tab[sbc][i] / tab[bc][i] - 1 for i in range(len(NS))
    ) / len(NS)
    assert gain(series["posv"]) < gain(series["potrf"]) + 0.005
