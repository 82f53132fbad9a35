"""Figure 9 — Cholesky performance with 2D/2.5D BC and SBC at P ~ 28.

The paper's central performance figure: per-node GFlop/s versus matrix
size for the r = 8 case (P = 28), comparing 2DBC (7x4 and 6x5), 2D SBC,
the 2.5D variants (c = 3 slices), and the COnfCHOX baseline (P = 32,
which we model as a synchronized block-cyclic execution — its static
fork-join schedule is what the paper identifies as its handicap).  The
six configurations are ``repro.experiments.FIG9``.

Matrix sizes are scaled to keep the Python DES tractable (the paper goes
to n = 300000 = 36M tasks); REPRO_FULL extends the sweep.  The figure's
qualitative content is asserted: 2.5D SBC > 2.5D BC and 2D SBC > 2DBC,
with COnfCHOX far below, and everyone climbing towards the StarPU peak
as n grows.
"""

from conftest import print_header, sizes

from repro.experiments import FIG9, run, table

B = 500
NS = sizes([30, 60, 100], [30, 60, 100, 140, 180])


def test_fig9_perf(run_once, sweep_client):
    reports = run_once(run, sweep_client, table(FIG9, NS, B))
    series = {name: [rep.gflops_per_node for rep in reps] for name, reps in reports.items()}
    names = list(FIG9)
    print_header(
        "Figure 9: POTRF GFlop/s per node, P ~ 28 (b=500)",
        f"{'n':>8} " + " ".join(f"{n:>13}" for n in names),
    )
    for i, N in enumerate(NS):
        print(f"{N * B:>8} " + " ".join(f"{series[n][i]:>13.1f}" for n in names))

    for i in range(len(NS)):
        # SBC beats the equal-P 2DBC at every size.
        assert series["2D SBC r=8"][i] > series["2DBC 7x4"][i]
        # The 2.5D variants improve on their 2D counterparts.
        assert series["2.5D SBC c=3"][i] > series["2D SBC r=8"][i]
        assert series["2.5D SBC c=3"][i] > series["2.5D BC c=3"][i]
        # The static synchronized baseline trails everything.
        assert series["COnfCHOX-like"][i] < series["2DBC 7x4"][i]
    # Per-node performance grows with n towards the peak (right side of
    # the paper's figure).
    for name in names:
        assert series[name][-1] > series[name][0]
