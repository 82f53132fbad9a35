"""Figure 10 — SBC vs 2DBC performance for every r in 6..9.

The paper shows that the SBC improvement observed for r = 8 holds across
node counts: for each r in 6..9 it plots per-node GFlop/s of SBC against
the two fairest 2DBC configurations of Table I
(``repro.experiments.FIG10``).  We reproduce each panel
at simulation scale and assert SBC's curve sits on top in the
communication-sensitive range.
"""

from conftest import print_header, sizes

from repro.experiments import FIG10, run_panels

B = 500
NS = sizes([40, 80], [40, 80, 120, 160])


def test_fig10_all_r(run_once, sweep_client):
    results = run_once(run_panels, sweep_client, FIG10, NS, B)
    for r, reports in results.items():
        panel = {name: (reps[0].num_nodes, [rep.gflops_per_node for rep in reps])
                 for name, reps in reports.items()}
        names = list(panel)
        print_header(
            f"Figure 10 panel r={r}",
            f"{'n':>8} " + " ".join(f"{n:>16}" for n in names),
        )
        for i, N in enumerate(NS):
            print(
                f"{N * B:>8} "
                + " ".join(f"{panel[n][1][i]:>16.1f}" for n in names)
            )
        sbc_name = names[0]
        P_sbc, sbc = panel[sbc_name]
        for bc_name in names[1:]:
            P_bc, bc = panel[bc_name]
            # The per-node figure inherently favours smaller node counts
            # (fixed work over fewer nodes), so allow a wider tolerance
            # when the 2DBC option uses fewer nodes than SBC.
            tol = 0.97 if P_sbc <= P_bc else 0.955
            for i in range(len(NS)):
                assert sbc[i] > tol * bc[i]
            # When SBC does not use more nodes than the 2DBC option, it
            # must strictly win somewhere in the sweep.
            if P_sbc <= P_bc:
                assert any(sbc[i] > bc[i] for i in range(len(NS)))
