"""Figure 12 — total running time of Cholesky vs matrix size.

Same data as Figure 10 but in absolute seconds (the paper truncates at
n <= 200000 where the differences are visible): ``repro.experiments.FIG12``
is the SBC and equal-P 2DBC rows of ``FIG10``, so after Figure 10 on the
same store this bench simulates nothing.  We print the simulated
makespans for each r of Table I and assert SBC's total time is below the
matched 2DBC's for every size.  The largest SBC run is traced through
``repro.obs`` and its metrics summary is attached to the output.
"""

from conftest import print_header, sizes

from repro import simulate_cholesky
from repro.comm import cholesky_volume_exact
from repro.experiments import FIG12, run_panels

B = 500
NS = sizes([40, 80], [40, 80, 120, 160])


def sweep(client):
    out = {}
    for r, reports in run_panels(client, FIG12, NS, B).items():
        (sbc_name, sbc), (bc_name, bc) = reports.items()
        out[r] = {
            "sbc": [rep.makespan for rep in sbc],
            "bc": [rep.makespan for rep in bc],
            "names": (sbc_name, bc_name),
        }
    # Trace the largest SBC configuration to attach the observability
    # metrics (wire bytes per pair, utilization, queue depths) to the
    # benchmark's output.
    r = max(FIG12)
    sbc, _options = next(iter(FIG12[r].values()))
    rep = simulate_cholesky(NS[-1], B, sbc, trace=True)
    assert rep.obs.metrics.counter("net.bytes").total() == (
        cholesky_volume_exact(sbc, NS[-1], B)
    )
    out["metrics"] = {"r": r, "N": NS[-1], "summary": rep.obs.metrics.summary()}
    return out


def test_fig12_runtime(run_once, sweep_client):
    results = run_once(sweep, sweep_client)
    for r, data in results.items():
        if r == "metrics":
            continue
        sbc_name, bc_name = data["names"]
        print_header(
            f"Figure 12 panel r={r}: total running time (s)",
            f"{'n':>8} {sbc_name:>18} {bc_name:>14}",
        )
        for i, N in enumerate(NS):
            print(f"{N * B:>8} {data['sbc'][i]:>18.3f} {data['bc'][i]:>14.3f}")
        for i in range(len(NS)):
            assert data["sbc"][i] <= data["bc"][i] * 1.02
        # Running time grows with n (the growth is milder than the O(n^3)
        # work because bigger matrices use the nodes better).
        assert data["sbc"][-1] > 1.5 * data["sbc"][0]
    m = results["metrics"]
    print_header(
        f"Figure 12 traced run (SBC r={m['r']}, N={m['N']}): metrics summary",
        m["summary"],
    )
