"""Figure 8 — measured inter-node communication volume during POTRF.

The paper measures the bytes moved by Chameleon/StarPU for P = 20 and 21
(2DBC 5x4, 2DBC 7x3, SBC r=7) as the matrix grows, with b = 500 (2 MB
tiles).  Our exact counter reproduces the measurement analytically (the
distributed executor confirms the counter equals really-measured IPC
bytes; see tests/test_distributed.py), so this bench regenerates the
figure at the paper's true scale, up to n = 300000 (N = 600 tiles).
"""

from conftest import print_header, sizes

from repro.experiments import FIG8, fig8_volumes

B = 500
#: Tile counts: the paper sweeps n = 12500..300000, i.e. N = 25..600.
NS = sizes([25, 50, 100, 200, 400, 600], [25, 50, 100, 150, 200, 300, 400, 500, 600])


def test_fig8_comm_volume(run_once):
    series = run_once(fig8_volumes, NS, B)
    print_header(
        "Figure 8: POTRF communication volume (GB), b=500",
        f"{'n':>8} " + " ".join(
            f"{f'{name} (P={dist.num_nodes})':>16}" for name, dist in FIG8.items()),
    )
    for i, N in enumerate(NS):
        row = " ".join(f"{series[name][i]:>16.1f}" for name in FIG8)
        print(f"{N * B:>8} {row}")

    sbc = series["SBC r=7"]
    bc54 = series["2DBC 5x4"]
    bc73 = series["2DBC 7x3"]
    for i in range(len(NS)):
        # The paper's Figure 8 ordering: SBC below both 2DBC curves, and
        # the squarer 5x4 below the elongated 7x3.
        assert sbc[i] < bc54[i] < bc73[i]
    # The relative gap approaches the theoretical ratios for large n:
    # (p+q-2)/(r-2) = 7/5 vs 5x4 and 8/5 vs 7x3.
    big = len(NS) - 1
    assert abs(bc54[big] / sbc[big] - 7 / 5) < 0.08
    assert abs(bc73[big] / sbc[big] - 8 / 5) < 0.08
