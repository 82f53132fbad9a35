#!/usr/bin/env python
"""Scaling study: SBC vs 2DBC performance across matrix and cluster sizes.

Reproduces the shape of the paper's Figures 10 and 11 with the runtime
simulator: per-node GFlop/s as the matrix grows (for each r in 6..9) and a
strong-scaling comparison at fixed matrix size, both over the SBC / equal-P
2DBC pairs of ``repro.experiments.FIG12`` and submitted through the sweep
service (set ``REPRO_SWEEP_STORE`` to keep the results between runs;
``python -m repro.experiments fig10|fig12|scaling`` prints the paper's own
tables).  Matrix sizes are scaled down from the paper's (which reach
n = 300000) to keep the simulated task graphs tractable in pure Python;
the qualitative picture — SBC above 2DBC everywhere, with the gap widest
in the communication-bound regime — is scale-independent.

Usage:  python examples/scaling_study.py [--full]
"""

import sys

from repro.experiments import FIG12, run_panels
from repro.service import SweepClient


def growth_curves(client, sizes) -> None:
    print("=== Per-node performance vs matrix size (cf. Figure 10) ===")
    for panel in run_panels(client, FIG12, sizes).values():
        (sbc_name, sbc), (bc_name, bc) = panel.items()
        print(f"\nP = {sbc[0].num_nodes} ({sbc_name}) vs P = {bc[0].num_nodes} ({bc_name})")
        print(f"{'n':>10} {'SBC GF/s/node':>15} {'2DBC GF/s/node':>15} {'gain':>7}")
        for N, s, b in zip(sizes, sbc, bc):
            g_sbc, g_bc = s.gflops_per_node, b.gflops_per_node
            print(f"{N * 500:>10} {g_sbc:>15.1f} {g_bc:>15.1f} "
                  f"{(g_sbc / g_bc - 1) * 100:>6.1f}%")


def strong_scaling(client, N) -> None:
    print(f"\n=== Strong scaling at n = {N * 500} (cf. Figure 11) ===")
    print(f"{'config':>14} {'P':>4} {'GF/s/node':>11} {'total GF/s':>11}")
    for panel in run_panels(client, FIG12, [N]).values():
        for name, (rep,) in panel.items():
            print(f"{name:>14} {rep.num_nodes:>4} {rep.gflops_per_node:>11.1f} "
                  f"{rep.gflops_per_node * rep.num_nodes:>11.0f}")


def main() -> None:
    full = "--full" in sys.argv
    sizes = (20, 40, 60, 90) if not full else (25, 50, 100, 150, 200)
    # One client for both sections: at the default sizes N = 60 is one of
    # the growth-curve points, so the second table simulates nothing new.
    with SweepClient() as client:
        growth_curves(client, sizes)
        strong_scaling(client, 60 if not full else 120)
    print("\nSBC keeps more of the per-node throughput as P grows: its "
          "broadcasts hit r-2 ~ sqrt(2P) nodes instead of p+q-2 ~ 2 sqrt(P).")


if __name__ == "__main__":
    main()
