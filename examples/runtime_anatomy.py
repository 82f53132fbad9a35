#!/usr/bin/env python
"""Anatomy of a simulated run: critical path, utilization, comm options.

Uses the simulator's tracing tools to show *why* SBC runs faster than
2DBC — not just that it does:

1. realized critical-path breakdown (compute vs transfer queue vs wire);
2. worker-utilization timeline (ramp-up, plateau, endgame starvation);
3. per-iteration communication intensity (§III-E's shrinking domain);
4. what-if runs with the communication optimizations the paper notes
   Chameleon lacks: binomial broadcast trees and message aggregation.

Usage:  python examples/runtime_anatomy.py
"""

from repro.comm import communication_profile
from repro.config import bora
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.experiments import potrf, run
from repro.graph import build_cholesky_graph
from repro.runtime import (
    critical_path_breakdown,
    simulate,
    utilization_timeline,
)
from repro.service import SweepClient

N, B = 48, 500


def spark(fracs) -> str:
    blocks = " .:-=+*#%@"
    return "".join(blocks[min(int(f * (len(blocks) - 1)), len(blocks) - 1)] for f in fracs)


def main() -> None:
    sbc = SymmetricBlockCyclic(8)
    bc = BlockCyclic2D(7, 4)

    print(f"=== Critical path: where does the makespan go? (n={N * B}, P=28) ===")
    reports = {}
    for dist in (sbc, bc):
        g = build_cholesky_graph(N, B, dist)
        rep = simulate(g, bora(dist.num_nodes), trace=True)
        reports[dist.name] = (g, rep)
        bd = critical_path_breakdown(g, rep)
        print(f"{dist.name:>18}: {bd}")
    print("SBC's critical path spends less time on the wire: each panel tile"
          "\ncrosses to r-2 = 6 nodes instead of p+q-2 = 9.\n")

    print("=== Worker utilization over time (34 cores x 28 nodes) ===")
    for name, (g, rep) in reports.items():
        tl = utilization_timeline(rep, buckets=60)
        print(f"{name:>18}: [{spark([u for _t, u in tl])}]")
    print("Ramp-up, plateau, endgame: the endgame is where communication"
          "\nlatency decides who finishes first.\n")

    print("=== Per-iteration arithmetic intensity (flops per byte moved) ===")
    g, _ = reports[sbc.name]
    prof = [p for p in communication_profile(g) if p.bytes > 0]
    marks = [prof[0], prof[len(prof) // 2], prof[-2]]
    for p in marks:
        print(f"  iteration {p.iteration:>3}: {p.intensity:8.1f} flop/B "
              f"({p.bytes / 1e9:.2f} GB moved)")
    print("The trailing matrix shrinks, dropping the intensity — the 2/3"
          "\nfactor of §III-E.\n")

    print("=== What-if: the optimizations the paper says Chameleon lacks ===")
    with SweepClient() as client:
        base, tree, aggr = run(client, {"what-if": [
            potrf(sbc, N, B, **options)
            for options in ({}, {"broadcast": "tree"}, {"aggregate": True})]})["what-if"]
    print(f"  point-to-point (paper's setup): {base.makespan:.3f}s "
          f"({base.comm_messages} messages)")
    print(f"  + binomial broadcast trees    : {tree.makespan:.3f}s "
          f"({tree.comm_messages} messages)")
    print(f"  + message aggregation         : {aggr.makespan:.3f}s "
          f"({aggr.comm_messages} messages)")
    print("Trees spread the fan-out load and help; naive aggregation saves"
          "\nmessages but delays critical tiles inside larger blobs.")


if __name__ == "__main__":
    main()
