"""Ablation — the communication optimizations Chameleon does not perform.

§V-C: "the current Chameleon implementation does not make use of complex
collective communication schemes ... without additional optimizations (no
detection of collective communications or message aggregation)".  This
bench quantifies what those optimizations would buy (or cost) on top of
the paper's point-to-point setup, for both distributions:

* binomial broadcast trees spread each fan-out across forwarders;
* naive message aggregation coalesces same-destination messages.

Byte counts are invariant by construction (asserted); only schedules move.
"""

from conftest import print_header

from repro.comm import cholesky_volume_exact
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.experiments import potrf, run

B, N = 500, 48
MODES = {
    "point-to-point": {},
    "broadcast tree": {"broadcast": "tree"},
    "aggregation": {"aggregate": True},
}


def sweep(client):
    out = {}
    for dist in (SymmetricBlockCyclic(8), BlockCyclic2D(7, 4)):
        reports = run(client, {label: [potrf(dist, N, B, **options)]
                               for label, options in MODES.items()})
        expected = cholesky_volume_exact(dist, N, B)
        assert all(rep.comm_bytes == expected for (rep,) in reports.values())
        out[dist.name] = {label: (rep.makespan, rep.comm_messages)
                          for label, (rep,) in reports.items()}
    return out


def test_ablation_comm_optimizations(run_once, sweep_client):
    results = run_once(sweep, sweep_client)
    print_header(
        f"Ablation: communication optimizations (POTRF, n={N * B}, P=28)",
        f"{'distribution':>20} {'mode':>16} {'makespan':>10} {'messages':>9}",
    )
    for name, rows in results.items():
        for label, (makespan, messages) in rows.items():
            print(f"{name:>20} {label:>16} {makespan:>9.3f}s {messages:>9}")

    for name, rows in results.items():
        p2p = rows["point-to-point"]
        tree = rows["broadcast tree"]
        aggr = rows["aggregation"]
        # Trees spread the fan-out: never slower, same message count.
        assert tree[0] <= p2p[0] * 1.01
        assert tree[1] == p2p[1]
        # Naive aggregation trades message count against delivery
        # granularity; it must cut messages substantially.
        assert aggr[1] < 0.7 * p2p[1]
