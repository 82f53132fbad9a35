"""Platform-sensitivity sweeps: SBC vs 2DBC inflation off the happy path.

The paper's headline is that the symmetric block-cyclic distribution
moves fewer bytes than 2D block-cyclic; this bench asks how that
advantage holds up when the platform misbehaves.  Two sweeps:

* **faults** — a straggler slowdown factor crossed with a transient
  message-loss rate (seeded :class:`repro.runtime.faults.FaultPlan`, so
  every cell is deterministic and reproducible) over both distributions
  on the same node count, reporting each cell's makespan inflation
  relative to its own fault-free baseline plus the retransmitted-message
  overhead;
* **topology x heterogeneity** — the same two layouts over routed
  interconnects (clique / 2D mesh / oversubscribed fat tree, see
  :mod:`repro.topology`) crossed with per-node speed heterogeneity,
  reporting inflation relative to the homogeneous clique.  Fewer bytes
  on the wire should mean less exposure to constrained fabrics — this
  sweep measures exactly how much.

Since the sweep-service PR this bench is a *thin client*: every cell is
a :class:`repro.service.JobSpec` submitted through a
:class:`repro.service.SweepClient`, so identical cells are simulated
exactly once and memoized in a content-addressed store.  Point
``REPRO_SWEEP_STORE`` at a directory to keep the cache warm across
invocations — a warm re-run performs **zero** new simulations (the test
asserts this via the service's obs counters).  See ``docs/service.md``.

Run with ``REPRO_BENCH_OUT=resilience.json`` to dump the rows as JSON;
``REPRO_FULL=1`` sweeps a paper-scale tile count.
"""

from __future__ import annotations

import json
import os
import platform

from conftest import print_header, sizes

from repro.config import bora
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic
from repro.runtime.faults import FaultPlan, SlowdownWindow
from repro.service import JobSpec, SweepClient

B = 512
N = sizes(small=[20], full=[96])[0]
SLOWDOWNS = [1.0, 2.0, 4.0]
LOSS_RATES = [0.0, 0.02, 0.1]
SEED = 2024

#: Same node count for both layouts: SBC r=8 occupies 8*7/2 + 8/2 = 28
#: nodes in the paper's symmetric scheme; 2DBC gets the 4 x 7 grid.
SBC_R = 8
BC_GRID = (4, 7)


def _plan(slowdown: float, loss: float) -> FaultPlan | None:
    if slowdown == 1.0 and loss == 0.0:
        return None
    slowdowns = ()
    if slowdown > 1.0:
        # One persistent straggler: node 0 owns the top-left panel work
        # in both layouts, so the hit lands on the critical path.
        slowdowns = (SlowdownWindow(node=0, factor=slowdown),)
    return FaultPlan(seed=SEED, slowdowns=slowdowns, loss_rate=loss)


def _cells():
    """(dist, slowdown, loss, JobSpec) for every sweep cell, in order."""
    sbc = SymmetricBlockCyclic(SBC_R)
    bc = BlockCyclic2D(*BC_GRID)
    assert sbc.num_nodes == bc.num_nodes, "layouts must use equal node counts"
    machine = bora(nodes=sbc.num_nodes)
    out = []
    for dist in (sbc, bc):
        for slowdown in SLOWDOWNS:
            for loss in LOSS_RATES:
                spec = JobSpec.make(
                    "cholesky", N, B, dist, machine,
                    engine="compiled", faults=_plan(slowdown, loss),
                )
                out.append((dist, slowdown, loss, spec))
    return out


def sweep(client: SweepClient):
    """Submit every cell through the service; rows in sweep order."""
    cells = _cells()
    results = client.sweep([spec for _, _, _, spec in cells])
    clean_makespan = {}
    for (dist, slowdown, loss, _), res in zip(cells, results):
        if slowdown == 1.0 and loss == 0.0:
            clean_makespan[dist.name] = res.report.makespan
    rows = []
    for (dist, slowdown, loss, _), res in zip(cells, results):
        rep = res.report
        clean = clean_makespan[dist.name]
        rows.append({
            "dist": dist.name,
            "nodes": dist.num_nodes,
            "N": N,
            "slowdown": slowdown,
            "loss_rate": loss,
            "makespan_seconds": rep.makespan,
            "inflation": rep.makespan / clean,
            "comm_bytes": rep.comm_bytes,
            "comm_messages": rep.comm_messages,
        })
    clean_messages = {
        r["dist"]: r["comm_messages"]
        for r in rows if r["slowdown"] == 1.0 and r["loss_rate"] == 0.0
    }
    for r in rows:
        r["retransmit_messages"] = r["comm_messages"] - clean_messages[r["dist"]]
    return rows


def test_resilience_sweep(run_once, sweep_client):
    sims_before = sweep_client.simulations_run()
    rows = run_once(sweep, sweep_client)
    sims_first = sweep_client.simulations_run()
    print_header(
        f"Makespan inflation under faults, POTRF N={N}, b={B}, "
        f"P={SymmetricBlockCyclic(SBC_R).num_nodes}",
        f"{'dist':>22} {'slow':>5} {'loss':>5} {'inflation':>10} "
        f"{'retransmits':>12}",
    )
    for r in rows:
        print(f"{r['dist']:>22} {r['slowdown']:>5.1f} {r['loss_rate']:>5.2f} "
              f"{r['inflation']:>10.3f} {r['retransmit_messages']:>12}")
    print(f"(sweep service: {sims_first - sims_before} new simulations)")

    by_cell = {(r["dist"], r["slowdown"], r["loss_rate"]): r for r in rows}
    for r in rows:
        # Faults can only hurt: inflation is 1 exactly on the clean cell,
        # and every added fault keeps the same first-transmission volume.
        assert r["inflation"] >= 1.0 - 1e-12
        assert r["retransmit_messages"] >= 0
        clean = by_cell[(r["dist"], 1.0, 0.0)]
        assert r["comm_bytes"] >= clean["comm_bytes"]
    # Loss produces retransmissions once the rate is non-zero.
    assert all(
        by_cell[(d, 1.0, LOSS_RATES[-1])]["retransmit_messages"] > 0
        for d in {r["dist"] for r in rows}
    )
    # The determinism + memoization contract: a warm-cache re-run
    # reproduces every row exactly and simulates NOTHING new.
    again = sweep(sweep_client)
    assert again == rows
    assert sweep_client.simulations_run() == sims_first, \
        "warm-cache re-run must perform zero new simulations"

    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        doc = {
            "bench": "resilience",
            "config": {"b": B, "N": N, "sbc_r": SBC_R, "bc_grid": BC_GRID,
                       "seed": SEED, "slowdowns": SLOWDOWNS,
                       "loss_rates": LOSS_RATES, "machine": "bora"},
            "host": {"python": platform.python_version(),
                     "machine": platform.machine()},
            "rows": rows,
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")


# --------------------------------------------------------------------------
# topology x heterogeneity sweep
# --------------------------------------------------------------------------

#: Interconnect shapes at the bench's node count, built with the bora
#: effective link constants so the uniform clique reproduces the scalar
#: network model bit-exactly (the sweep's natural baseline).
def _topologies(P: int):
    from repro import topology as tp
    from repro.config import BORA_EFFECTIVE_NETWORK as net

    bw, lat = net.bandwidth, net.latency
    return [
        ("clique", tp.clique(P, bw, lat)),
        ("mesh-4x7", tp.grid(4, 7, bw, lat)),
        ("fat-tree-2:1", tp.fat_tree(P, arity=7, bandwidth=bw, latency=lat,
                                     uplink_bandwidth=3.5 * bw)),
    ]


#: Heterogeneity levels: homogeneous, and every 4th node at half speed.
def _hetero_levels(P: int):
    from repro.topology import Heterogeneity

    return [
        ("homog", None),
        ("mixed", Heterogeneity.alternating(P, slow_speed=0.5, period=4)),
    ]


def _topo_cells():
    """(dist, topo_name, hetero_name, JobSpec) in sweep order."""
    from dataclasses import replace

    sbc = SymmetricBlockCyclic(SBC_R)
    bc = BlockCyclic2D(*BC_GRID)
    P = sbc.num_nodes
    machine = bora(nodes=P)
    out = []
    for dist in (sbc, bc):
        for tname, topo in _topologies(P):
            for hname, het in _hetero_levels(P):
                routed = topo if het is None else topo.with_heterogeneity(het)
                spec = JobSpec.make(
                    "cholesky", N, B, dist,
                    replace(machine, topology=routed), engine="compiled",
                )
                out.append((dist, tname, hname, spec))
    return out


def topo_sweep(client: SweepClient):
    """Submit every topology cell; rows with inflation vs clique/homog."""
    cells = _topo_cells()
    results = client.sweep([spec for _, _, _, spec in cells])
    rows = []
    for (dist, tname, hname, _), res in zip(cells, results):
        rep = res.raise_for_status().report
        rows.append({
            "dist": dist.name,
            "topology": tname,
            "hetero": hname,
            "N": N,
            "makespan_seconds": rep.makespan,
            "comm_bytes": rep.comm_bytes,
            "comm_messages": rep.comm_messages,
        })
    base = {r["dist"]: r["makespan_seconds"] for r in rows
            if r["topology"] == "clique" and r["hetero"] == "homog"}
    for r in rows:
        r["inflation"] = r["makespan_seconds"] / base[r["dist"]]
    return rows


def test_topology_heterogeneity_sweep(run_once, sweep_client):
    sims_before = sweep_client.simulations_run()
    rows = run_once(topo_sweep, sweep_client)
    sims_first = sweep_client.simulations_run()
    print_header(
        f"Makespan inflation across interconnects, POTRF N={N}, b={B}, "
        f"P={SymmetricBlockCyclic(SBC_R).num_nodes}",
        f"{'dist':>22} {'topology':>14} {'hetero':>7} {'inflation':>10}",
    )
    for r in rows:
        print(f"{r['dist']:>22} {r['topology']:>14} {r['hetero']:>7} "
              f"{r['inflation']:>10.3f}")
    print(f"(sweep service: {sims_first - sims_before} new simulations)")

    by_cell = {(r["dist"], r["topology"], r["hetero"]): r for r in rows}
    dists = sorted({r["dist"] for r in rows})
    sbc_name = SymmetricBlockCyclic(SBC_R).name
    bc_name = BlockCyclic2D(*BC_GRID).name
    for r in rows:
        # Routing and slow nodes can only add time over the clique
        # baseline; owner-computes traffic is topology-independent.
        assert r["inflation"] >= 1.0 - 1e-12
        clean = by_cell[(r["dist"], "clique", "homog")]
        assert r["comm_bytes"] == clean["comm_bytes"]
        assert r["comm_messages"] == clean["comm_messages"]
    for d in dists:
        # Multi-hop fabrics and stragglers must actually bite.
        assert by_cell[(d, "mesh-4x7", "homog")]["inflation"] > 1.0
        assert by_cell[(d, "clique", "mixed")]["inflation"] > 1.0
    # The paper's volume advantage is preserved verbatim: SBC moves
    # fewer bytes than 2DBC in every cell of the matrix.
    for (_, tname, hname), r in by_cell.items():
        if r["dist"] == sbc_name:
            assert r["comm_bytes"] < by_cell[(bc_name, tname,
                                              hname)]["comm_bytes"]
    # Warm-cache re-run: identical rows, zero new simulations.
    again = topo_sweep(sweep_client)
    assert again == rows
    assert sweep_client.simulations_run() == sims_first, \
        "warm-cache re-run must perform zero new simulations"

    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        out = f"{out}.topology.json"  # don't clobber the faults sweep's dump
        doc = {
            "bench": "resilience-topology",
            "config": {"b": B, "N": N, "sbc_r": SBC_R, "bc_grid": BC_GRID,
                       "machine": "bora",
                       "topologies": [t for t, _ in _topologies(
                           SymmetricBlockCyclic(SBC_R).num_nodes)],
                       "hetero_levels": ["homog", "mixed"]},
            "host": {"python": platform.python_version(),
                     "machine": platform.machine()},
            "rows": rows,
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
