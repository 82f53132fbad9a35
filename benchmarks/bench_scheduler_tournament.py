"""Scheduler-policy tournament: the zoo × distributions × fault plans.

The scheduler-framework PR turned the engines' single hard-wired policy
(critical-path priorities + owner-computes placement) into one entry of
a pluggable zoo (:mod:`repro.schedulers`).  This bench races the whole
zoo over the paper's distribution families — SBC extended, SBC basic,
2D block-cyclic and 2.5D, all on the same node count — crossed with a
clean platform and a persistent-straggler fault plan, and reports two
rankings per cell group: **makespan** (what the paper optimizes) and
**communication volume** (what the paper argues explains it).

Every cell is a :class:`repro.service.JobSpec` — the policy is a spec
field, so the content-addressed store memoizes each (policy, dist,
faults) point individually — submitted through one
:class:`repro.service.SweepClient`.  Point ``REPRO_SWEEP_STORE`` at a
directory to keep the cache warm across invocations; a warm re-run
performs **zero** new simulations (asserted below).

Run with ``REPRO_BENCH_OUT=tournament.json`` to dump the rows as JSON;
``REPRO_FULL=1`` sweeps a paper-scale tile count.
"""

from __future__ import annotations

import json
import os
import platform

from conftest import print_header, sizes

from repro.config import bora
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.runtime.faults import FaultPlan, SlowdownWindow
from repro.schedulers import POLICIES
from repro.service import JobSpec, SweepClient

B = 512
N = sizes(small=[20], full=[64])[0]
SEED = 2025

#: Every family on the same 8 nodes, so makespans are comparable across
#: columns as well as rows.
DISTS = [
    SymmetricBlockCyclic(4),             # extended, 8 nodes
    SymmetricBlockCyclic(4, "basic"),    # basic, 8 nodes
    BlockCyclic2D(2, 4),                 # 8 nodes
    TwoDotFiveD(BlockCyclic2D(2, 2), 2),  # 8 nodes
]

#: (label, FaultPlan or None).  Slowdown-only plans keep transfer volume
#: a pure function of (dist, policy) — no loss, so no retransmissions —
#: which the volume-invariance assertion below relies on.
FAULT_PLANS = [
    ("clean", None),
    ("straggler-x4", FaultPlan(
        seed=SEED, slowdowns=(SlowdownWindow(node=0, factor=4.0),))),
]


def _cells():
    """(dist, fault label, policy, JobSpec) for every cell, in order."""
    out = []
    for dist in DISTS:
        machine = bora(nodes=dist.num_nodes)
        for flabel, plan in FAULT_PLANS:
            for policy in sorted(POLICIES):
                spec = JobSpec.make(
                    "cholesky", N, B, dist, machine,
                    engine="compiled", faults=plan, policy=policy,
                )
                out.append((dist, flabel, policy, spec))
    return out


def sweep(client: SweepClient):
    """Submit every cell through the service; rows in sweep order."""
    cells = _cells()
    results = client.sweep([spec for _, _, _, spec in cells])
    rows = []
    for (dist, flabel, policy, _), res in zip(cells, results):
        rep = res.report
        rows.append({
            "dist": dist.name,
            "nodes": dist.num_nodes,
            "N": N,
            "faults": flabel,
            "policy": policy,
            "makespan_seconds": rep.makespan,
            "comm_bytes": rep.comm_bytes,
            "comm_messages": rep.comm_messages,
        })
    return rows


#: Policies proved so far (one small-scope sweep per process).
_CHECKED = None


def _model_checked():
    """Names of the zoo's policies, all model-checked.

    The tournament refuses to rank policies the small-scope model
    checker (``repro.analyze.mc``) has not proved deadlock- and
    starvation-free: a policy that can deadlock or starve a ready task
    would win rankings vacuously.  Raises RuntimeError naming the
    policy, case and unproved property otherwise.
    """
    global _CHECKED
    if _CHECKED is None:
        from repro.analyze import require_model_checked

        _CHECKED = set(require_model_checked(sorted(POLICIES)))
    return _CHECKED


def _rankings(rows):
    """Per (dist, faults) group: policies ordered by makespan and volume.

    Ranking is gated on :func:`_model_checked` — every participating
    policy must have passed model checking first.
    """
    missing = sorted({r["policy"] for r in rows} - _model_checked())
    if missing:
        raise RuntimeError(f"policies not model-checked: {missing}")
    groups = {}
    for r in rows:
        groups.setdefault((r["dist"], r["faults"]), []).append(r)
    out = {}
    for key, cells in groups.items():
        out[key] = {
            "makespan": [c["policy"] for c in
                         sorted(cells, key=lambda c: c["makespan_seconds"])],
            "volume": [c["policy"] for c in
                       sorted(cells, key=lambda c: (c["comm_bytes"],
                                                    c["policy"]))],
        }
    return out


def test_scheduler_tournament(run_once, sweep_client):
    sims_before = sweep_client.simulations_run()
    rows = run_once(sweep, sweep_client)
    sims_first = sweep_client.simulations_run()
    print_header(
        f"Scheduler tournament, POTRF N={N}, b={B}, "
        f"P={DISTS[0].num_nodes}, {len(POLICIES)} policies",
        f"{'dist':>22} {'faults':>13} {'policy':>20} "
        f"{'makespan':>11} {'MB':>8} {'msgs':>6}",
    )
    for r in rows:
        print(f"{r['dist']:>22} {r['faults']:>13} {r['policy']:>20} "
              f"{r['makespan_seconds']:>11.6f} "
              f"{r['comm_bytes'] / 1e6:>8.2f} {r['comm_messages']:>6}")
    ranks = _rankings(rows)
    print_header(
        "Rankings (best first)",
        f"{'dist':>22} {'faults':>13}  makespan order | volume order",
    )
    for (dist, flabel), rk in sorted(ranks.items()):
        print(f"{dist:>22} {flabel:>13}  "
              f"{' > '.join(rk['makespan'])} | "
              f"{' > '.join(rk['volume'])}")
    print(f"(sweep service: {sims_first - sims_before} new simulations)")

    # The tournament must actually cover the advertised matrix.
    assert len({r["policy"] for r in rows}) >= 5
    assert len({r["dist"] for r in rows}) >= 3
    by_cell = {(r["dist"], r["faults"], r["policy"]): r for r in rows}
    for dist in DISTS:
        for flabel, _ in FAULT_PLANS:
            # Fork-join barriers can never beat the asynchronous
            # default — the per-policy restatement of the paper's
            # synchronized-vs-asynchronous claim.
            cp = by_cell[(dist.name, flabel, "critical-path")]
            fj = by_cell[(dist.name, flabel, "fork-join")]
            assert fj["makespan_seconds"] >= cp["makespan_seconds"]
            # Volume is placement-determined: every non-migrating
            # policy moves exactly the owner-computes bytes.
            volumes = {
                r["comm_bytes"] for r in rows
                if r["dist"] == dist.name and r["faults"] == flabel
                and not POLICIES[r["policy"]].migrates
            }
            assert len(volumes) == 1, (dist.name, flabel, volumes)
    # The paper's headline survives the policy sweep: SBC-extended
    # moves less than 2DBC under every policy that keeps placement.
    for flabel, _ in FAULT_PLANS:
        for policy in sorted(POLICIES):
            if POLICIES[policy].migrates:
                continue
            sbc = by_cell[(DISTS[0].name, flabel, policy)]
            bc = by_cell[(DISTS[2].name, flabel, policy)]
            assert sbc["comm_bytes"] < bc["comm_bytes"], policy

    # The determinism + memoization contract: a warm-cache re-run
    # reproduces every row exactly and simulates NOTHING new.
    again = sweep(sweep_client)
    assert again == rows
    assert sweep_client.simulations_run() == sims_first, \
        "warm-cache re-run must perform zero new simulations"

    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        doc = {
            "bench": "scheduler-tournament",
            "config": {"b": B, "N": N, "seed": SEED,
                       "dists": [d.name for d in DISTS],
                       "fault_plans": [f for f, _ in FAULT_PLANS],
                       "policies": sorted(POLICIES), "machine": "bora"},
            "host": {"python": platform.python_version(),
                     "machine": platform.machine()},
            "rows": rows,
            "rankings": [
                {"dist": d, "faults": f, **rk}
                for (d, f), rk in sorted(_rankings(rows).items())
            ],
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
