"""Perf-regression trajectory for the compiled simulator core.

Sweeps POTRF on the paper's P = 36 extended-SBC layout (r = 9) over
growing tile counts and records, per N: direct graph-compile time,
communication-plan build time, event-loop wall time, and the process
peak RSS — the numbers that tell future PRs whether the hot path
regressed.  Everything is also registered in a
:class:`repro.obs.MetricsRegistry` and, when ``REPRO_BENCH_OUT`` is set,
dumped as a JSON trajectory (the checked-in ``BENCH_engine.json`` at the
repo root holds the reference run; regenerate it with
``REPRO_FULL=1 REPRO_BENCH_OUT=BENCH_engine.json pytest
benchmarks/bench_engine_scale.py``).

Since the sweep-service PR each point is submitted through
:class:`repro.service.SweepClient` (in-process mode): the build / plan /
sim timings are measured inside :func:`repro.service.run_point` and
memoized alongside the :class:`SimReport`.  The client is the suite's
shared ``sweep_client`` (``conftest.py``): with ``REPRO_SWEEP_STORE``
pointing at a warm store a re-run simulates nothing and replays the
stored timings (the ``cached`` column says which rows were replayed);
regenerate the reference trajectory against a *cold* store.

The acceptance point of the array-engine PR is the last full-mode row:
N = 400 (10.7M tasks) must simulate in under 60 s wall.
"""

from __future__ import annotations

import json
import os
import platform
import resource

from conftest import print_header, sizes

from repro.config import bora
from repro.distributions import SymmetricBlockCyclic
from repro.obs import MetricsRegistry
from repro.service import JobSpec, SweepClient

B = 512
R = 9  # extended SBC on P = 36 nodes, the paper's largest square layout
NS = sizes(small=[18, 36, 54], full=[100, 200, 400])


def _peak_rss_mb(res=None) -> float:
    """Peak RSS (MiB) of whatever actually ran the simulation.

    Since the sweep-service PR the simulation may run in a
    ``ProcessPoolExecutor`` worker, whose memory never shows up in this
    process's ``RUSAGE_SELF`` — the worker records its own high-water
    mark into the result (``JobResult.peak_rss_mb``).  When that field is
    absent (old stores), fall back to the max of ``RUSAGE_SELF`` (covers
    in-process/thread execution) and ``RUSAGE_CHILDREN`` (covers exited
    pool workers).  All values are monotone high-water marks, so per-N
    values are cumulative peaks (Ns run ascending).
    """
    if res is not None and res.peak_rss_mb is not None:
        return float(res.peak_rss_mb)
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def trajectory(ns, client: SweepClient):
    dist = SymmetricBlockCyclic(R)
    machine = bora(nodes=dist.num_nodes)
    metrics = MetricsRegistry()
    rows = []
    for N in ns:
        res = client.submit(
            JobSpec.make("cholesky", N, B, dist, machine, engine="compiled")
        ).raise_for_status()
        rep = res.report
        row = {
            "N": N,
            "n": N * B,
            "n_tasks": rep.num_tasks,
            "build_seconds": round(res.timings["build_seconds"], 3),
            "plan_seconds": round(res.timings["plan_seconds"], 3),
            "sim_seconds": round(res.timings["sim_seconds"], 3),
            "peak_rss_mb": round(_peak_rss_mb(res), 1),
            "graph_reused": res.graph_reused,
            "makespan_seconds": rep.makespan,
            "comm_messages": rep.comm_messages,
            "comm_bytes": rep.comm_bytes,
            "cached": res.cached,
        }
        rows.append(row)
        for key in ("build_seconds", "plan_seconds", "sim_seconds",
                    "peak_rss_mb"):
            metrics.gauge(f"bench.engine.{key}",
                          "engine-scale trajectory").set(row[key], labels=(N,))
    return rows, metrics


def test_engine_scale(run_once, sweep_client):
    rows, metrics = run_once(trajectory, NS, sweep_client)
    print_header(
        f"Compiled-engine scaling, POTRF on SBC-extended(r={R}), b={B}",
        f"{'N':>5} {'tasks':>10} {'build(s)':>9} {'plan(s)':>9} "
        f"{'sim(s)':>9} {'peakRSS(MB)':>12} {'cached':>7}",
    )
    for r in rows:
        print(f"{r['N']:>5} {r['n_tasks']:>10} {r['build_seconds']:>9.2f} "
              f"{r['plan_seconds']:>9.2f} {r['sim_seconds']:>9.2f} "
              f"{r['peak_rss_mb']:>12.1f} {str(r['cached']):>7}")

    # Structural sanity only at scaled sizes: a per-task wall-clock bound
    # on a 68 ms run measures the host, not the loop, whose speed gate is
    # the `potrf_lean` workload of benchmarks/perf.
    for r in rows:
        assert r["n_tasks"] > 0 and r["sim_seconds"] >= 0.0
    # The acceptance bound of the array-engine PR, checked in full mode.
    if NS[-1] == 400:
        assert rows[-1]["sim_seconds"] < 60.0

    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        doc = {
            "bench": "engine_scale",
            "config": {"b": B, "r": R, "distribution": f"SBC-extended(r={R})",
                       "machine": "bora", "nodes": SymmetricBlockCyclic(R).num_nodes},
            "host": {"python": platform.python_version(),
                     "machine": platform.machine()},
            "trajectory": rows,
            "metrics": metrics.as_dict(),
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
