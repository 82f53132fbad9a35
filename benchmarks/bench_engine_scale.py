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

The JSON also holds three layers, each measured in a fresh interpreter
before the trajectory, so no earlier point's heap or store is in it, and
each as min and median over repeats:

* ``loop_layer``: the serve loop at N = 48, seconds per run of one
  prebuilt graph in each configuration the ``potrf_general`` perf
  workload times (untraced, traced, synchronized, its fault plan, tree +
  aggregation, a ``grid(6, 6)`` topology with work-stealing), the runs
  alternating, and the rebuild of the trace inside each traced run;
* ``service.hit_us``: the per-call time of 1 000 in-process
  ``client.submit`` calls on the small-mode points (N = 18 / 36 / 54),
  stored first in a temporary store, each submit with a new ``JobSpec``
  object;
* ``plan_layer`` (in this process): the plan layer at N = 100 split in
  two, ``csr_seconds`` for ``CompiledGraph.consumers_csr`` and
  ``plan_seconds`` for ``comm_plan`` on the cached adjacency, with the
  ``tracemalloc`` peak of each next to the bytes it returns;

and the host it was measured on (nproc, CPU model, Python, numpy).
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
from conftest import print_header, sizes

from repro.config import bora
from repro.distributions import SymmetricBlockCyclic
from repro.graph import compile_cholesky
from repro.obs import MetricsRegistry
from repro.service import JobSpec, SweepClient

B = 512
R = 9  # extended SBC on P = 36 nodes, the paper's largest square layout
SMALL_NS = [18, 36, 54]
NS = sizes(small=SMALL_NS, full=[100, 200, 400])
HIT_CALLS, HIT_REPEATS = 1000, 5
LAYER_N, LAYER_REPEATS = 100, 7
LOOP_N, LOOP_REPEATS = 48, 7


def _point(N: int) -> JobSpec:
    dist = SymmetricBlockCyclic(R)
    return JobSpec.make("cholesky", N, B, dist, bora(nodes=dist.num_nodes),
                        engine="compiled")


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
    metrics = MetricsRegistry()
    rows = []
    for N in ns:
        res = client.submit(_point(N)).raise_for_status()
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


def measure_hit_layer(ns=SMALL_NS) -> dict:
    """Per-call µs of ``HIT_CALLS`` submits cycling over the points of
    ``ns``, stored first in a temporary store that is deleted afterwards,
    as min and median over ``HIT_REPEATS`` repeats.  Each submit gets a
    new ``JobSpec``, built before the timed loop: the figure suite builds
    one per point and HTTP parses one per request, so a spec object's own
    memos (canonical JSON, plain dict, structure key) are paid per hit."""
    with tempfile.TemporaryDirectory(prefix="repro-hit-") as store, \
            SweepClient(store) as client:
        for N in ns:
            client.submit(_point(N)).raise_for_status()
        sims = client.simulations_run()
        per_call = []
        for _ in range(HIT_REPEATS):
            specs = [_point(ns[i % len(ns)]) for i in range(HIT_CALLS)]
            t0 = time.perf_counter()
            for spec in specs:
                client.submit(spec)
            per_call.append(1e6 * (time.perf_counter() - t0) / HIT_CALLS)
        assert client.simulations_run() == sims, "a stored point was simulated"
    return {"min": round(min(per_call), 2),
            "median": round(statistics.median(per_call), 2),
            "calls": HIT_CALLS, "repeats": HIT_REPEATS, "N": ns}


def plan_layer(N: int = LAYER_N, repeats: int = LAYER_REPEATS) -> dict:
    """The adjacency and the plan of the N-tile graph timed apart:
    ``consumers_csr`` from scratch, then ``comm_plan`` on the cached
    adjacency (together they are a trajectory row's ``plan_seconds``),
    min and median over ``repeats``; then one ``tracemalloc`` run of each
    for its peak and the bytes of what it returns."""
    dist = SymmetricBlockCyclic(R)
    cg = compile_cholesky(N, B, dist)
    csr, plan = [], []
    for _ in range(repeats):
        cg._cons_csr = cg._plan = None
        t0 = time.perf_counter()
        cg.consumers_csr()
        t1 = time.perf_counter()
        cg.comm_plan()
        plan.append(time.perf_counter() - t1)
        csr.append(t1 - t0)
    cg._cons_csr = cg._plan = None
    peaks = []
    for build in (cg.consumers_csr, cg.comm_plan):
        tracemalloc.start()
        try:
            build()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    returned = (sum(a.nbytes for a in cg.consumers_csr()),
                sum(v.nbytes for v in vars(cg.comm_plan()).values()
                    if isinstance(v, np.ndarray)))
    mib = 1 << 20
    row = {"N": N, "n_tasks": cg.n_tasks, "read_edges": len(cg.read_ids),
           "repeats": repeats}
    for name, ts, peak, size in zip(("csr", "plan"), (csr, plan), peaks, returned):
        row[f"{name}_seconds"] = {"min": round(min(ts), 5),
                                  "median": round(statistics.median(ts), 5)}
        row[f"{name}_peak_mb"] = round(peak / mib, 2)
        row[f"{name}_result_mb"] = round(size / mib, 2)
    return row


def measure_loop_layer(N: int = LOOP_N, repeats: int = LOOP_REPEATS) -> dict:
    """``simulate_compiled`` of one N-tile graph in each configuration
    the ``potrf_general`` perf workload times, one run of each per round,
    and the rebuild inside each traced run (timed by wrapping the
    function the loop calls): seconds, min and median over ``repeats``.
    Every run re-derives its priorities, as a service worker reusing a
    graph does."""
    from dataclasses import replace

    from repro.runtime.faults import FaultPlan, SlowdownWindow
    from repro.runtime.simulator import fast_engine, simulate_compiled
    from repro.topology import grid

    dist = SymmetricBlockCyclic(R)
    machine = bora(nodes=dist.num_nodes)
    routed = replace(machine, topology=grid(6, 6))
    faults = FaultPlan(seed=0, loss_rate=0.02,
                       slowdowns=(SlowdownWindow(node=0, factor=2.0),))
    configs = {
        "untraced": (machine, {}),
        "traced": (machine, {"trace": True}),
        "synchronized": (machine, {"synchronized": True}),
        "faults": (machine, {"faults": faults}),
        "tree_agg": (machine, {"broadcast": "tree", "aggregate": True}),
        "topo_steal": (routed, {"scheduler": "work-stealing"}),
    }
    cg = compile_cholesky(N, B, dist)
    cg.comm_plan()
    rebuild, spent = fast_engine.rebuild, []

    def timed_rebuild(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return rebuild(*args, **kwargs)
        finally:
            spent.append(time.perf_counter() - t0)

    fast_engine.rebuild = timed_rebuild
    try:
        runs: dict[str, list[float]] = {name: [] for name in configs}
        for _ in range(repeats):
            for name, (m, opts) in configs.items():
                cg.priority[:] = 0.0
                t0 = time.perf_counter()
                simulate_compiled(cg, m, **opts)
                runs[name].append(time.perf_counter() - t0)
    finally:
        fast_engine.rebuild = rebuild
    row = {"N": N, "n_tasks": cg.n_tasks, "repeats": repeats}
    for name, ts in (*runs.items(), ("rebuild", spent)):
        row[f"{name}_seconds"] = {"min": round(min(ts), 5),
                                  "median": round(statistics.median(ts), 5)}
    return row


def in_fresh_interpreter(name: str) -> dict:
    """The JSON result of this module's ``name()``, run in a fresh
    interpreter."""
    code = (f"import json, bench_engine_scale as bench; "
            f"print(json.dumps(bench.{name}()))")
    path = [os.path.dirname(os.path.abspath(__file__)), *filter(None, sys.path)]
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    return json.loads(out.stdout.splitlines()[-1])


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def test_engine_scale(run_once, sweep_client):
    loop = in_fresh_interpreter("measure_loop_layer")
    hit_us = in_fresh_interpreter("measure_hit_layer")
    rows, metrics = run_once(trajectory, NS, sweep_client)
    layer = plan_layer()
    print_header(
        f"Compiled-engine scaling, POTRF on SBC-extended(r={R}), b={B}",
        f"{'N':>5} {'tasks':>10} {'build(s)':>9} {'plan(s)':>9} "
        f"{'sim(s)':>9} {'peakRSS(MB)':>12} {'cached':>7}",
    )
    for r in rows:
        print(f"{r['N']:>5} {r['n_tasks']:>10} {r['build_seconds']:>9.2f} "
              f"{r['plan_seconds']:>9.2f} {r['sim_seconds']:>9.2f} "
              f"{r['peak_rss_mb']:>12.1f} {str(r['cached']):>7}")
    print(f"cache hit: {hit_us['min']:.1f} µs min, {hit_us['median']:.1f} µs "
          f"median per submit ({HIT_REPEATS} x {HIT_CALLS} calls, "
          f"N = {hit_us['N']})")
    print(f"N={layer['N']} adjacency {1e3 * layer['csr_seconds']['min']:.1f} / "
          f"{1e3 * layer['csr_seconds']['median']:.1f} ms, plan "
          f"{1e3 * layer['plan_seconds']['min']:.1f} / "
          f"{1e3 * layer['plan_seconds']['median']:.1f} ms (min / median of "
          f"{layer['repeats']}); transient peak {layer['csr_peak_mb']:.1f} / "
          f"{layer['plan_peak_mb']:.1f} MiB for {layer['csr_result_mb']:.1f} / "
          f"{layer['plan_result_mb']:.1f} MiB returned")
    print(f"N={loop['N']} serve loop, ms per run (min / median of "
          f"{loop['repeats']}):")
    for key, ts in loop.items():
        if key.endswith("_seconds"):
            print(f"  {key[:-8]:>12} {1e3 * ts['min']:8.1f} {1e3 * ts['median']:8.1f}")

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
                     "numpy": np.__version__,
                     "machine": platform.machine(),
                     "cpu": _cpu_model(),
                     "nproc": os.cpu_count()},
            "trajectory": rows,
            "service": {"hit_us": hit_us},
            "plan_layer": layer,
            "loop_layer": loop,
            "metrics": metrics.as_dict(),
        }
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {out}")
