"""The five workloads of the perf benchmark (see README.md for the why).

Every workload drives ``repro`` from outside, through public functions
only.  The shape the harness relies on:

``setup(seed, workdir, tick)``
    build the inputs (timed, in fresh child interpreters, as ``setup_s``);
    ``tick()`` lets the harness take a reference slice, as a ``yield`` of
    ``run_pass`` does;
``run_pass(tr, out)``
    a generator: one timed pass, layer calls wrapped in ``tr.span(...)``,
    outputs appended to ``out``; at every ``yield`` the harness may take
    a reference slice;
``timer``
    whether the harness may also cut into the pass with its timer signal
    (only where all the work runs in the main thread);
``check(out)``
    untimed: ``(operations attempted, failure messages)`` of one pass,
    and whatever the pass left behind is cleared away;
``prepare_checks(seed, expected)``
    untimed, main interpreter only: what ``check`` compares against;
``layer_metrics(ctx)``
    traced run only: counts and micro-benchmarks for the per-layer rows.

``repro`` only ever sees the generated ``JobSpec``s / arguments; the
seed shuffles point and hit order and seeds the ``FaultPlan``.
"""

from __future__ import annotations

import asyncio
import random
import shutil
import statistics
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import replace
from pathlib import Path
from typing import Any, Optional

from repro.comm import (
    bc2d_cholesky_volume,
    cholesky_message_count,
    cholesky_volume_exact,
    count_communications,
    sbc_cholesky_volume,
)
from repro.config import MachineSpec, bora
from repro.distributions import BlockCyclic2D, SymmetricBlockCyclic, TwoDotFiveD
from repro.graph import (
    CompiledGraph,
    build_cholesky_graph,
    build_cholesky_graph_25d,
    build_lu_graph,
    compile_cholesky,
    compile_graph,
    compile_lu,
    compiled_critical_path_priorities,
)
from repro.runtime.faults import FaultPlan, SlowdownWindow
from repro.runtime.simulator import SimReport, simulate, simulate_compiled
from repro.service import (
    JobSpec,
    ResultStore,
    SweepClient,
    SweepServer,
    config_digest,
    report_to_dict,
    run_point,
    structure_hash,
    structure_key,
)
from repro.service.http import serve_http
from repro.topology import grid

Stats = dict[str, Any]
Tick = Callable[[], None]
STAT_KEYS = ("makespan", "comm_bytes", "comm_messages", "num_tasks")


def stats_of(rep: Any) -> Stats:
    """The simulated statistics a point is pinned by (a ``SimReport`` or
    its ``report_to_dict`` form)."""
    if isinstance(rep, dict):
        return {k: rep[k] for k in STAT_KEYS}
    return {k: getattr(rep, k) for k in STAT_KEYS}


def default_durations(cg: CompiledGraph, machine: MachineSpec) -> Any:
    """Per-task durations as ``simulate_compiled`` derives them on a
    homogeneous machine (the priority sweep's input)."""
    return machine.kernel.overhead + cg.flops / machine.kernel.rate(cg.b)


def array_bytes(cg: CompiledGraph) -> int:
    """Computed from array sizes, not measured."""
    return sum(a.nbytes for a in (
        cg.kind_codes, cg.node, cg.flops, cg.iteration, cg.priority,
        cg.write_id, cg.read_ptr, cg.read_ids, cg.data_producer,
        cg.data_source_node, cg.data_nbytes))


def lean_point(tr: Any, cg: CompiledGraph, machine: MachineSpec,
               span: str = "simulator.lean", **opts: Any) -> SimReport:
    """``simulate_compiled`` on a fresh graph.  A traced pass runs the
    consumer adjacency and the priority sweep itself first, so that they
    get their own spans; the simulator then finds priorities present and
    skips its own sweep — the same work, cut in three."""
    if tr.on:
        with tr.span("graph.consumers_csr"):
            cg.consumers_csr()
        with tr.span("graph.priority_sweep"):
            cg.priority[:] = compiled_critical_path_priorities(
                cg, default_durations(cg, machine))
    with tr.span(span):
        return simulate_compiled(cg, machine, **opts)


class Workload:
    name = ""
    why = ""
    #: stated input size of one pass, for the (ungated) throughput line
    size = 0
    size_unit = ""
    timer = True

    def __init__(self) -> None:
        self.expected: dict[str, Stats] = {}
        #: exact counts gathered by traced passes, for the per-layer rows
        self.counts: dict[str, float] = {}
        #: simulated points whose statistics differed from the expected
        self.stat_mismatches = 0

    def setup(self, seed: int, workdir: Path, tick: Tick) -> None:
        raise NotImplementedError

    def prepare_checks(self, seed: int, expected: dict[str, Stats]) -> None:
        self.expected = dict(expected)

    def run_pass(self, tr: Any, out: list[Any]) -> Iterator[None]:
        raise NotImplementedError

    def mismatch(self, label: str, rep: Any) -> Optional[str]:
        """A failure message when a point's statistics are not exactly
        the expected ones."""
        got, want = stats_of(rep), self.expected.get(label)
        if got == want:
            return None
        self.stat_mismatches += 1
        return f"{label}: simulated {got}, expected {want}"

    def check(self, out: list[Any]) -> tuple[int, list[str]]:
        """Default: ``out`` holds ``(label, report)`` of simulated points."""
        failures = [m for label, rep in out if (m := self.mismatch(label, rep))]
        return len(out), failures

    def oracle(self) -> dict[str, Stats]:
        """Seed-0 expected statistics (``run.py --regen-expected``)."""
        raise NotImplementedError

    def layer_metrics(self, ctx: Any) -> dict[str, float]:
        return {**self.counts,
                "simulator.stat_mismatches": self.stat_mismatches}


# --------------------------------------------------------------------------
# potrf_lean
# --------------------------------------------------------------------------

class PotrfLean(Workload):
    name = "potrf_lean"
    why = ("one paper-scale point (N=100, 171 700 tasks, SBC r=9, P=36): "
           "the lean serve loop is ~90 % of the pass")
    N, B, R = 100, 512, 9
    size, size_unit = 171_700, "tasks"
    LABEL = "potrf_lean/N=100"

    def setup(self, seed: int, workdir: Path, tick: Tick) -> None:
        self.dist = SymmetricBlockCyclic(self.R)
        self.machine = bora(self.dist.num_nodes)

    def run_pass(self, tr: Any, out: list[Any]) -> Iterator[None]:
        with tr.span("graph.compile"):
            cg = compile_cholesky(self.N, self.B, self.dist)
        with tr.span("service.structure_hash"):
            structure_hash(cg)
        with tr.span("graph.plan"):
            cg.comm_plan()
        yield
        rep = lean_point(tr, cg, self.machine)
        out.append((self.LABEL, rep))
        if tr.on:
            self.counts = {
                "graph.tasks": cg.n_tasks,
                "graph.read_edges": len(cg.read_ids),
                "graph.array_bytes_per_task": array_bytes(cg) / cg.n_tasks,
                **sim_counts(rep),
            }
        yield

    def oracle(self) -> dict[str, Stats]:
        # N = 100 is past the object engine's reach in a regen; the row
        # must equal BENCH_engine.json's N=100 row (test_perf_harness).
        cg = compile_cholesky(self.N, self.B, self.dist)
        return {self.LABEL: stats_of(simulate_compiled(cg, self.machine))}

    def layer_metrics(self, ctx: Any) -> dict[str, float]:
        units = self.counts["simulator.tasks"] + self.counts["simulator.messages"]
        return {**super().layer_metrics(ctx),
                "simulator.lean_us_per_unit":
                    1e6 * ctx.layer_s("simulator.lean") / units}


def sim_counts(rep: SimReport) -> dict[str, float]:
    return {
        "simulator.tasks": rep.num_tasks,
        "simulator.messages": rep.comm_messages,
        "simulator.comm_bytes": rep.comm_bytes,
        "simulator.makespan_s": rep.makespan,
    }


# --------------------------------------------------------------------------
# potrf_general
# --------------------------------------------------------------------------

class PotrfGeneral(Workload):
    name = "potrf_general"
    why = ("one prebuilt N=48 graph, five runs that each force another "
           "branch of the general loop (tree+aggregate, faults, "
           "topology+work-stealing, synchronized, traced)")
    N, B, R = 48, 512, 9
    size, size_unit = 5 * 19_600, "tasks"
    VARIANTS = ("tree_agg", "faults", "topo_steal", "sync", "traced")

    def setup(self, seed: int, workdir: Path, tick: Tick) -> None:
        self.dist = SymmetricBlockCyclic(self.R)
        self.machine = bora(self.dist.num_nodes)
        self.cg = compile_cholesky(self.N, self.B, self.dist)
        self.cg.comm_plan()
        self.faults = FaultPlan(
            seed=seed, loss_rate=0.02,
            slowdowns=(SlowdownWindow(node=0, factor=2.0),))

    def options(self, variant: str) -> dict[str, Any]:
        """Simulator options of one variant (shared with the oracle).

        ``aggregate=True`` is never combined with ``loss_rate > 0`` on
        direct broadcast: that raises ``simulation deadlock`` today
        (README, "Known pathologies")."""
        return {
            "tree_agg": {"broadcast": "tree", "aggregate": True},
            "faults": {"faults": self.faults},
            "topo_steal": {"scheduler": "work-stealing"},
            "sync": {"synchronized": True},
            "traced": {"trace": True},
        }[variant]

    def run_pass(self, tr: Any, out: list[Any]) -> Iterator[None]:
        cg = self.cg
        for variant in self.VARIANTS:
            machine = self.machine
            if variant == "topo_steal":
                with tr.span("topology.build"):
                    machine = replace(machine, topology=grid(6, 6))
            # As the service does on graph reuse: without it only the
            # first run of the process would pay the priority sweep.
            cg.priority[:] = 0.0
            with tr.span(f"simulator.{variant}"):
                rep = simulate_compiled(cg, machine, **self.options(variant))
            out.append((f"potrf_general/{variant}", stats_of(rep)))  # drops the trace
            if tr.on and variant == "traced":
                self.counts = {
                    "obs.events": len(rep.trace) + len(rep.transfers),
                    **sim_counts(rep),
                }
            yield

    def prepare_checks(self, seed: int, expected: dict[str, Stats]) -> None:
        super().prepare_checks(seed, expected)
        if seed != 0:
            # expected.json pins the fault variant for seed 0 only.
            self.expected.update(self.oracle(("faults",)))

    def oracle(self, variants: Sequence[str] = VARIANTS) -> dict[str, Stats]:
        graph = build_cholesky_graph(self.N, self.B, self.dist)
        out = {}
        for variant in variants:
            machine = self.machine
            if variant == "topo_steal":
                machine = replace(machine, topology=grid(6, 6))
            rep = simulate(graph, machine, **self.options(variant))
            out[f"potrf_general/{variant}"] = stats_of(rep)
        return out

    def layer_metrics(self, ctx: Any) -> dict[str, float]:
        cg, machine = self.cg, self.machine

        def run(**opts: Any) -> None:
            cg.priority[:] = 0.0
            simulate_compiled(cg, machine, **opts)

        default_s = ctx.bench(run)
        weighted_s = ctx.bench(lambda: run(scheduler="bytes-critical-path"))
        small = build_cholesky_graph(24, self.B, self.dist)
        return {
            **super().layer_metrics(ctx),
            "schedulers.plan_delta_s": weighted_s - default_s,
            "obs.trace_overhead_ratio":
                ctx.layer_s("simulator.traced") / default_s,
            "simulator.object_s": ctx.bench(lambda: simulate(small, machine)),
        }


# --------------------------------------------------------------------------
# the sweeps
# --------------------------------------------------------------------------

B_SWEEP = 500


def quiet_store(root: Path) -> ResultStore:
    """A store that does not fsync every append.  The timed paths use it
    because 30 fsyncs on the sandbox disk took 24-184 ms of a 0.8 s
    ``sweep_cold`` pass: that is the disk, not the store's code.  What
    fsync-every-append costs is reported, ungated, as
    ``service.store.put_disk_us``."""
    return ResultStore(root, fsync="batch")


#: The Figure 9 configuration set: (label, distribution, nodes, options).
FIG9 = (
    ("sbc8", SymmetricBlockCyclic(8), 28, {}),
    ("bc7x4", BlockCyclic2D(7, 4), 28, {}),
    ("sbc25d", TwoDotFiveD(SymmetricBlockCyclic(4, variant="basic"), 3), 24, {}),
    ("bc25d", TwoDotFiveD(BlockCyclic2D(3, 3), 3), 27, {}),
    ("sync8x4", BlockCyclic2D(8, 4), 32, {"synchronized": True}),
)


def fig9_points(ns: Sequence[int], **opts: Any) -> list[tuple[str, JobSpec]]:
    tag = "".join(f"/{k}={v}" for k, v in sorted(opts.items()))
    return [
        (f"{cfg}/N={n}{tag}",
         JobSpec.make("cholesky", n, B_SWEEP, dist, bora(nodes),
                      **{**own, **opts}))
        for n in ns for cfg, dist, nodes, own in FIG9
    ]


def oracle_points(points: Sequence[tuple[str, JobSpec]]) -> dict[str, Stats]:
    """The object engine's statistics of every point."""
    out = {}
    for label, spec in points:
        record = run_point(spec.with_(engine="object").to_dict())
        out[label] = stats_of(record["report"])
    return out


class SweepCold(Workload):
    name = "sweep_cold"
    why = ("time to Figure 9: 15 misses (5 configurations x N in 16, 24, "
           "32) into a fresh store; many small points shift weight from "
           "the loop to the graph builders and the service's miss path")
    NS = (16, 24, 32)
    size, size_unit = 15, "points"
    timer = False  # a point runs on the server's executor thread

    def setup(self, seed: int, workdir: Path, tick: Tick) -> None:
        self.points = fig9_points(self.NS)
        random.Random(seed).shuffle(self.points)
        self.workdir = workdir
        self._stores = 0

    def fresh_store(self) -> ResultStore:
        self._stores += 1
        return quiet_store(self.workdir / f"cold-{self._stores}")

    def run_pass(self, tr: Any, out: list[Any]) -> Iterator[None]:
        with tr.span("service.client_open"):
            store = self.fresh_store()
            client = SweepClient(store=store)
        try:
            for label, spec in self.points:
                with tr.span("service.submit"):
                    t0 = time.perf_counter()
                    res = client.submit(spec)
                    dt = time.perf_counter() - t0
                out.append((label, res, dt))
                yield
            tally = (client.simulations_run(), len(store), store.root)
            with tr.span("service.close"):
                client.close()
            out.append(tally)
        finally:
            client.close()

    def check(self, out: list[Any]) -> tuple[int, list[str]]:
        *replies, (sims, stored, store_dir) = out
        shutil.rmtree(store_dir, ignore_errors=True)
        failures = []
        overheads = []
        worker_s = 0.0
        for label, res, dt in replies:
            bad = None
            if res.status != "ok" or res.cached:
                bad = f"{label}: status {res.status}, cached {res.cached}"
            else:
                bad = self.mismatch(label, res.report)
                spent = sum(res.timings.values())
                worker_s += spent
                overheads.append(dt - spent)
            if bad:
                failures.append(bad)
        n = len(replies)
        if (sims, stored) != (n, n) and not failures:
            failures.append(
                f"sweep_cold: {sims} simulations, {stored} stored, want {n}")
        #: of the last pass checked: submit minus the worker's own phases
        self.miss_overhead_s = statistics.median(overheads) if overheads else 0.0
        self.worker_s = worker_s
        self.counts = {"service.simulations": sims, "service.cache_hits": 0,
                       "service.hit_ratio": 0.0}
        return n, failures

    def oracle(self) -> dict[str, Stats]:
        return oracle_points(self.points)

    def replay(self, tr: Any) -> Iterator[None]:
        """Every point again as direct layer calls, so that the time
        inside ``submit`` can be given to its layers."""
        store = self.fresh_store()
        for i, (_, spec) in enumerate(self.points, 1):
            with tr.span("service.digest"):
                config_digest(spec)
                structure_key(spec)
            dist, machine = spec.distribution(), spec.machine_spec()
            if isinstance(dist, TwoDotFiveD):
                with tr.span("graph.object_build"):
                    graph = build_cholesky_graph_25d(spec.ntiles, spec.b, dist)
                with tr.span("graph.lower"):
                    cg = compile_graph(graph)
                del graph
            else:
                with tr.span("graph.compile"):
                    cg = compile_cholesky(spec.ntiles, spec.b, dist)
            with tr.span("service.structure_hash"):
                struct = structure_hash(cg)
            with tr.span("graph.plan"):
                cg.comm_plan()
            if spec.synchronized:
                rep = lean_point(tr, cg, machine, "simulator.sync",
                                 synchronized=True)
            else:
                rep = lean_point(tr, cg, machine)
            with tr.span("service.report_to_dict"):
                record = {"hash": f"replay-{i}", "structure": struct,
                          "spec": spec.to_dict(), "status": "ok",
                          "report": report_to_dict(rep)}
            with tr.span("service.store.put"):
                store.put(record)
            yield
        self.replayed = record  # for ``service.store.put_disk_us``
        shutil.rmtree(store.root, ignore_errors=True)

    def layer_metrics(self, ctx: Any) -> dict[str, float]:
        specs = [spec for _, spec in self.points]
        store = self.fresh_store()
        disk = ResultStore(self.workdir / "cold-disk")  # fsyncs every append
        record = self.replayed

        def fan_out() -> None:
            with SweepClient(store=store) as client:
                for res in client.sweep(specs):
                    res.raise_for_status()

        def put_disk() -> None:
            for i in range(len(specs)):
                disk.put({**record, "hash": f"disk-{i}"})

        try:
            fanned = ctx.bench(fan_out, repeat=1, timer=False)
            disk_s = ctx.bench(put_disk)
        finally:
            shutil.rmtree(store.root, ignore_errors=True)
            shutil.rmtree(disk.root, ignore_errors=True)
        return {
            **super().layer_metrics(ctx),
            "service.run_point_s": self.worker_s * ctx.scale,
            "service.miss_overhead_ms": 1e3 * self.miss_overhead_s * ctx.scale,
            "service.store.put_us":
                1e6 * ctx.layer_s("service.store.put") / len(specs),
            "service.store.put_disk_us": 1e6 * disk_s / len(specs),
            "service.sweep_fanout_ratio": fanned / ctx.wall_s,
        }


class SweepWarm(Workload):
    name = "sweep_warm"
    why = ("12 800 cache hits on a 160-point store: service only (digest, "
           "structure-key memo, store get, record -> JobResult); bypasses "
           "graph and simulator entirely")
    NS = (8, 10)
    POLICIES = ("critical-path", "bytes-critical-path", "work-stealing",
                "comm-avoiding")
    ROUNDS = 80
    size, size_unit = ROUNDS * 160, "hits"
    timer = False  # a round is 11 ms: the yields alone keep the ruler close

    def setup(self, seed: int, workdir: Path, tick: Tick) -> None:
        self.points = [
            p
            for policy in self.POLICIES
            for broadcast in ("direct", "tree")
            for aggregate in (False, True)
            for p in fig9_points(self.NS, policy=policy, broadcast=broadcast,
                                 aggregate=aggregate)
        ]
        # Populated in a fixed order: the order decides how often the
        # worker reuses its compiled graph, and the seed must not change
        # the amount of set-up work.
        self.store_dir = workdir / "warm-store"
        self.populated = []
        with SweepClient(store=quiet_store(self.store_dir)) as client:
            for _, spec in self.points:
                self.populated.append(client.submit(spec))
                tick()
        rng = random.Random(seed)
        self.rounds = [rng.sample(range(len(self.points)), len(self.points))
                       for _ in range(self.ROUNDS)]
        #: per-hit latencies of traced passes (seconds, raw)
        self.hit_latencies: list[float] = []

    def run_pass(self, tr: Any, out: list[Any]) -> Iterator[None]:
        specs = [spec for _, spec in self.points]
        with tr.span("service.store.load"):
            store = ResultStore(self.store_dir)
        with tr.span("service.client_open"):
            client = SweepClient(store=store)
        try:
            for order in self.rounds:
                with tr.span("service.hits"):
                    if tr.on:
                        lat = self.hit_latencies
                        for i in order:
                            t0 = time.perf_counter()
                            res = client.submit(specs[i])
                            lat.append(time.perf_counter() - t0)
                            out.append((i, res))
                    else:
                        for i in order:
                            out.append((i, client.submit(specs[i])))
                yield
            sims = client.simulations_run()
            with tr.span("service.close"):
                client.close()
            out.append((-1, sims))
        finally:
            client.close()

    def prepare_checks(self, seed: int, expected: dict[str, Stats]) -> None:
        super().prepare_checks(seed, expected)
        self.populate_failures = [
            m for (label, _), res in zip(self.points, self.populated)
            if (m := self.mismatch(label, res.report))
        ]
        self.want = [(res.hash, report_to_dict(res.report))
                     for res in self.populated]

    def check(self, out: list[Any]) -> tuple[int, list[str]]:
        *replies, (_, sims) = out
        # A populated record that disagrees with the oracle fails every
        # hit on it; reported once per pass to keep the output readable.
        failures = list(self.populate_failures)
        bad = 0
        for i, res in replies:
            want_hash, want_report = self.want[i]
            if not (res.cached and res.status == "ok"
                    and res.hash == want_hash
                    and report_to_dict(res.report) == want_report):
                bad += 1
        if bad:
            failures.append(f"sweep_warm: {bad} hits not cached or not "
                            "bit-identical to the populated record")
        if sims != 0 and not failures:
            failures.append(f"sweep_warm: {sims} simulations on a warm store")
        n = len(replies)
        self.counts = {"service.simulations": sims,
                       "service.cache_hits": n - bad,
                       "service.hit_ratio": (n - bad) / n}
        return n, failures

    def oracle(self) -> dict[str, Stats]:
        return oracle_points(self.points)

    def http_hit_s(self, ctx: Any, hits: int = 200) -> float:
        """Median loopback round trip of a cache hit (0.0 when this
        sandbox cannot bind a localhost socket)."""
        loop = asyncio.new_event_loop()
        server = SweepServer(ResultStore(self.store_dir))
        try:
            svc = loop.run_until_complete(serve_http(server, "127.0.0.1", 0))
        except OSError:
            loop.run_until_complete(server.close())
            loop.close()
            return 0.0
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            specs = [spec for _, spec in self.points]
            lat = []
            with SweepClient(url=f"http://127.0.0.1:{svc.port}") as client:
                for i in range(hits):
                    t0 = time.perf_counter()
                    res = client.submit(specs[i % len(specs)])
                    lat.append(time.perf_counter() - t0)
                    if not res.cached:
                        raise RuntimeError("HTTP hit was not served from the store")
            return statistics.median(lat) * ctx.scale
        finally:
            asyncio.run_coroutine_threadsafe(svc.close(), loop).result(10)
            asyncio.run_coroutine_threadsafe(server.close(), loop).result(10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(10)
            loop.close()

    def layer_metrics(self, ctx: Any) -> dict[str, float]:
        specs = [spec for _, spec in self.points]
        n = len(specs)
        store = ResultStore(self.store_dir)
        hashes = store.hashes()
        dicts = [spec.to_dict() for spec in specs]
        lat = self.hit_latencies
        scratch = self.store_dir.with_name("warm-compact")
        shutil.copytree(self.store_dir, scratch)
        try:
            compact_s = ctx.bench(ResultStore(scratch).compact)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        log_bytes = (self.store_dir / ResultStore.RESULTS).stat().st_size
        return {
            **super().layer_metrics(ctx),
            "service.digest_us": 1e6 / n * ctx.bench(
                lambda: [config_digest(s) for s in specs]),
            "service.structure_key_us": 1e6 / n * ctx.bench(
                lambda: [structure_key(s) for s in specs]),
            "service.spec_roundtrip_us": 1e6 / n * ctx.bench(
                lambda: [JobSpec.from_dict(d).to_dict() for d in dicts]),
            "service.store.get_us": 1e6 / n * ctx.bench(
                lambda: [store.get(h) for h in hashes]),
            "service.store.load_ms": 1e3 * ctx.layer_s("service.store.load"),
            "service.store.compact_ms": 1e3 * compact_s,
            "service.store.bytes_per_record": log_bytes / n,
            "service.hit_us_p50": 1e6 * ctx.scale * statistics.median(lat),
            "service.hit_us_p99": 1e6 * ctx.scale * ctx.tail(lat, 99.0),
            "service.http_hit_ms_p50": 1e3 * self.http_hit_s(ctx),
        }


# --------------------------------------------------------------------------
# build_count
# --------------------------------------------------------------------------

class BuildCount(Workload):
    name = "build_count"
    why = ("no simulator, no service: owner maps, graph compilers, comm "
           "plans, hashes, priority sweeps and the three volume counters "
           "for SBC r=6..9 and three 2DBC grids")
    N_COMPILE, N_OBJECT, N_VOLUME, N_LU = 96, 24, 600, 48
    size, size_unit = 7, "distributions"

    def setup(self, seed: int, workdir: Path, tick: Tick) -> None:
        self.dists = [SymmetricBlockCyclic(r) for r in (6, 7, 8, 9)] + [
            BlockCyclic2D(p, q) for p, q in ((5, 4), (7, 4), (6, 6))]
        self.lu_dist = BlockCyclic2D(6, 6)

    def run_pass(self, tr: Any, out: list[Any]) -> Iterator[None]:
        b = B_SWEEP
        tasks = edges = nbytes = 0
        for dist in self.dists:
            machine = bora(dist.num_nodes)
            with tr.span("distributions.owner_map"):
                dist.owner_map(self.N_VOLUME)
            with tr.span("graph.compile"):
                cg = compile_cholesky(self.N_COMPILE, b, dist)
            with tr.span("graph.plan"):
                plan = cg.comm_plan()
            with tr.span("service.structure_hash"):
                structure_hash(cg)
            with tr.span("graph.consumers_csr"):
                cg.consumers_csr()
            with tr.span("graph.priority_sweep"):
                compiled_critical_path_priorities(
                    cg, default_durations(cg, machine))
            with tr.span("comm.fast_count"):
                messages = cholesky_message_count(dist, self.N_COMPILE)
                volume = cholesky_volume_exact(dist, self.N_VOLUME, b)
            with tr.span("graph.object_build"):
                graph = build_cholesky_graph(self.N_OBJECT, b, dist)
            with tr.span("comm.object_count"):
                counted = count_communications(graph)
            with tr.span("graph.lower"):
                lowered = compile_graph(graph)
            out.append((dist, len(plan.pair_dst), messages, volume,
                        counted.num_messages, len(lowered.comm_plan().pair_dst)))
            tasks += cg.n_tasks
            edges += len(cg.read_ids)
            nbytes += array_bytes(cg)
            yield
        with tr.span("graph.compile"):
            lu = compile_lu(self.N_LU, b, self.lu_dist)
        out.append(lu.n_tasks)
        if tr.on:
            self.counts = {
                "graph.tasks": tasks + lu.n_tasks,
                "graph.read_edges": edges + len(lu.read_ids),
                "graph.array_bytes_per_task":
                    (nbytes + array_bytes(lu)) / (tasks + lu.n_tasks),
            }
        yield

    def check(self, out: list[Any]) -> tuple[int, list[str]]:
        *rows, lu_tasks = out
        b = B_SWEEP
        failures = []
        ratios = []
        messages_total = volume_total = mismatches = 0
        for dist, pairs, messages, volume, counted, lowered_pairs in rows:
            fast_small = cholesky_message_count(dist, self.N_OBJECT)
            if isinstance(dist, SymmetricBlockCyclic):
                closed, tol = sbc_cholesky_volume(
                    self.N_VOLUME, dist.r, dist.variant), 1e-3
            else:
                closed, tol = bc2d_cholesky_volume(
                    self.N_VOLUME, dist.p, dist.q), 0.011
            ratio = volume / (closed * b * b * 8)
            if isinstance(dist, SymmetricBlockCyclic):
                ratios.append(ratio)
            bad = []
            if pairs != messages:
                bad.append(f"CommPlan {pairs} != fast counter {messages}")
            if not counted == lowered_pairs == fast_small:
                bad.append(f"object counter {counted}, lowered plan "
                           f"{lowered_pairs}, fast counter {fast_small}")
            if abs(ratio - 1.0) > tol:
                bad.append(f"counted / closed form = {ratio}")
            if bad:
                mismatches += 1
                failures.append(f"{dist.name}: " + "; ".join(bad))
            messages_total += messages
            volume_total += volume
        want_lu = self.expected.get("lu_tasks")
        if lu_tasks != want_lu:
            failures.append(f"compile_lu: {lu_tasks} tasks, expected {want_lu}")
        self.comm_counts = {
            "comm.messages": messages_total,
            "comm.volume_bytes": volume_total,
            "comm.theorem1_ratio": statistics.median(ratios),
            "comm.counter_mismatches": mismatches,
        }
        return len(rows) + 1, failures

    def oracle(self) -> dict[str, Any]:
        return {"lu_tasks": len(
            build_lu_graph(self.N_LU, B_SWEEP, self.lu_dist).tasks)}

    def layer_metrics(self, ctx: Any) -> dict[str, float]:
        return {**super().layer_metrics(ctx), **self.comm_counts}


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PotrfLean, PotrfGeneral, SweepCold, SweepWarm, BuildCount)
}
