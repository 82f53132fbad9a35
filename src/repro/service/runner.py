"""Worker-side execution of one sweep point.

:func:`run_point` is a pure top-level function — (spec dict in, result
dict out) — so the server can ship it to a ``ProcessPoolExecutor``
unchanged.  It builds the task graph for the requested engine, simulates,
and returns a JSON-ready record: status, the spec and its config digest
(the point's address, :mod:`repro.service.hashing`), per-phase timings
(build / plan / simulate), the serialized :class:`SimReport`, and an
optional ``repro.obs`` metrics summary.

Determinism contract: the record is a function of the spec alone.  Both
engines are deterministic (the fault plans are seeded; see
:mod:`repro.runtime.faults`), so a memoized report is bit-identical to a
fresh run — the test suite asserts this for both engines, and it is what
makes content-addressed caching sound.  A seeded worker *crash* is also
deterministic, so failed runs are memoized too (status ``"failed"``
with the diagnostic message) instead of being retried forever.

Serialized reports drop the per-event trace (``SimReport.trace`` /
``transfers`` — unbounded at paper scale); summaries and metrics are
kept.  Submit with ``collect_metrics=True`` to store the run's
metric registry dump alongside the report.
"""

from __future__ import annotations

import resource
import threading
import time
from collections import OrderedDict
from collections.abc import Callable, Hashable, Mapping
from concurrent.futures import Future
from dataclasses import fields
from operator import itemgetter
from typing import Any, Optional

from ..distributions.twod5 import TwoDotFiveD
from ..graph import OPERATIONS
from ..graph.compiled import CompiledGraph, compile_dag, place
from ..graph.task import TaskGraph
from ..obs import Recorder
from ..runtime.faults import SimulatedFailure
from ..runtime.simulator import SimReport, simulate, simulate_compiled
from .hashing import config_digest, structure_key
from .jobs import JobSpec

__all__ = [
    "run_point",
    "report_to_dict",
    "report_from_dict",
]


_FIELDS = tuple(f.name for f in fields(SimReport))
#: The :class:`SimReport` fields a stored report keeps: those before the
#: event traces, in field order, so a report is rebuilt positionally.
REPORT_KEYS = _FIELDS[:_FIELDS.index("trace")]
_report_values = itemgetter(*REPORT_KEYS)


def report_to_dict(rep: SimReport) -> dict[str, Any]:
    """Lossless JSON form of a :class:`SimReport` (event traces dropped).

    ``json`` serializes floats via ``repr``, which round-trips doubles
    exactly — a reloaded report is bit-identical to the original.
    """
    d = {name: getattr(rep, name) for name in REPORT_KEYS}
    return {**d, "busy_time": list(d["busy_time"]),
            "time_by_kind": dict(d["time_by_kind"])}


def report_from_dict(d: Mapping[str, Any]) -> SimReport:
    """Rebuild a :class:`SimReport` from :func:`report_to_dict` output; its
    list and dict are fresh (callers may mutate them)."""
    rep = SimReport(*_report_values(d))
    rep.busy_time, rep.time_by_kind = list(rep.busy_time), dict(rep.time_by_kind)
    return rep


def dag_key(spec: JobSpec) -> tuple[Any, ...]:
    """``compile_dag``'s arguments for the point: its structure less the
    layout, save the layout's slice count."""
    return (spec.algorithm, spec.ntiles, spec.b,
            TwoDotFiveD.of(spec.distribution()).c, spec.machine["element_size"])


def _build(spec: JobSpec, sink: int) -> Any:
    """The algorithm's description in the oracle's sink (0: an object
    graph), or its DAG in the core's (1: columns on tile slots, which
    every layout of the point's slice count places)."""
    if sink:
        return compile_dag(*dag_key(spec))
    return OPERATIONS[spec.algorithm][0](
        spec.ntiles, spec.b, spec.distribution(),
        spec.machine_spec().element_size)


# --------------------------------------------------------------------------
# incremental re-simulation: worker-side DAG memo
# --------------------------------------------------------------------------
# Sweeps vary the layout at one N (a figure's curves), machine constants,
# fault seeds or policies far more often than the task DAG, which only
# owner-computes placement ties to a layout.  Each worker holds DAGs by
# dag_key and, beside each, its placements by structure key:
#
# * a point whose DAG is held (or in flight: it waits for that build)
#   places it with one gather, or takes the placement an earlier point
#   made, comm plan included;
# * a DAG's consumer adjacency is built with it, for all its placements;
# * before each build, the least recently used DAGs are dropped, with
#   their placements, until the arrays held (shared ones counted once)
#   fit GRAPH_MEMO_BYTES, so a DAG larger than that is held only until
#   the next build.
#
# A run reads its graph and never writes it (priorities live with the
# run), so thread-executor points may simulate one instance at once.  The
# memo lives as long as the server: SweepServer.close() clears it for the
# thread executor, and pool workers die with their pool.

#: Bytes (arrays counted once) of DAGs and placements a worker may hold
#: at a build.
GRAPH_MEMO_BYTES = 64 << 20


def _nbytes(graphs: Any) -> int:
    """Bytes of the graphs' arrays, an array shared by several once."""
    return sum({id(a): a.nbytes for g in graphs for a in g.arrays()}.values())


class GraphMemo:
    """This process's DAGs and their placements (see above)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: held DAGs, least recently used first, each with its placements
        self._held: OrderedDict[
            Hashable, tuple[CompiledGraph, dict[str, CompiledGraph]]
        ] = OrderedDict()
        self._building: dict[Hashable, Future[CompiledGraph]] = {}

    def __len__(self) -> int:
        return len(self._held)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._held

    def get(self, key: Hashable, build: Callable[[], CompiledGraph],
            layout: str, place: Callable[[CompiledGraph], CompiledGraph]
            ) -> tuple[CompiledGraph, bool]:
        """(graph, reused?): ``place`` of the DAG ``key`` names — held, in
        flight, else ``build()``'s (not reused) — kept beside it as
        ``layout``."""
        dag, reused = self._dag(key, build)
        with self._lock:
            held = self._held.get(key)
            placed = held[1] if held is not None and held[0] is dag else {}
            if layout not in placed:
                placed[layout] = place(dag)
            return placed[layout], reused

    def _dag(self, key: Hashable,
             build: Callable[[], CompiledGraph]) -> tuple[CompiledGraph, bool]:
        with self._lock:
            held = self._held.get(key)
            if held is not None:
                self._held.move_to_end(key)
                return held[0], True
            waiting = self._building.get(key)
            if waiting is None:
                sizes = [_nbytes((dag, *placed.values()))
                         for dag, placed in self._held.values()]
                total = sum(sizes)
                for size in sizes:  # least recently used first
                    if total <= GRAPH_MEMO_BYTES:
                        break
                    self._held.popitem(last=False)
                    total -= size
                pending: Future[CompiledGraph] = Future()
                self._building[key] = pending
        if waiting is not None:
            return waiting.result(), True
        try:
            dag = build()
            dag.consumers_csr()  # built once, for every placement
        except BaseException as exc:
            with self._lock:
                del self._building[key]
            pending.set_exception(exc)
            raise
        with self._lock:
            del self._building[key]
            self._held[key] = (dag, {})
        pending.set_result(dag)
        return dag, False

    def clear(self) -> None:
        """Drop every DAG and placement."""
        with self._lock:
            self._held.clear()


#: The worker's memo (one per process: a pool worker has its own).
graph_memo = GraphMemo()


def run_point(spec_dict: Mapping[str, Any]) -> dict[str, Any]:
    """Execute one sweep point; returns the store-ready record body."""
    spec = JobSpec.from_dict(dict(spec_dict))
    faults = spec.fault_plan()
    machine = spec.machine_spec()
    recorder = Recorder(source="service") if spec.collect_metrics else None

    graph_reused = False
    # The run options, said once for whichever engine the spec names.
    options: dict[str, Any] = {
        "synchronized": spec.synchronized, "broadcast": spec.broadcast,
        "aggregate": spec.aggregate, "recorder": recorder, "faults": faults,
        "scheduler": spec.policy}

    t0 = time.perf_counter()
    if spec.engine == "compiled":
        layout = spec.distribution()
        cg, graph_reused = graph_memo.get(
            dag_key(spec), lambda: _build(spec, 1), structure_key(spec),
            lambda dag: place(dag, spec.ntiles, layout))
        t1 = time.perf_counter()
        cg.comm_plan()
        t2 = time.perf_counter()
        runner = lambda: simulate_compiled(cg, machine, **options)  # noqa: E731
    else:
        graph: TaskGraph = _build(spec, 0)
        t1 = time.perf_counter()
        t2 = t1
        runner = lambda: simulate(graph, machine, **options)  # noqa: E731

    status = "ok"
    error: Optional[str] = None
    report: Optional[dict[str, Any]] = None
    try:
        rep = runner()
        report = report_to_dict(rep)
    except SimulatedFailure as exc:
        # Seeded crash plans fail deterministically: memoize the outcome.
        status = "failed"
        error = str(exc)
    t3 = time.perf_counter()

    metrics = None
    if recorder is not None:
        metrics = recorder.metrics.as_dict()

    return {
        "hash": config_digest(spec),
        "spec": spec.to_dict(),
        "status": status,
        "error": error,
        "report": report,
        "metrics": metrics,
        # This process's RSS high-water mark (MiB).  run_point executes in
        # the worker (executor process or thread), so unlike a parent-side
        # RUSAGE_SELF read this actually covers the simulation; it is
        # monotone per worker, hence an upper bound when workers are
        # reused across points.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "graph_reused": graph_reused,
        "timings": {
            "build_seconds": t1 - t0,
            "plan_seconds": t2 - t1,
            "sim_seconds": t3 - t2,
        },
    }
