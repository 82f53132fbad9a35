"""Worker-side execution of one sweep point.

:func:`run_point` is a pure top-level function — (spec dict in, result
dict out) — so the server can ship it to a ``ProcessPoolExecutor``
unchanged.  It builds the task graph for the requested engine, computes
the structure hash (:mod:`repro.service.hashing`), simulates, and
returns a JSON-ready record: status, point hash, per-phase timings
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
from collections.abc import Callable, Mapping
from concurrent.futures import Future
from dataclasses import fields
from operator import itemgetter
from typing import Any, Optional

from ..graph import OPERATIONS, compile_graph
from ..graph.compiled import CompiledGraph
from ..graph.task import TaskGraph
from ..obs import Recorder
from ..runtime.faults import SimulatedFailure
from ..runtime.simulator import SimReport, simulate, simulate_compiled
from .hashing import config_digest, point_hash, structure_hash, structure_key
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


def _build(spec: JobSpec, sink: int) -> Any:
    """The algorithm's description in the oracle's sink (0: objects) or the
    core's (1: columns); 2.5D is the description's ``slices`` > 1 case, so
    the distribution needs no fork."""
    return OPERATIONS[spec.algorithm][sink](
        spec.ntiles, spec.b, spec.distribution(),
        spec.machine_spec().element_size)


# --------------------------------------------------------------------------
# incremental re-simulation: worker-side compiled-graph memo
# --------------------------------------------------------------------------
# Sweeps routinely vary only network/machine constants, fault seeds or
# scheduler policies across points — the graph structure (and hence the
# expensive build + comm plan) is identical.  Each worker holds compiled
# graphs keyed by the spec's structure key and hands them to later
# matching points instead of rebuilding:
#
# * a structure built for the first time is held only until the next
#   build, and dropped *before* it, so a sweep of distinct structures
#   (ascending N) holds one graph at a time;
# * a structure built a second time is one that sweeps come back to (a
#   figure's options over one set of layouts), so it is kept.  Before
#   each build the kept graphs are evicted, least recently used first,
#   until their bytes are within GRAPH_MEMO_BYTES; a second build larger
#   than that is held like a first, so no graph past the budget is held
#   beside a build;
# * a point whose structure another thread is building waits for that
#   build instead of starting its own.
#
# A run reads its graph and never writes it (priorities live with the
# run), so thread-executor points may simulate one instance at once.  The
# memo lives as long as the server: SweepServer.close() clears it for the
# thread executor, and pool workers die with their pool.

#: Bytes (CompiledGraph.nbytes) of kept graphs a worker may hold at a build.
GRAPH_MEMO_BYTES = 64 << 20


class GraphMemo:
    """This process's compiled graphs by structure key (see above)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: held graphs, least recently used first
        self._held: OrderedDict[str, CompiledGraph] = OrderedDict()
        self._once: Optional[str] = None  # the held graph built only once
        self._built: set[str] = set()  # every structure built since clear()
        self._building: dict[str, Future[CompiledGraph]] = {}

    def __len__(self) -> int:
        return len(self._held)

    def __contains__(self, skey: str) -> bool:
        return skey in self._held

    def get(self, skey: str,
            build: Callable[[], CompiledGraph]) -> tuple[CompiledGraph, bool]:
        """(graph, reused?): the held or in-flight graph of ``skey``, else
        ``build()``'s."""
        with self._lock:
            cg = self._held.get(skey)
            if cg is not None:
                self._held.move_to_end(skey)
                return cg, True
            waiting = self._building.get(skey)
            if waiting is None:
                self._drop_once()
                total = sum(g.nbytes for g in self._held.values())
                while total > GRAPH_MEMO_BYTES:
                    total -= self._held.popitem(last=False)[1].nbytes
                pending: Future[CompiledGraph] = Future()
                self._building[skey] = pending
        if waiting is not None:
            return waiting.result(), True
        try:
            cg = build()
        except BaseException as exc:
            with self._lock:
                del self._building[skey]
            pending.set_exception(exc)
            raise
        with self._lock:
            del self._building[skey]
            if skey not in self._built or cg.nbytes > GRAPH_MEMO_BYTES:
                self._drop_once()
                self._once = skey
            self._built.add(skey)
            self._held[skey] = cg
        pending.set_result(cg)
        return cg, False

    def clear(self) -> None:
        """Drop every graph and forget which structures were built."""
        with self._lock:
            self._held.clear()
            self._once = None
            self._built.clear()

    def _drop_once(self) -> None:
        if self._once is not None:
            del self._held[self._once]
            self._once = None


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
        cg, graph_reused = graph_memo.get(structure_key(spec),
                                          lambda: _build(spec, 1))
        memo = cg._structure_hash
        if memo is None:
            memo = structure_hash(cg)
            cg._structure_hash = memo
        struct = memo
        t1 = time.perf_counter()
        cg.comm_plan()
        t2 = time.perf_counter()
        runner = lambda: simulate_compiled(cg, machine, **options)  # noqa: E731
    else:
        graph: TaskGraph = _build(spec, 0)
        struct = structure_hash(compile_graph(graph))
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
        "hash": point_hash(struct, config_digest(spec)),
        "structure": struct,
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
