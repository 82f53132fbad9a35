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
from collections.abc import Mapping
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
# expensive build + comm plan) is identical.  Each worker keeps the last
# compiled graph keyed by the spec's structure key and hands it to the
# next matching point instead of rebuilding.  A run reads its graph and
# never writes it (priorities live with the run), so two thread-executor
# points may simulate the one instance at once.

_graph_memo_lock = threading.Lock()
_graph_memo: Optional[tuple[str, CompiledGraph]] = None


def _compiled(spec: JobSpec, skey: str) -> tuple[CompiledGraph, bool]:
    """(compiled graph, reused?) — reuse only on an exact structure match."""
    global _graph_memo
    with _graph_memo_lock:
        memo = _graph_memo
        if memo is not None and memo[0] == skey:
            return memo[1], True
        # A structure mismatch means the memoized graph is about to be
        # replaced anyway — evict it *before* compiling so the old
        # graph's memory does not inflate the new build's peak RSS
        # (ascending-N sweeps would otherwise hold both at once).
        _graph_memo = None
    cg: CompiledGraph = _build(spec, 1)
    with _graph_memo_lock:
        _graph_memo = (skey, cg)
    return cg, False


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
        skey = structure_key(spec)
        cg, graph_reused = _compiled(spec, skey)
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
