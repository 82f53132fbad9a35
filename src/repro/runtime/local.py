"""Local (single-process) execution of task graphs.

This is the numerical backbone of the library: it really runs every tile
kernel, either sequentially (deterministic, used by the test suite) or on
a thread pool with dependency tracking (NumPy's BLAS releases the GIL, so
tile kernels genuinely overlap) — a single-node analogue of StarPU's
dynamic scheduler.

Versions whose every consumer has run are freed eagerly, so peak memory
stays proportional to the matrix, not to the task count.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from typing import Optional

import numpy as np

from ..graph.task import DataKey, TaskGraph
from ..obs import Recorder
from ..tiles.layout import TileGrid
from .execution import InitialDataSpec, apply_task, materialize_initial

__all__ = [
    "execute_graph",
    "final_versions",
    "assemble_lower",
    "assemble_symmetric",
    "assemble_rhs",
]


def final_versions(graph: TaskGraph) -> dict[tuple[str, int, int], DataKey]:
    """Last-written version of every tile (falling back to initial data).

    In 2.5D graphs the partial streams of non-final slices are dead after
    their REDUCE; the last write to a tile is always the version holding
    its final value, so this map is valid for every builder in the library.
    """
    out: dict[tuple[str, int, int], DataKey] = {}
    for key in graph.initial:
        slot = (key.name, key.i, key.j)
        if slot not in out:
            out[slot] = key
    for t in graph.tasks:
        if t.write is not None:
            out[(t.write.name, t.write.i, t.write.j)] = t.write
    return out


def execute_graph(
    graph: TaskGraph,
    spec: InitialDataSpec,
    num_threads: int = 0,
    recorder: Optional[Recorder] = None,
) -> dict[DataKey, np.ndarray]:
    """Run every task; returns the store restricted to final versions.

    ``num_threads`` <= 1 selects the sequential executor.  Pass a
    :class:`repro.obs.Recorder` to collect wall-clock task events
    (seconds since the run started, node = graph placement) plus a
    ``store.bytes.max`` peak-memory gauge; disabled/None recorders cost
    nothing.
    """
    keep = set(final_versions(graph).values())
    rec = recorder if (recorder is not None and recorder.enabled) else None
    if rec is not None and not rec.source:
        rec.source = "local"
    if num_threads and num_threads > 1:
        return _execute_threaded(graph, spec, num_threads, keep, rec)
    return _execute_sequential(graph, spec, keep, rec)


def _refcounts(graph: TaskGraph) -> dict[DataKey, int]:
    counts: dict[DataKey, int] = {}
    for t in graph.tasks:
        for k in t.reads:
            counts[k] = counts.get(k, 0) + 1
    return counts


def _execute_sequential(
    graph: TaskGraph, spec: InitialDataSpec, keep: set,
    rec: Optional[Recorder] = None,
) -> dict[DataKey, np.ndarray]:
    store = materialize_initial(graph, spec)
    refs = _refcounts(graph)
    if rec is not None:
        t0 = time.perf_counter()
        live = sum(v.nbytes for v in store.values())
        peak = rec.metrics.gauge("store.bytes.max", "peak resident tile bytes")
        peak.set_max(live)
    for t in graph.tasks:
        inputs = [store[k] for k in t.reads]
        if rec is not None:
            start = time.perf_counter() - t0
        out = apply_task(t, inputs)
        if rec is not None:
            end = time.perf_counter() - t0
            rec.record_task(t.id, t.kind, t.node, start, start, end, t.flops)
        if t.write is not None:
            store[t.write] = out
            if rec is not None:
                live += out.nbytes
        for k in t.reads:
            refs[k] -= 1
            if refs[k] == 0 and k not in keep:
                if rec is not None:
                    live -= store[k].nbytes
                del store[k]
        if rec is not None:
            peak.set_max(live)
    return {k: v for k, v in store.items() if k in keep}


def _execute_threaded(
    graph: TaskGraph, spec: InitialDataSpec, num_threads: int, keep: set,
    rec: Optional[Recorder] = None,
) -> dict[DataKey, np.ndarray]:
    store = materialize_initial(graph, spec)
    refs = _refcounts(graph)
    lock = threading.Lock()
    t0 = time.perf_counter()
    ready_time: dict[int, float] = {}

    # Dependency bookkeeping: indegree = number of reads with a producer.
    indeg = [0] * len(graph.tasks)
    consumers: list = [[] for _ in range(len(graph.tasks))]
    for t in graph.tasks:
        for k in t.reads:
            pid = graph.producer.get(k)
            if pid is not None:
                indeg[t.id] += 1
                consumers[pid].append(t.id)

    def run_one(tid: int) -> int:
        t = graph.tasks[tid]
        with lock:
            inputs = [store[k] for k in t.reads]
        if rec is not None:
            start = time.perf_counter() - t0
        out = apply_task(t, inputs)
        with lock:
            if rec is not None:
                end = time.perf_counter() - t0
                rec.record_task(t.id, t.kind, t.node,
                                ready_time.get(tid, start), start, end, t.flops)
            if t.write is not None:
                store[t.write] = out
            for k in t.reads:
                refs[k] -= 1
                if refs[k] == 0 and k not in keep:
                    del store[k]
        return tid

    def submit(pool, pending, tid: int) -> None:
        if rec is not None:
            ready_time[tid] = time.perf_counter() - t0
        pending.add(pool.submit(run_one, tid))

    ready = [t.id for t in graph.tasks if indeg[t.id] == 0]
    done_count = 0
    with ThreadPoolExecutor(max_workers=num_threads) as pool:
        pending: set = set()
        for tid in ready:
            submit(pool, pending, tid)
        while pending:
            finished, pending = wait(pending, return_when=FIRST_COMPLETED)
            for fut in finished:
                tid = fut.result()  # re-raises kernel errors
                done_count += 1
                for c in consumers[tid]:
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        submit(pool, pending, c)
    if done_count != len(graph.tasks):
        raise RuntimeError(
            f"executed {done_count}/{len(graph.tasks)} tasks: dependency cycle?"
        )
    return {k: v for k, v in store.items() if k in keep}


# -- result assembly ---------------------------------------------------------


def assemble_lower(
    graph: TaskGraph, store: dict[DataKey, np.ndarray], grid: TileGrid
) -> np.ndarray:
    """Assemble the final "A" tiles into a dense lower-triangular matrix."""
    out = np.zeros((grid.n, grid.n))
    for (name, i, j), key in final_versions(graph).items():
        if name != "A":
            continue
        tile = store[key]
        if i == j:
            tile = np.tril(tile)
        out[grid.row_span(i), grid.row_span(j)] = tile
    return out


def assemble_symmetric(
    graph: TaskGraph, store: dict[DataKey, np.ndarray], grid: TileGrid
) -> np.ndarray:
    """Assemble final "A" tiles into a dense symmetric matrix (POTRI result)."""
    out = np.zeros((grid.n, grid.n))
    for (name, i, j), key in final_versions(graph).items():
        if name != "A":
            continue
        out[grid.row_span(i), grid.row_span(j)] = store[key]
    return np.tril(out) + np.tril(out, -1).T


def assemble_rhs(
    graph: TaskGraph, store: dict[DataKey, np.ndarray], grid: TileGrid, width: int
) -> np.ndarray:
    """Assemble the final "B" tiles into a dense (n, width) matrix."""
    out = np.zeros((grid.n, width))
    for (name, i, _j), key in final_versions(graph).items():
        if name != "B":
            continue
        out[grid.row_span(i), :] = store[key]
    return out
