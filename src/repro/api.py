"""High-level one-call API.

Convenience front-end tying together the tile layer, graph builders,
communication counters and runtimes:

>>> import repro
>>> dist = repro.SymmetricBlockCyclic(r=4)
>>> L, info = repro.cholesky(n=256, b=32, dist=dist)          # real numerics
>>> gb = repro.communication_volume(dist, ntiles=64, b=500)   # counted volume
>>> rep = repro.simulate_cholesky(ntiles=32, b=500, dist=dist,
...                               machine=repro.bora(dist.num_nodes))
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from .config import MachineSpec, bora
from .comm.counter import CommStats, count_communications
from .comm.fast_counter import cholesky_volume_exact
from .distributions.base import Distribution
from .obs import Recorder, write_chrome_trace
from .distributions.row_cyclic import RowCyclic1D
from .distributions.twod5 import TwoDotFiveD
from .graph.cholesky import build_cholesky_graph
from .graph.compiled import compile_graph
from .graph.lu import build_lu_graph
from .graph.inversion import build_potri_graph
from .graph.solve import build_posv_graph
from .runtime.execution import InitialDataSpec
from .runtime.local import (
    assemble_lower,
    assemble_rhs,
    assemble_symmetric,
    execute_graph,
)
from .runtime.distributed import execute_distributed
from .runtime.simulator import SimReport, simulate_compiled
from .tiles.generation import random_rhs_dense, random_spd_dense
from .tiles.layout import TileGrid

__all__ = [
    "cholesky",
    "solve",
    "inverse",
    "lu",
    "communication_volume",
    "simulate_cholesky",
]


def _grid(n: int, b: int) -> TileGrid:
    grid = TileGrid(n=n, b=b)
    if not grid.is_uniform():
        raise ValueError(
            f"tile size {b} must divide n={n} (the paper's algorithms use "
            "uniform tiles; pad the matrix or adjust b)"
        )
    return grid


def _run(graph, spec: InitialDataSpec, runtime: str, num_threads: int,
         recorder: Optional[Recorder] = None):
    if runtime == "local":
        return execute_graph(graph, spec, recorder=recorder)
    if runtime == "threads":
        return execute_graph(graph, spec, num_threads=num_threads or 4,
                             recorder=recorder)
    if runtime == "distributed":
        return execute_distributed(graph, spec, recorder=recorder).store
    raise ValueError(f"unknown runtime {runtime!r}; use local/threads/distributed")


def cholesky(
    n: int,
    b: int,
    dist: Distribution,
    seed: int = 0,
    runtime: str = "local",
    num_threads: int = 0,
    a: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> tuple[np.ndarray, dict]:
    """Factor an SPD matrix; returns (L, info).

    By default a seeded random SPD matrix is generated (and returned in
    ``info["a"]``); pass ``a`` to factor your own dense SPD matrix.
    ``info`` also carries the task count and the exact communication stats
    of the run under ``dist``.  Pass a :class:`repro.obs.Recorder` as
    ``recorder`` to collect wall-clock task events from the runtime.
    """
    grid = _grid(n, b)
    graph = build_cholesky_graph(grid.ntiles, b, dist)
    spec = InitialDataSpec(grid, seed=seed, matrix=a)
    store = _run(graph, spec, runtime, num_threads, recorder)
    L = assemble_lower(graph, store, grid)
    info = {
        "a": np.asarray(a, dtype=np.float64) if a is not None
        else random_spd_dense(n, seed=seed, b=b),
        "num_tasks": len(graph),
        "comm": count_communications(graph),
    }
    return L, info


def solve(
    n: int,
    b: int,
    dist: Distribution,
    rhs_dist: Optional[Distribution] = None,
    width: int = 0,
    seed: int = 0,
    runtime: str = "local",
    num_threads: int = 0,
    a: Optional[np.ndarray] = None,
    rhs: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> tuple[np.ndarray, dict]:
    """POSV: solve A x = B for SPD A; returns (x, info).

    Seeded random A and B by default; pass ``a`` (dense SPD) and/or
    ``rhs`` (dense ``(n, width)``) to solve your own system.
    """
    grid = _grid(n, b)
    if rhs is not None:
        width = np.asarray(rhs).shape[1]
    width = width if width > 0 else b
    if rhs_dist is None:
        rhs_dist = RowCyclic1D(dist.num_nodes)
    graph = build_posv_graph(grid.ntiles, b, dist, rhs_dist, width=width)
    spec = InitialDataSpec(grid, seed=seed, width=width, matrix=a, rhs=rhs)
    store = _run(graph, spec, runtime, num_threads, recorder)
    x = assemble_rhs(graph, store, grid, width)
    info = {
        "a": np.asarray(a, dtype=np.float64) if a is not None
        else random_spd_dense(n, seed=seed, b=b),
        "b": np.asarray(rhs, dtype=np.float64) if rhs is not None
        else random_rhs_dense(n, width, seed=seed, b=b),
        "num_tasks": len(graph),
        "comm": count_communications(graph),
    }
    return x, info


def inverse(
    n: int,
    b: int,
    dist: Distribution,
    trtri_dist: Optional[Distribution] = None,
    seed: int = 0,
    runtime: str = "local",
    num_threads: int = 0,
    a: Optional[np.ndarray] = None,
    recorder: Optional[Recorder] = None,
) -> tuple[np.ndarray, dict]:
    """POTRI: invert the seeded SPD matrix; returns (A^{-1}, info).

    Pass ``trtri_dist`` to use the paper's remapping strategy (TRTRI under
    a different distribution, with redistribution before and after).
    """
    grid = _grid(n, b)
    graph = build_potri_graph(grid.ntiles, b, dist, trtri_dist=trtri_dist)
    spec = InitialDataSpec(grid, seed=seed, matrix=a)
    store = _run(graph, spec, runtime, num_threads, recorder)
    inv = assemble_symmetric(graph, store, grid)
    info = {
        "a": np.asarray(a, dtype=np.float64) if a is not None
        else random_spd_dense(n, seed=seed, b=b),
        "num_tasks": len(graph),
        "comm": count_communications(graph),
    }
    return inv, info


def lu(
    n: int,
    b: int,
    dist: Distribution,
    seed: int = 0,
    runtime: str = "local",
    num_threads: int = 0,
    recorder: Optional[Recorder] = None,
) -> tuple[np.ndarray, dict]:
    """LU factorization without pivoting of a seeded diagonally-dominant
    matrix; returns (packed LU, info).  The packed result holds the strict
    lower part of the unit L factor and the full U factor, LAPACK-style.
    """
    grid = _grid(n, b)
    graph = build_lu_graph(grid.ntiles, b, dist)
    spec = InitialDataSpec(grid, seed=seed)
    store = _run(graph, spec, runtime, num_threads, recorder)
    from .runtime.local import final_versions

    packed = np.zeros((n, n))
    for (_name, i, j), key in final_versions(graph).items():
        packed[grid.row_span(i), grid.row_span(j)] = store[key]
    a = np.zeros((n, n))
    for key, (_home, desc) in graph.initial.items():
        if desc == "lu":
            a[grid.row_span(key.i), grid.row_span(key.j)] = spec.materialize(key, desc)
    info = {
        "a": a,
        "num_tasks": len(graph),
        "comm": count_communications(graph),
    }
    return packed, info


def communication_volume(dist: Distribution, ntiles: int, b: int) -> float:
    """Exact POTRF communication volume in GB for ``ntiles`` tiles of size b."""
    return cholesky_volume_exact(dist, ntiles, b) / 1e9


def simulate_cholesky(
    ntiles: int,
    b: int,
    dist: Union[Distribution, TwoDotFiveD],
    machine: Optional[MachineSpec] = None,
    synchronized: bool = False,
    broadcast: str = "direct",
    aggregate: bool = False,
    trace: bool = False,
    trace_path: Optional[str] = None,
    recorder: Optional[Recorder] = None,
) -> SimReport:
    """Simulated POTRF run under a 2D ``dist`` or a :class:`TwoDotFiveD`.

    Runs the array core on the lowered graph, which keeps its data keys,
    so the result — a trace included — is the oracle's
    (:func:`repro.runtime.simulator.simulate`), whose ``broadcast`` /
    ``aggregate`` communication optimizations these are.

    Observability (see ``docs/observability.md``): ``trace=True`` records
    per-task and per-message events, returned on ``SimReport.obs``
    together with the run's metrics; ``trace_path=`` additionally writes
    a Perfetto/``chrome://tracing``-loadable JSON there (and implies
    ``trace``); ``recorder=`` supplies your own
    :class:`repro.obs.Recorder` to accumulate across runs.
    """
    machine = machine or bora(dist.num_nodes)
    graph = build_cholesky_graph(ntiles, b, dist, machine.element_size)
    report = simulate_compiled(
        compile_graph(graph),
        machine,
        synchronized=synchronized,
        broadcast=broadcast,
        aggregate=aggregate,
        trace=trace or trace_path is not None,
        recorder=recorder,
    )
    if trace_path is not None:
        write_chrome_trace(report.obs, trace_path)
    return report
