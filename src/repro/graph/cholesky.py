"""The tiled Cholesky factorization (Algorithm 1), written once.

:func:`cholesky_phase` describes each iteration as batches of tiles — the
POTRF, the TRSM panel, the SYRK / GEMM trailing update — and hands them to
a *sink*, which resolves versions and keeps the tasks:
:class:`repro.graph.task.GraphBuilder` as ``Task`` objects,
:class:`repro.graph.compiled.ColumnSink` as array columns.  Every tile has
a single owner given by the distribution and all tasks modifying it run
there (owner computes).

The 2.5D variant of §IV is the same loop nest under a
:class:`~repro.distributions.twod5.TwoDotFiveD` (which owns the geometry:
iteration ``i`` runs on slice ``i mod c``): each slice accumulates partial
updates in its own copy of the trailing matrix (``DataKey(part=s)``), and
explicit REDUCE tasks aggregate the partials onto the iteration's slice
right before the tile's final TRSM / POTRF.  With one slice there is no
partial stream and no REDUCE: the 2D graph is the c = 1 case.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any, Union

import numpy as np

from ..distributions.base import Distribution
from ..distributions.twod5 import TwoDotFiveD
from ..kernels.flops import kernel_flops
from .task import Batch, GraphBuilder, TaskGraph, Tiles

__all__ = [
    "build_cholesky_graph",
    "build_cholesky_graph_25d",
    "declare_spd_tiles",
    "cholesky_phase",
]


Layout = Union[Distribution, TwoDotFiveD]


def slice_owners(dist: TwoDotFiveD, N: int) -> Callable[[Any, Any, Any], Any]:
    """``node(part, i, j)``: a lookup in ``dist.owner_map(N)``."""
    owners = dist.owner_map(N).ravel()  # flat gathers cost half of 3-D ones
    return lambda part, i, j: owners[(part * N + i) * N + j]


def emit_final(
    sink: Any, iteration: int, batch: Batch, partials: tuple[int, ...]
) -> None:
    """Emit the last operation on each of ``batch``'s tiles.

    When other slices hold partial sums of the tiles (``partials``), every
    row is preceded by the REDUCE that adds them onto the row's stream; the
    stream of a tile's final slice started from the input data and the
    others from zero, so the reduction is a plain sum.
    """
    if not partials:
        sink.emit(iteration, batch)
        return
    w = batch.write
    pairs = 2 * np.arange(len(batch.node))
    reduce = Batch(
        "REDUCE", batch.node, (w.i, w.j), w,
        tuple(w._replace(part=t) for t in partials),
        len(partials) * kernel_flops("REDUCE", sink.b), at=pairs)
    sink.emit(iteration, reduce, batch._replace(at=pairs + 1))


def declare_spd_tiles(
    sink: Any, N: int, dist: Layout, descriptor: str = "spd"
) -> None:
    """Declare the initial lower-triangle tiles of A, resident at their owners.

    With several slices, tile (i, j) starts on the slice of its final
    iteration ``j`` (its TRSM, or its POTRF on the diagonal).
    """
    dist = TwoDotFiveD.of(dist)
    j, i = np.triu_indices(N)  # column by column down the lower triangle
    part = dist.slice_of_iteration(j)
    sink.declare_tiles(
        Tiles("A", i, j, part), slice_owners(dist, N)(part, i, j), descriptor)


def cholesky_phase(
    sink: Any,
    N: int,
    dist: Layout,
    iteration_offset: int = 0,
) -> None:
    """Describe POTRF on declared tiles to ``sink``, iteration by iteration."""
    dist = TwoDotFiveD.of(dist)
    slices = dist.c
    node = slice_owners(dist, N)
    flops = {k: kernel_flops(k, sink.b) for k in ("POTRF", "TRSM", "SYRK", "GEMM")}
    # Trailing tiles (j, k), j >= k >= 1, column by column: iteration i
    # updates the columns k > i, a suffix of this list.  ``below`` picks
    # the GEMM tiles (SYRK on the diagonal), ``spot`` is a tile's place in
    # the list — SYRK(k, k) is followed by the GEMMs of its column.
    kk, jj = np.triu_indices(N - 1)
    kk, jj = kk + 1, jj + 1
    col = np.zeros(N + 1, dtype=np.int64)
    np.cumsum(np.arange(N - 1, 0, -1), out=col[2:])
    below = jj > kk
    gk, gj, spot = kk[below], jj[below], np.flatnonzero(below)
    gcol = col - np.arange(N + 1).clip(1) + 1  # col, counted in GEMM tiles
    # Slice s first accumulates at iteration s, from zero, on every
    # trailing tile whose final slice it is not.
    for s in range(min(slices, N) if slices > 1 else 0):
        k, j = kk[col[s + 1]:], jj[col[s + 1]:]
        mine = dist.slice_of_iteration(k) != s
        sink.declare_tiles(Tiles("A", j[mine], k[mine], s),
                           node(s, j[mine], k[mine]), "zero")
    m = np.arange(N, 0, -1)  # active block of each iteration
    sink.reserve(
        tasks=int((m * (m + 1) // 2).sum()) + (slices > 1) * len(kk),
        reads=int((1 + 4 * (m - 1) + 3 * ((m - 1) * (m - 2) // 2)).sum())
        + (slices > 1) * min(slices, N) * len(kk))
    for i in range(N):
        s = dist.slice_of_iteration(i)
        it = iteration_offset + i
        partials = tuple(t for t in range(min(slices, i)) if t != s)
        d = np.array([i])
        rows = np.arange(i + 1, N)
        emit_final(sink, it, Batch(
            "POTRF", node(s, d, d), (i,), Tiles("A", d, d, s), (),
            flops["POTRF"]), partials)
        emit_final(sink, it, Batch(
            "TRSM", node(s, rows, i), (rows, i), Tiles("A", rows, i, s),
            (Tiles("A", i, i, s),), flops["TRSM"]), partials)
        k, j = gk[gcol[i + 1]:], gj[gcol[i + 1]:]
        sink.emit(
            it,
            Batch("SYRK", node(s, rows, rows), (rows, i),
                  Tiles("A", rows, rows, s), (Tiles("A", rows, i, s),),
                  flops["SYRK"], at=col[i + 1:N] - col[i + 1]),
            Batch("GEMM", node(s, j, k), (j, k, i), Tiles("A", j, k, s),
                  (Tiles("A", j, i, s), Tiles("A", k, i, s)),
                  flops["GEMM"], at=spot[gcol[i + 1]:] - col[i + 1]))


def describe_cholesky(sink: Any, N: int, dist: Layout) -> None:
    """Declare A under ``dist`` (2D or 2.5D) and factorise it on ``sink``."""
    declare_spd_tiles(sink, N, dist)
    cholesky_phase(sink, N, dist)


def build_cholesky_graph(
    N: int, b: int, dist: Layout, element_size: int = 8
) -> TaskGraph:
    """Tiled Cholesky graph on ``N x N`` tiles of size ``b``; a
    :class:`TwoDotFiveD` replicates it over its slices (§IV)."""
    return GraphBuilder.build(describe_cholesky, N, b, dist,
                              element_size=element_size)


#: The 2.5D graph (§IV) is the same call with a :class:`TwoDotFiveD`; the
#: name stays for callers that say which one they build.
build_cholesky_graph_25d = build_cholesky_graph
