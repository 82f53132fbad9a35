"""Tiled LU factorization without pivoting (the paper's §III-E foil).

The paper repeatedly contrasts Cholesky with the nonsymmetric LU
factorization: 2DBC is communication-optimal for LU (each tile is used
along its row *or* its column, never both ways), and SBC's achievement is
to bring Cholesky's arithmetic intensity up to LU-with-2DBC's.  This
module provides the tiled right-looking LU (no pivoting — the variant all
the communication-avoiding literature analyses) so those claims can be
measured rather than asserted:

    for i:  A[i,i] <- GETRF(A[i,i])
            A[j,i] <- A[j,i] U[i,i]^{-1}          (TRSM_L, column panel)
            A[i,k] <- L[i,i]^{-1} A[i,k]          (TRSM_U, row panel)
            A[j,k] <- A[j,k] - A[j,i] A[i,k]      (GEMM_LU)

Every tile of the square matrix is stored (no symmetry), distributed by
``dist.owner`` without canonicalization.  Like Cholesky
(:mod:`repro.graph.cholesky`), the loop nest is one batch phase for both
sinks, and the COnfLUX-style 2.5D organisation the paper compares against
[9] is the same phase under a :class:`TwoDotFiveD`: iteration ``i`` on
slice ``i mod c``, partial trailing updates per slice, REDUCE before a
tile's final panel operation.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..distributions.twod5 import TwoDotFiveD
from ..kernels.flops import kernel_flops, lu_total_flops
from .cholesky import Layout, emit_final, slice_owners
from .task import Batch, GraphBuilder, TaskGraph, Tiles

__all__ = ["build_lu_graph", "build_lu_graph_25d", "lu_total_flops"]


def lu_phase(sink: Any, N: int, dist: TwoDotFiveD) -> None:
    """Describe GETRF on the declared full tile grid to ``sink``."""
    slices = dist.c
    node = slice_owners(dist, N)
    flops = {k: kernel_flops(k, sink.b)
             for k in ("GETRF", "TRSM_L", "TRSM_U", "GEMM_LU")}

    def trailing(i: int) -> tuple[Any, Any]:
        """Tiles (j, k), j, k > i, row by row."""
        rows = np.arange(i + 1, N)
        return np.repeat(rows, len(rows)), np.tile(rows, len(rows))

    # Slice s first accumulates at iteration s, from zero, on every
    # trailing tile whose final slice it is not.
    for s in range(min(slices, N) if slices > 1 else 0):
        j, k = trailing(s)
        mine = dist.slice_of_iteration(np.minimum(j, k)) != s
        sink.declare_tiles(Tiles("A", j[mine], k[mine], s),
                           node(s, j[mine], k[mine]), "zero")
    m = np.arange(N, 0, -1)  # active block of each iteration
    sink.reserve(
        tasks=int((m * m).sum()) + (slices > 1) * N * N,
        reads=int((1 + 4 * (m - 1) + 3 * (m - 1) ** 2).sum())
        + (slices > 1) * min(slices, N) * N * N)
    for i in range(N):
        s = dist.slice_of_iteration(i)
        partials = tuple(t for t in range(min(slices, i)) if t != s)
        d = np.array([i])
        rows = np.arange(i + 1, N)
        pivot = (Tiles("A", i, i, s),)
        emit_final(sink, i, Batch(
            "GETRF", node(s, d, d), (i,), Tiles("A", d, d, s), (),
            flops["GETRF"]), partials)
        emit_final(sink, i, Batch(
            "TRSM_L", node(s, rows, i), (rows, i), Tiles("A", rows, i, s),
            pivot, flops["TRSM_L"]), partials)
        emit_final(sink, i, Batch(
            "TRSM_U", node(s, i, rows), (i, rows), Tiles("A", i, rows, s),
            pivot, flops["TRSM_U"]), partials)
        j, k = trailing(i)
        sink.emit(i, Batch(
            "GEMM_LU", node(s, j, k), (j, k, i), Tiles("A", j, k, s),
            (Tiles("A", j, i, s), Tiles("A", i, k, s)), flops["GEMM_LU"]))


def describe_lu(sink: Any, N: int, dist: Layout) -> None:
    """Declare A under ``dist`` (2D or 2.5D) and factorise it on ``sink``.

    With several slices, tile (i, j) starts on the slice of its final
    iteration ``min(i, j)``.
    """
    dist = TwoDotFiveD.of(dist)
    i, j = np.divmod(np.arange(N * N), N)  # row by row
    part = dist.slice_of_iteration(np.minimum(i, j))
    sink.declare_tiles(
        Tiles("A", i, j, part), slice_owners(dist, N)(part, i, j), "lu")
    lu_phase(sink, N, dist)


def build_lu_graph(N: int, b: int, dist: Layout, element_size: int = 8) -> TaskGraph:
    """Tiled LU (no pivoting) task graph on the full N x N tile grid; a
    :class:`TwoDotFiveD` replicates it over its slices."""
    return GraphBuilder.build(describe_lu, N, b, dist, element_size=element_size)


#: The 2.5D graph is the same call with a :class:`TwoDotFiveD`.
build_lu_graph_25d = build_lu_graph
