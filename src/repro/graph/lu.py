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
``dist.owner`` without canonicalization.
"""

from __future__ import annotations

from ..distributions.base import Distribution
from ..distributions.twod5 import TwoDotFiveD
from ..kernels.flops import kernel_flops, lu_total_flops
from .cholesky import _ensure_partial, _reduce_partials
from .task import GraphBuilder, TaskGraph

__all__ = ["build_lu_graph", "build_lu_graph_25d", "lu_total_flops"]


def build_lu_graph(N: int, b: int, dist: Distribution) -> TaskGraph:
    """Tiled LU (no pivoting) task graph on the full N x N tile grid."""
    if N < 1:
        raise ValueError(f"need at least one tile, got N={N}")
    graph = TaskGraph(b)
    bld = GraphBuilder(graph)
    for i in range(N):
        for j in range(N):
            bld.declare("A", i, j, dist.owner(i, j), "lu")

    for i in range(N):
        prev = bld.current("A", i, i)
        diag = bld.bump("A", i, i)
        bld.task("GETRF", dist.owner(i, i), (i,), (prev,), diag,
                 kernel_flops("GETRF", b), i)
        for j in range(i + 1, N):
            prevc = bld.current("A", j, i)
            out = bld.bump("A", j, i)
            bld.task("TRSM_L", dist.owner(j, i), (j, i), (prevc, diag), out,
                     kernel_flops("TRSM_L", b), i)
        for k in range(i + 1, N):
            prevr = bld.current("A", i, k)
            out = bld.bump("A", i, k)
            bld.task("TRSM_U", dist.owner(i, k), (i, k), (prevr, diag), out,
                     kernel_flops("TRSM_U", b), i)
        for j in range(i + 1, N):
            a_ji = bld.current("A", j, i)
            for k in range(i + 1, N):
                a_ik = bld.current("A", i, k)
                prevt = bld.current("A", j, k)
                out = bld.bump("A", j, k)
                bld.task("GEMM_LU", dist.owner(j, k), (j, k, i),
                         (prevt, a_ji, a_ik), out, kernel_flops("GEMM_LU", b), i)
    return graph


def build_lu_graph_25d(N: int, b: int, d25: TwoDotFiveD) -> TaskGraph:
    """2.5D tiled LU without pivoting: replication over ``c`` slices.

    The COnfLUX-style organisation the paper compares against [9]:
    iteration ``i`` runs on slice ``i mod c``, each slice accumulates its
    share of the trailing updates in its own copy of the matrix, and
    REDUCE tasks aggregate the partials right before a tile's final panel
    operation.  Same data-streaming scheme as
    :func:`repro.graph.cholesky.build_cholesky_graph_25d`.
    """
    if N < 1:
        raise ValueError(f"need at least one tile, got N={N}")
    graph = TaskGraph(b)
    bld = GraphBuilder(graph)
    for i in range(N):
        for j in range(N):
            t = d25.slice_of_iteration(min(i, j))
            bld.declare("A", i, j, d25.owner(t, i, j), "lu", part=t)

    for i in range(N):
        s = d25.slice_of_iteration(i)
        acc = _reduce_partials(bld, d25, i, i, s, i)
        diag = bld.bump("A", i, i, part=s)
        bld.task("GETRF", d25.owner(s, i, i), (i,), (acc,), diag,
                 kernel_flops("GETRF", b), i)
        for j in range(i + 1, N):
            accc = _reduce_partials(bld, d25, j, i, s, i)
            out = bld.bump("A", j, i, part=s)
            bld.task("TRSM_L", d25.owner(s, j, i), (j, i), (accc, diag), out,
                     kernel_flops("TRSM_L", b), i)
        for k in range(i + 1, N):
            accr = _reduce_partials(bld, d25, i, k, s, i)
            out = bld.bump("A", i, k, part=s)
            bld.task("TRSM_U", d25.owner(s, i, k), (i, k), (accr, diag), out,
                     kernel_flops("TRSM_U", b), i)
        for j in range(i + 1, N):
            a_ji = bld.current("A", j, i, part=s)
            for k in range(i + 1, N):
                a_ik = bld.current("A", i, k, part=s)
                _ensure_partial(bld, d25, j, k, s)
                prev = bld.current("A", j, k, part=s)
                out = bld.bump("A", j, k, part=s)
                bld.task("GEMM_LU", d25.owner(s, j, k), (j, k, i),
                         (prev, a_ji, a_ik), out, kernel_flops("GEMM_LU", b), i)
    return graph
