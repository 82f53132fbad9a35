"""Task-graph builders for TRTRI, LAUUM and the POTRI workflow (§V-F.2).

POTRI computes the inverse of an SPD matrix in three steps sharing one
task graph:

1. ``A <- POTRF(A)``      (Cholesky: A holds L)
2. ``A <- TRTRI(A)``      (triangular inversion: A holds L^{-1})
3. ``A <- LAUUM(A)``      (symmetric product: A holds (L^{-1})^T L^{-1} = A^{-1})

TRTRI's interior update at iteration ``k`` on tile (m, n), m > k > n, reads
tiles (m, k) *and* (k, n) — a nonsymmetric pattern broadcasting along rows
and columns independently, which favours 2DBC over SBC.  LAUUM's pattern is
symmetric like POTRF's.  ``build_potri_graph`` therefore supports the
paper's mixed strategy: POTRF and LAUUM under one distribution, TRTRI under
another, with explicit remaps in between.
"""

from __future__ import annotations

from typing import Optional

from ..distributions.base import Distribution
from ..kernels.flops import kernel_flops
from .cholesky import cholesky_phase, declare_spd_tiles
from .redistribution import remap_phase
from .task import GraphBuilder, TaskGraph

__all__ = [
    "build_trtri_graph",
    "build_lauum_graph",
    "build_potri_graph",
    "trtri_phase",
    "lauum_phase",
]


def trtri_phase(
    bld: GraphBuilder, N: int, dist: Distribution, iteration_offset: int
) -> None:
    """In-place inversion of the lower-triangular factor held in A.

    Tiled left-looking algorithm (PLASMA's ztrtri ordering): at iteration
    ``k``, the panel below the diagonal is scaled by ``-L_{k,k}^{-1}`` on
    the right, interior tiles (m, n) with n < k < m accumulate
    ``A_{m,k} A_{k,n}``, row ``k`` is scaled by ``L_{k,k}^{-1}`` on the
    left, and finally the diagonal tile is inverted.
    """
    b = bld.graph.b
    for k in range(N):
        it = iteration_offset + k
        diag = bld.current("A", k, k)
        for m in range(k + 1, N):
            prev = bld.current("A", m, k)
            out = bld.bump("A", m, k)
            bld.task("TRSM_RINV", dist.owner(m, k), (m, k), (prev, diag), out,
                     kernel_flops("TRSM_RINV", b), it)
        for m in range(k + 1, N):
            a_mk = bld.current("A", m, k)
            for n in range(k):
                a_kn = bld.current("A", k, n)
                prev = bld.current("A", m, n)
                out = bld.bump("A", m, n)
                bld.task("GEMM_INV", dist.owner(m, n), (m, n, k),
                         (prev, a_mk, a_kn), out, kernel_flops("GEMM_INV", b), it)
        for n in range(k):
            prev = bld.current("A", k, n)
            out = bld.bump("A", k, n)
            bld.task("TRSM_LINV", dist.owner(k, n), (k, n), (prev, diag), out,
                     kernel_flops("TRSM_LINV", b), it)
        out = bld.bump("A", k, k)
        bld.task("TRTRI", dist.owner(k, k), (k,), (diag,), out,
                 kernel_flops("TRTRI", b), it)


def lauum_phase(
    bld: GraphBuilder, N: int, dist: Distribution, iteration_offset: int
) -> None:
    """In-place ``A <- W^T W`` for the lower-triangular W held in A.

    At iteration ``k``, row ``k`` of W contributes rank-b updates to the
    tiles above it in its columns — the same symmetric row+column broadcast
    pattern as POTRF (each tile (k, n) feeds column n and, transposed, row
    n), which is why SBC also benefits LAUUM.
    """
    b = bld.graph.b
    for k in range(N):
        it = iteration_offset + k
        for n in range(k):
            a_kn = bld.current("A", k, n)
            prev = bld.current("A", n, n)
            out = bld.bump("A", n, n)
            bld.task("SYRK_T", dist.owner(n, n), (k, n), (prev, a_kn), out,
                     kernel_flops("SYRK_T", b), it)
            for m in range(n + 1, k):
                a_km = bld.current("A", k, m)
                prev = bld.current("A", m, n)
                out = bld.bump("A", m, n)
                bld.task("GEMM_T", dist.owner(m, n), (m, n, k),
                         (prev, a_km, a_kn), out, kernel_flops("GEMM_T", b), it)
        diag = bld.current("A", k, k)
        for n in range(k):
            prev = bld.current("A", k, n)
            out = bld.bump("A", k, n)
            bld.task("TRMM", dist.owner(k, n), (k, n), (prev, diag), out,
                     kernel_flops("TRMM", b), it)
        out = bld.bump("A", k, k)
        bld.task("LAUUM", dist.owner(k, k), (k,), (diag,), out,
                 kernel_flops("LAUUM", b), it)


def build_trtri_graph(N: int, b: int, dist: Distribution) -> TaskGraph:
    """Standalone TRTRI graph; initial tiles hold a lower-triangular matrix."""
    bld = GraphBuilder.sized(N, b)
    declare_spd_tiles(bld, N, dist, descriptor="tri")
    trtri_phase(bld, N, dist, 0)
    return bld.graph


def build_lauum_graph(N: int, b: int, dist: Distribution) -> TaskGraph:
    """Standalone LAUUM graph; initial tiles hold a lower-triangular matrix."""
    bld = GraphBuilder.sized(N, b)
    declare_spd_tiles(bld, N, dist, descriptor="tri")
    lauum_phase(bld, N, dist, 0)
    return bld.graph


def build_potri_graph(
    N: int,
    b: int,
    dist: Distribution,
    trtri_dist: Optional[Distribution] = None,
) -> TaskGraph:
    """POTRI = POTRF + TRTRI + LAUUM as one merged task graph.

    When ``trtri_dist`` is given, the matrix is remapped to it before TRTRI
    and back to ``dist`` afterwards — the paper's "SBC remap 2DBC" strategy.
    """
    bld = GraphBuilder.sized(N, b)
    declare_spd_tiles(bld, N, dist)
    cholesky_phase(bld, N, dist)
    offset = N
    if trtri_dist is not None:
        remap_phase(bld, N, trtri_dist, iteration=offset)
        offset += 1
        trtri_phase(bld, N, trtri_dist, iteration_offset=offset)
        offset += N
        remap_phase(bld, N, dist, iteration=offset)
        offset += 1
    else:
        trtri_phase(bld, N, dist, iteration_offset=offset)
        offset += N
    lauum_phase(bld, N, dist, iteration_offset=offset)
    return bld.graph
