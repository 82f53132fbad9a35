"""Task-graph builders for triangular solves and POSV (§V-F.1).

POSV solves ``A x = B`` for SPD ``A``: a Cholesky factorization followed by
a forward solve ``L y = B`` and a backward solve ``L^T x = y``.  As in the
paper, the right-hand side is a panel of ``N x 1`` tiles (width ``w``,
customarily ``w = b``) distributed 1D row-cyclically regardless of the
distribution of A, and the three operations share one task graph with no
synchronization in between.
"""

from __future__ import annotations

from ..distributions.base import Distribution
from ..kernels.flops import kernel_flops
from .cholesky import cholesky_phase, declare_spd_tiles
from .task import GraphBuilder, TaskGraph

__all__ = ["build_posv_graph", "forward_solve_phase", "backward_solve_phase"]


def forward_solve_phase(
    bld: GraphBuilder, N: int, rhs_dist: Distribution, iteration_offset: int
) -> None:
    """Append ``B <- L^{-1} B`` tasks; A tiles must hold the factor."""
    b, w = bld.graph.b, bld.graph.width
    for i in range(N):
        it = iteration_offset + i
        diag = bld.current("A", i, i)
        prev = bld.current("B", i, 0)
        out = bld.bump("B", i, 0)
        bld.task("TRSM_SOLVE", rhs_dist.owner(i, 0), (i,), (prev, diag), out,
                 kernel_flops("TRSM_SOLVE", b, w), it)
        for j in range(i + 1, N):
            a_ji = bld.current("A", j, i)
            prevj = bld.current("B", j, 0)
            outj = bld.bump("B", j, 0)
            bld.task("GEMM_RHS", rhs_dist.owner(j, 0), (j, i),
                     (prevj, a_ji, out), outj, kernel_flops("GEMM_RHS", b, w), it)


def backward_solve_phase(
    bld: GraphBuilder, N: int, rhs_dist: Distribution, iteration_offset: int
) -> None:
    """Append ``B <- L^{-T} B`` tasks; A tiles must hold the factor."""
    b, w = bld.graph.b, bld.graph.width
    for step, i in enumerate(range(N - 1, -1, -1)):
        it = iteration_offset + step
        diag = bld.current("A", i, i)
        prev = bld.current("B", i, 0)
        out = bld.bump("B", i, 0)
        bld.task("TRSM_SOLVE_T", rhs_dist.owner(i, 0), (i,), (prev, diag), out,
                 kernel_flops("TRSM_SOLVE_T", b, w), it)
        for j in range(i):
            # B_j -= L_{i,j}^T B_i : uses the sub-diagonal tile (i, j).
            a_ij = bld.current("A", i, j)
            prevj = bld.current("B", j, 0)
            outj = bld.bump("B", j, 0)
            bld.task("GEMM_RHS_T", rhs_dist.owner(j, 0), (j, i),
                     (prevj, a_ij, out), outj, kernel_flops("GEMM_RHS_T", b, w), it)


def build_posv_graph(
    N: int,
    b: int,
    dist: Distribution,
    rhs_dist: Distribution,
    width: int = 0,
) -> TaskGraph:
    """POSV = POTRF + forward + backward solve, as one merged task graph.

    ``width`` is the number of right-hand-side columns (defaults to ``b``,
    i.e. a one-tile-wide B like in the paper's experiments).
    """
    width = width if width > 0 else b
    bld = GraphBuilder.sized(N, b, width=width)
    declare_spd_tiles(bld, N, dist)
    for i in range(N):
        bld.declare("B", i, 0, rhs_dist.owner(i, 0), "rhs")
    cholesky_phase(bld, N, dist)
    forward_solve_phase(bld, N, rhs_dist, iteration_offset=N)
    backward_solve_phase(bld, N, rhs_dist, iteration_offset=2 * N)
    return bld.graph
