"""Triangular solves and POSV (§V-F.1), as batch phases.

POSV solves ``A x = B`` for SPD ``A``: a Cholesky factorization followed by
a forward solve ``L y = B`` and a backward solve ``L^T x = y``.  As in the
paper, the right-hand side is a panel of ``N x 1`` tiles (width ``w``,
customarily ``w = b``) distributed 1D row-cyclically regardless of the
distribution of A, and the three operations share one task graph with no
synchronization in between.
"""

from __future__ import annotations

from functools import partial
from typing import Any

import numpy as np

from ..distributions.base import Distribution
from ..kernels.flops import kernel_flops
from .cholesky import cholesky_phase, declare_spd_tiles
from .task import Batch, GraphBuilder, TaskGraph, Tiles

__all__ = ["build_posv_graph", "describe_posv", "forward_solve_phase",
           "backward_solve_phase"]


def _substitution(
    sink: Any, N: int, rhs_dist: Distribution, iteration_offset: int, transposed: bool
) -> None:
    """Describe ``B <- L^{-1} B`` (or ``L^{-T}``, from the last row up): row
    ``i`` is solved against the diagonal tile, then eliminated from the rows
    after it — through L's column ``i`` — or, transposed, from the rows
    before it, through L's row ``i``."""
    solve, update = (("TRSM_SOLVE_T", "GEMM_RHS_T") if transposed
                     else ("TRSM_SOLVE", "GEMM_RHS"))
    flops = {k: kernel_flops(k, sink.b, sink.width) for k in (solve, update)}
    home = rhs_dist.owner_map(N)[:, 0]
    sink.reserve(tasks=N * (N + 1) // 2, reads=2 * N + 3 * (N * (N - 1) // 2))
    for step in range(N):
        it = iteration_offset + step
        i = N - 1 - step if transposed else step
        d = np.array([i])
        rows = np.arange(i) if transposed else np.arange(i + 1, N)
        factor = Tiles("A", i, rows) if transposed else Tiles("A", rows, i)
        sink.emit(it, Batch(solve, home[d], (i,), Tiles("B", d, 0),
                            (Tiles("A", i, i),), flops[solve]))
        sink.emit(it, Batch(update, home[rows], (rows, i), Tiles("B", rows, 0),
                            (factor, Tiles("B", i, 0)), flops[update]))


#: ``B <- L^{-1} B`` and ``B <- L^{-T} B``; A tiles must hold the factor.
forward_solve_phase = partial(_substitution, transposed=False)
backward_solve_phase = partial(_substitution, transposed=True)


def describe_posv(
    sink: Any, N: int, dist: Distribution, rhs_dist: Distribution
) -> None:
    """POSV = POTRF + forward + backward solve, as one merged description;
    the right-hand side is ``sink.width`` columns wide."""
    declare_spd_tiles(sink, N, dist)
    rows = np.arange(N)
    sink.declare_tiles(Tiles("B", rows, 0), rhs_dist.owner_map(N)[:, 0], "rhs")
    cholesky_phase(sink, N, dist)
    forward_solve_phase(sink, N, rhs_dist, iteration_offset=N)
    backward_solve_phase(sink, N, rhs_dist, iteration_offset=2 * N)


def build_posv_graph(
    N: int, b: int, dist: Distribution, rhs_dist: Distribution, width: int = 0
) -> TaskGraph:
    """The POSV task graph.  ``width`` is the number of right-hand-side
    columns (defaults to ``b``, i.e. a one-tile-wide B like in the paper's
    experiments)."""
    return GraphBuilder.build(describe_posv, N, b, dist, rhs_dist,
                              width=width if width > 0 else b)
