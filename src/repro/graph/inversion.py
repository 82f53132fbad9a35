"""TRTRI, LAUUM and the POTRI workflow (§V-F.2), as batch phases.

POTRI computes the inverse of an SPD matrix in three steps sharing one
task graph:

1. ``A <- POTRF(A)``      (Cholesky: A holds L)
2. ``A <- TRTRI(A)``      (triangular inversion: A holds L^{-1})
3. ``A <- LAUUM(A)``      (symmetric product: A holds (L^{-1})^T L^{-1} = A^{-1})

TRTRI's interior update at iteration ``k`` on tile (m, n), m > k > n, reads
tiles (m, k) *and* (k, n) — a nonsymmetric pattern broadcasting along rows
and columns independently, which favours 2DBC over SBC.  LAUUM's pattern is
symmetric like POTRF's.  :func:`describe_potri` therefore supports the
paper's mixed strategy: POTRF and LAUUM under one distribution, TRTRI under
another, with explicit remaps in between, handled asynchronously by the
runtime and overlapped with computation.  A remap is one zero-flop REMAP
task per tile whose owner changes: it runs on the *new* owner, reads the
current version (one transfer), and produces the next version there.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Optional

import numpy as np

from ..distributions.base import Distribution
from ..kernels.flops import kernel_flops
from .cholesky import cholesky_phase, declare_spd_tiles
from .task import Batch, GraphBuilder, TaskGraph, Tiles

__all__ = ["build_trtri_graph", "build_lauum_graph", "build_potri_graph",
           "describe_trtri", "describe_lauum", "describe_potri",
           "trtri_phase", "lauum_phase", "remap_phase"]

A = partial(Tiles, "A")


def trtri_phase(sink: Any, N: int, dist: Distribution, iteration_offset: int) -> None:
    """In-place inversion of the lower-triangular factor held in A.

    Tiled left-looking algorithm (PLASMA's ztrtri ordering): at iteration
    ``k``, the panel below the diagonal is scaled by ``-L_{k,k}^{-1}`` on
    the right, interior tiles (m, n) with n < k < m accumulate
    ``A_{m,k} A_{k,n}``, row ``k`` is scaled by ``L_{k,k}^{-1}`` on the
    left, and finally the diagonal tile is inverted.
    """
    owner = dist.owner_map(N)
    flops = partial(kernel_flops, b=sink.b)
    inner = N * (N - 1) * (N - 2) // 6  # interior tiles, over all k
    sink.reserve(tasks=N * N + inner, reads=N * (2 * N - 1) + 3 * inner)
    for k in range(N):
        it = iteration_offset + k
        d, below, left = np.array([k]), np.arange(k + 1, N), np.arange(k)
        m, n = np.repeat(below, k), np.tile(left, N - 1 - k)
        sink.emit(it, Batch("TRSM_RINV", owner[below, k], (below, k),
                            A(below, k), (A(k, k),), flops("TRSM_RINV")))
        sink.emit(it, Batch("GEMM_INV", owner[m, n], (m, n, k), A(m, n),
                            (A(m, k), A(k, n)), flops("GEMM_INV")))
        sink.emit(it, Batch("TRSM_LINV", owner[k, left], (k, left),
                            A(k, left), (A(k, k),), flops("TRSM_LINV")))
        sink.emit(it, Batch("TRTRI", owner[d, d], (k,), A(d, d), (), flops("TRTRI")))


def lauum_phase(sink: Any, N: int, dist: Distribution, iteration_offset: int) -> None:
    """In-place ``A <- W^T W`` for the lower-triangular W held in A.

    At iteration ``k``, row ``k`` of W contributes rank-b updates to the
    tiles above it in its columns — the same symmetric row+column broadcast
    pattern as POTRF (each tile (k, n) feeds column n and, transposed, row
    n), which is why SBC also benefits LAUUM.
    """
    owner = dist.owner_map(N)
    flops = partial(kernel_flops, b=sink.b)
    inner = N * (N - 1) * (N - 2) // 6  # GEMM_T tiles, over all k
    sink.reserve(tasks=N * N + inner, reads=N * (2 * N - 1) + 3 * inner)
    for k in range(N):
        it = iteration_offset + k
        d, left = np.array([k]), np.arange(k)
        # Column by column: SYRK_T on (n, n), then the GEMM_Ts below it.
        n, m = np.triu_indices(k, 1)
        spot = left * k - left * (left - 1) // 2
        sink.emit(it,
                  Batch("SYRK_T", owner[left, left], (k, left), A(left, left),
                        (A(k, left),), flops("SYRK_T"), at=spot),
                  Batch("GEMM_T", owner[m, n], (m, n, k), A(m, n),
                        (A(k, m), A(k, n)), flops("GEMM_T"), at=spot[n] + m - n))
        sink.emit(it, Batch("TRMM", owner[k, left], (k, left), A(k, left),
                            (A(k, k),), flops("TRMM")))
        sink.emit(it, Batch("LAUUM", owner[d, d], (k,), A(d, d), (), flops("LAUUM")))


def remap_phase(
    sink: Any, N: int, to_dist: Distribution, iteration: int, name: str = "A"
) -> int:
    """Move every lower-triangle tile of ``name`` to ``to_dist``'s owner.

    Returns the number of tiles actually moved (tiles whose current source
    node already matches the new owner are left untouched — no task, no
    communication)."""
    j, i = np.triu_indices(N)  # column by column
    new = to_dist.owner_map(N)[i, j]
    move = sink.source_of(Tiles(name, i, j)) != new
    i, j, new = i[move], j[move], new[move]
    sink.reserve(tasks=len(new), reads=len(new))
    sink.emit(iteration, Batch("REMAP", new, (i, j), Tiles(name, i, j), (), 0.0))
    return len(new)


def _standalone(phase: Any, sink: Any, N: int, dist: Distribution) -> None:
    """One phase alone; initial tiles hold a lower-triangular matrix."""
    declare_spd_tiles(sink, N, dist, descriptor="tri")
    phase(sink, N, dist, 0)


describe_trtri = partial(_standalone, trtri_phase)
describe_lauum = partial(_standalone, lauum_phase)


def describe_potri(
    sink: Any, N: int, dist: Distribution, trtri_dist: Optional[Distribution] = None
) -> None:
    """POTRI = POTRF + TRTRI + LAUUM as one merged description.

    When ``trtri_dist`` is given, the matrix is remapped to it before TRTRI
    and back to ``dist`` afterwards — the paper's "SBC remap 2DBC" strategy.
    """
    remap = trtri_dist is not None  # each remap is an iteration of its own
    declare_spd_tiles(sink, N, dist)
    cholesky_phase(sink, N, dist)
    if remap:
        remap_phase(sink, N, trtri_dist, iteration=N)
    trtri_phase(sink, N, trtri_dist if remap else dist, N + remap)
    if remap:
        remap_phase(sink, N, dist, iteration=2 * N + 1)
    lauum_phase(sink, N, dist, 2 * N + 2 * remap)


def build_trtri_graph(N: int, b: int, dist: Distribution) -> TaskGraph:
    """The standalone TRTRI task graph."""
    return GraphBuilder.build(describe_trtri, N, b, dist)


def build_lauum_graph(N: int, b: int, dist: Distribution) -> TaskGraph:
    """The standalone LAUUM task graph."""
    return GraphBuilder.build(describe_lauum, N, b, dist)


def build_potri_graph(
    N: int, b: int, dist: Distribution, trtri_dist: Optional[Distribution] = None
) -> TaskGraph:
    """The POTRI task graph, TRTRI under ``trtri_dist`` when one is given."""
    return GraphBuilder.build(describe_potri, N, b, dist, trtri_dist)
