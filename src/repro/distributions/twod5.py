"""2.5D distributions: replication of a 2D distribution over ``c`` slices.

Following §IV of the paper, ``P = c * Q`` nodes are partitioned into ``c``
slices of ``Q`` nodes; each slice stores a full copy of the matrix laid out
with the same base 2D distribution.  Iteration ``i`` of the factorization
is performed entirely by slice ``i mod c``; the partial GEMM/SYRK updates
a tile accumulates on its ``c`` owner copies are combined by an explicit
reduction onto the slice that runs the tile's TRSM/POTRF iteration.

This module only provides the *geometry* (which global node owns the copy
of tile (i, j) held by slice ``s``); the reduction tasks themselves are
inserted by the graph builders (:mod:`repro.graph.cholesky`).
"""

from __future__ import annotations

from typing import Any, Union

import numpy as np

from .base import Distribution

__all__ = ["TwoDotFiveD"]


class TwoDotFiveD:
    """Replicates ``base`` over ``c`` slices; node ids are ``s*Q + base_id``."""

    def __init__(self, base: Distribution, c: int):
        if c < 1:
            raise ValueError(f"slice count must be positive, got {c}")
        if isinstance(base, TwoDotFiveD):
            raise ValueError("2.5d base must be a 2D distribution")
        self.base = base
        self.c = c

    @classmethod
    def of(cls, dist: Union[Distribution, "TwoDotFiveD"]) -> "TwoDotFiveD":
        """``dist`` as slices: a plain 2D distribution is the one-slice case."""
        return dist if isinstance(dist, cls) else cls(dist, 1)

    @property
    def num_nodes(self) -> int:
        return self.c * self.base.num_nodes

    @property
    def slice_size(self) -> int:
        return self.base.num_nodes

    @property
    def name(self) -> str:
        return f"2.5D[{self.base.name}, c={self.c}]"

    def slice_of_iteration(self, i: Any) -> Any:
        """Slice performing iteration ``i`` (round-robin, §IV); ``i`` may be
        an array of iterations."""
        if np.any(np.less(i, 0)):
            raise IndexError(f"iteration must be non-negative, got {i}")
        return i % self.c

    def owner(self, s: int, i: int, j: int) -> int:
        """Global node id of slice ``s``'s copy of tile (i, j)."""
        if not 0 <= s < self.c:
            raise IndexError(f"slice {s} out of range [0, {self.c})")
        return s * self.base.num_nodes + self.base.owner(i, j)

    def owner_map(self, N: int) -> np.ndarray:
        """``(c, N, N)`` int32 array of :meth:`owner` over slices and tiles."""
        first = np.arange(self.c, dtype=np.int32) * self.base.num_nodes
        return first[:, None, None] + self.base.owner_map(N).astype(np.int32)

    def node_slice(self, node: int) -> int:
        """Slice a global node id belongs to."""
        if not 0 <= node < self.num_nodes:
            raise IndexError(f"node {node} out of range [0, {self.num_nodes})")
        return node // self.base.num_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<TwoDotFiveD {self.name} P={self.num_nodes}>"
