"""Abstract interface for static tile-to-node distributions.

A distribution assigns each tile (i, j) of the tiled matrix to one of
``num_nodes`` computing nodes.  Following the paper, distributions are
static: ownership never changes during an operation (redistribution between
operations is expressed explicitly with remap tasks, see
:func:`repro.graph.inversion.remap_phase`).

All tasks that *modify* a tile run on its owner (the *owner computes* rule),
so the distribution fully determines task placement and, with it, the
communication volume of the algorithm.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Distribution"]


class Distribution(abc.ABC):
    """Maps tile coordinates to node identifiers in ``range(num_nodes)``."""

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Total number of computing nodes used by this distribution."""

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short human-readable identifier (used in reports and plots)."""

    @abc.abstractmethod
    def owner(self, i: int, j: int) -> int:
        """Node owning tile (i, j).

        Symmetric distributions may canonicalize to the lower triangle
        (``owner(i, j) == owner(j, i)``); the block-cyclic family does not.
        """

    def owner_map(self, N: int) -> np.ndarray:
        """Dense ``N x N`` int array of owners; subclasses may vectorize.

        The default implementation loops over :meth:`owner`, which is
        adequate for correctness tests; performance-critical counters use
        the vectorized overrides.
        """
        out = np.empty((N, N), dtype=np.int64)
        for i in range(N):
            for j in range(N):
                out[i, j] = self.owner(i, j)
        return out

    def validate(self) -> None:
        """Hook for structural self-checks; raises on inconsistency."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name} P={self.num_nodes}>"
