"""Per-node memory accounting (§IV's storage trade-off).

2.5D algorithms buy communication with memory: each of the ``c`` slices
stores a full copy of the matrix.  These helpers compute exact per-node
storage for the library's distributions so the trade-off can be reported
next to the volumes — including the paper's §IV-B observation that the
optimal SBC configuration needs a factor cbrt(2) *less* memory than the
optimal 2.5D block-cyclic one.
"""

from __future__ import annotations

import numpy as np

from ..distributions.analysis import lower_tile_counts
from ..distributions.base import Distribution
from ..distributions.twod5 import TwoDotFiveD

__all__ = [
    "max_tiles_per_node",
    "memory_per_node_bytes",
    "replication_factor",
]


def max_tiles_per_node(dist, N: int) -> int:
    """Largest number of lower-triangle tiles any node stores.

    For a :class:`TwoDotFiveD` distribution each slice holds a full copy
    laid out with the base distribution, so the per-node maximum equals
    the base distribution's.
    """
    if isinstance(dist, TwoDotFiveD):
        return max_tiles_per_node(dist.base, N)
    counts = lower_tile_counts(dist, N)
    return int(counts.max())


def memory_per_node_bytes(dist, N: int, b: int, element_size: int = 8) -> int:
    """Peak per-node storage for the symmetric operand, in bytes."""
    return max_tiles_per_node(dist, N) * b * b * element_size


def replication_factor(dist, N: int) -> float:
    """Total stored tiles across the platform / tiles of the matrix.

    1.0 for any 2D distribution; ``c`` for a 2.5D distribution with ``c``
    slices (every slice stores the whole matrix).
    """
    S = N * (N + 1) / 2
    if isinstance(dist, TwoDotFiveD):
        return dist.c * 1.0
    counts = lower_tile_counts(dist, N)
    return float(counts.sum() / S)
