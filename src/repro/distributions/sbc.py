"""Symmetric Block-Cyclic (SBC) distribution — the paper's contribution.

The generic pattern is an ``r x r`` grid in which each node is a *pair*
``{x, y}`` with ``0 <= x < y < r``, placed at the two symmetric positions
``(x, y)`` and ``(y, x)``.  Repeating the pattern over the tile grid makes
the set of nodes appearing in pattern row ``d`` equal to the set appearing
in pattern column ``d`` (all pairs containing ``d``), so the row broadcast
and the column broadcast of a TRSM result hit the *same* ``r - 1`` nodes
instead of ``p + q - 1`` distinct ones — the source of the sqrt(2)
communication reduction.

Two policies allocate the pattern's diagonal positions (§III-C):

* **basic** (even ``r`` only): ``r/2`` extra nodes are added and assigned
  round-robin on the diagonal, giving ``P = r^2/2`` nodes and a broadcast
  fan-out of ``r - 1``.
* **extended** (any ``r >= 2``): the existing ``P = r(r-1)/2`` pair-nodes
  also cover the diagonal, using a family of diagonal *patterns* cycled
  round-robin over block columns.  Every diagonal entry at position ``d``
  is a pair containing ``d`` (hence already part of row/column ``d``'s
  broadcast set), so the fan-out drops to ``r - 2``.

The diagonal-pattern families follow the paper exactly: for odd ``r``,
``(r-1)/2`` patterns built from gap-``l`` pair groups; for even ``r``,
``r - 1`` patterns assembled from left/right *packs* plus the *bonus pack*
of gap-``r/2`` pairs.
"""

from __future__ import annotations


import numpy as np

from .base import Distribution

__all__ = ["SymmetricBlockCyclic", "pair_index", "pair_from_index", "sbc_num_nodes"]


def pair_index(x: int, y: int) -> int:
    """Node id of the pair {x, y} (x != y): colexicographic numbering.

    Matches the paper's figures: (0,1)->0, (0,2)->1, (1,2)->2, (0,3)->3, ...
    """
    if x == y:
        raise ValueError(f"a pair needs two distinct indices, got ({x}, {y})")
    lo, hi = (x, y) if x < y else (y, x)
    if lo < 0:
        raise ValueError(f"pair indices must be non-negative, got ({x}, {y})")
    return hi * (hi - 1) // 2 + lo


def pair_from_index(node: int) -> tuple:
    """Inverse of :func:`pair_index`."""
    if node < 0:
        raise ValueError(f"node id must be non-negative, got {node}")
    hi = 1
    while hi * (hi + 1) // 2 <= node:
        hi += 1
    lo = node - hi * (hi - 1) // 2
    return (lo, hi)


def sbc_num_nodes(r: int, variant: str = "extended") -> int:
    """Number of nodes used by SBC with parameter ``r``."""
    if variant == "extended":
        return r * (r - 1) // 2
    if variant == "basic":
        if r % 2:
            raise ValueError(f"basic SBC requires even r, got {r}")
        return r * r // 2
    raise ValueError(f"unknown SBC variant {variant!r}")


def _odd_diagonal_patterns(r: int) -> list[list[int]]:
    """The (r-1)/2 diagonal patterns for odd r (§III-C.2, Figure 4).

    Pattern ``l`` places the gap-``l`` pairs (d, d+l) at positions
    ``0 .. r-l-1`` (first group: node shares its *row*) and the gap-(r-l)
    pairs (j, r-l+j) at positions ``r-l .. r-1`` (second group: node shares
    its *column*).
    """
    patterns = []
    for l in range(1, (r - 1) // 2 + 1):
        diag = [0] * r
        for d in range(r - l):
            diag[d] = pair_index(d, d + l)
        for j in range(l):
            diag[r - l + j] = pair_index(j, r - l + j)
        patterns.append(diag)
    return patterns


def _even_diagonal_patterns(r: int) -> list[list[int]]:
    """The r-1 diagonal patterns for even r (§III-C.2, Figures 5-6).

    The first ``r/2 - 1`` patterns are built like in the odd case and split
    into a *left pack* (positions 0..r/2-1) and a *right pack* (positions
    r/2..r-1).  The *bonus pack* holds the gap-r/2 pairs (i, i+r/2); placed
    on the left it puts pair (i, i+r/2) at position i (same row), on the
    right at position r/2+i (same column).  ``r/2`` additional patterns are
    formed by prepending the bonus pack to the list of left packs and
    appending it to the list of right packs, then combining the lists
    index-wise.
    """
    half = r // 2
    lefts: list[list[int]] = []
    rights: list[list[int]] = []
    for l in range(1, half):
        diag = [0] * r
        for d in range(r - l):
            diag[d] = pair_index(d, d + l)
        for j in range(l):
            diag[r - l + j] = pair_index(j, r - l + j)
        lefts.append(diag[:half])
        rights.append(diag[half:])
    bonus = [pair_index(i, i + half) for i in range(half)]

    patterns = [lefts[k] + rights[k] for k in range(half - 1)]
    shifted_lefts = [bonus] + lefts
    shifted_rights = rights + [bonus]
    patterns += [shifted_lefts[k] + shifted_rights[k] for k in range(half)]
    return patterns


class SymmetricBlockCyclic(Distribution):
    """The SBC distribution with parameter ``r`` (pattern side length)."""

    def __init__(self, r: int, variant: str = "extended"):
        if r < 2:
            raise ValueError(f"SBC requires r >= 2, got {r}")
        if variant not in ("basic", "extended"):
            raise ValueError(f"unknown SBC variant {variant!r}")
        if variant == "basic" and r % 2:
            raise ValueError(f"basic SBC requires even r, got {r}")
        self.r = r
        self.variant = variant
        self._P = sbc_num_nodes(r, variant)
        if variant == "basic":
            # One pattern; diagonal position d gets extra node d mod r/2.
            base = r * (r - 1) // 2
            self._diag_patterns = [
                [base + (d % (r // 2)) for d in range(r)]
            ]
        else:
            if r == 2:
                # Single pair-node owns everything, including the diagonal.
                self._diag_patterns = [[0, 0]]
            elif r % 2:
                self._diag_patterns = _odd_diagonal_patterns(r)
            else:
                self._diag_patterns = _even_diagonal_patterns(r)
        self._diag_array = np.asarray(self._diag_patterns, dtype=np.int64)
        # Owner of pattern position (x, y), x != y: the pair {x, y}.
        self._pairs = np.array([[pair_index(x, y) if x != y else -1 for y in range(r)]
                                for x in range(r)], dtype=np.int64)

    @property
    def num_nodes(self) -> int:
        return self._P

    @property
    def name(self) -> str:
        return f"SBC-{self.variant}(r={self.r})"

    @property
    def num_diag_patterns(self) -> int:
        return len(self._diag_patterns)

    def diagonal_patterns(self) -> list[list[int]]:
        """Copy of the diagonal pattern family (one list of r entries each)."""
        return [list(p) for p in self._diag_patterns]

    def owner(self, i: int, j: int) -> int:
        if i < 0 or j < 0:
            raise IndexError(f"tile indices must be non-negative, got ({i}, {j})")
        if i < j:
            # Symmetric canonicalization: only the lower triangle is stored.
            i, j = j, i
        x, y = i % self.r, j % self.r
        if x != y:
            return pair_index(x, y)
        # Diagonal pattern position; patterns cycle round-robin column-wise.
        pattern = (j // self.r) % len(self._diag_patterns)
        return self._diag_patterns[pattern][x]

    def owner_map(self, N: int) -> np.ndarray:
        r = self.r
        x = np.arange(N) % r
        out = self._pairs[x[:, None], x[None, :]]
        # Overwrite the pattern-diagonal positions (x == y), choosing the
        # diagonal pattern from the *column* block index of the
        # lower-triangle representative of each tile.
        blocks = np.arange(N) // r
        for d in range(min(r, N)):
            b = blocks[d::r]
            pattern = np.minimum.outer(b, b) % len(self._diag_patterns)
            out[d::r, d::r] = self._diag_array[pattern, d]
        return out

    def broadcast_fanout(self) -> int:
        """Nodes a full-row TRSM result is sent to (Theorem 1)."""
        return self.r - 1 if self.variant == "basic" else self.r - 2

    def validate(self) -> None:
        """Structural invariants of the pattern construction."""
        r = self.r
        for diag in self._diag_patterns:
            if len(diag) != r:
                raise AssertionError("diagonal pattern has wrong length")
            for d, node in enumerate(diag):
                if self.variant == "basic":
                    if not r * (r - 1) // 2 <= node < self._P:
                        raise AssertionError(
                            f"basic diagonal entry {node} is not an extra node"
                        )
                elif r > 2:
                    lo, hi = pair_from_index(node)
                    if d not in (lo, hi):
                        raise AssertionError(
                            f"diagonal entry at position {d} is pair {(lo, hi)}, "
                            f"which does not contain {d}: broadcast sets would grow"
                        )
        if self.variant == "extended" and r > 2:
            # Balance: over the whole family, each node appears the same
            # number of times on the diagonal (once for odd r, twice for even).
            counts = np.bincount(
                self._diag_array.ravel(), minlength=self._P
            )
            expected = 1 if r % 2 else 2
            if not np.all(counts == expected):
                raise AssertionError(
                    f"diagonal appearance counts {counts} != {expected}"
                )
