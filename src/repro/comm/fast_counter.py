"""Vectorized exact communication counting for the Cholesky and LU graphs.

Counting transfers on the explicit task graph is O(N^3) tasks; for the
paper's largest runs (N = 600 tiles) that is 36M tasks — too slow to build
in Python.  This module computes the *same exact count* from the owner map
alone, using the structure of Algorithm 1:

* the POTRF result (i, i) is read by the TRSM tasks of column ``i``;
* the TRSM result (j, i) is read by the GEMMs of row ``j`` (columns
  ``i+1 .. j-1``), the SYRK on (j, j), and the GEMMs of column ``j``
  (rows ``j+1 .. N-1``).

Each produced tile is therefore sent to ``popcount(owners-of-consumers
minus its own owner)``.  Owner sets are node bitmasks — one uint64 *word*
per 64 nodes, so platforms of any size work (the paper never exceeds
P = 36, but 2.5D sweeps at large ``r * c`` routinely pass 64) — held word
axis first, shape ``(W, N, N)``.  Every consumer set is a suffix of a row
or column, so the count is a fixed number of whole-array passes: the
one-hot masks, ``np.tril`` / ``np.triu``, one ``bitwise_or.accumulate``
per axis (Cholesky folds its column suffix into the diagonal with one
``bitwise_or.reduce``), ``& ~owner`` and ``np.bitwise_count``.  That is
O(N^2 * W) work with no Python loop over tiles, and the peak allocation,
owner map included, stays within 8 words per tile per mask word (about 4
at N = 600).  Equality with the graph's plan count is property-tested.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from ..distributions.base import Distribution

__all__ = [
    "cholesky_volume_exact",
    "cholesky_message_count",
    "cholesky_node_traffic",
    "lu_message_count",
    "lu_volume_exact",
]


def _owner_map(dist: Distribution, N: int) -> npt.NDArray[np.integer]:
    """``dist``'s N x N owner map, refused if it is not one."""
    owners = dist.owner_map(N)
    if owners.shape != (N, N):
        raise ValueError(
            f"{dist.name}: owner map of shape {owners.shape}, not ({N}, {N}); "
            "the fast counters take a 2D layout — count a 2.5D one with "
            "count_communications(compile_cholesky(N, b, dist)) or compile_lu")
    if owners.size and owners.min() < 0:
        raise ValueError("owner map contains negative node ids")
    return owners


def _masks(owners: npt.NDArray[np.integer]) -> npt.NDArray[np.uint64]:
    """One-hot node bitmask of every tile, shape ``(W, N, N)``."""
    words = int(owners.max()) // 64 + 1 if owners.size else 1
    bit = (owners & 63).astype(np.uint64)
    np.left_shift(np.uint64(1), bit, out=bit)
    masks = np.zeros((words,) + owners.shape, dtype=np.uint64)
    np.put_along_axis(masks, (owners >> 6)[None], bit[None], axis=0)
    return masks


def _suffix_or(masks: npt.NDArray[np.uint64], axis: int) -> npt.NDArray[np.uint64]:
    """In place: entry ``t`` along ``axis`` becomes the OR of entries ``t:``."""
    rev = np.flip(masks, axis=axis)
    np.bitwise_or.accumulate(rev, axis=axis, out=rev)
    return masks


def _destination_masks(
    owners: npt.NDArray[np.integer],
) -> npt.NDArray[np.uint64]:
    """Per-tile destination bitmasks for POTRF under owner map ``owners``.

    Returns a (W, N, N) uint64 array D where D[:, j, i] (j > i) has bit
    ``n`` set iff node ``n`` receives the TRSM result (j, i), D[:, i, i]
    the receivers of the POTRF result, and zero above the diagonal.
    """
    masks = _masks(owners)
    lower = np.tril(masks)
    # Diagonal (j, j) <- column j from the diagonal down: the SYRK and the
    # GEMMs below it, which read every TRSM result of row j.
    diag = np.arange(owners.shape[0])
    lower[:, diag, diag] = np.bitwise_or.reduce(lower, axis=1)
    # Row suffix from column i: the GEMMs (j, i+1..j-1) plus that set.  It
    # also holds tile (j, i)'s own owner, which the `& ~owner` drops.
    dests = _suffix_or(lower, axis=-1)
    dests &= np.invert(masks, out=masks)
    return dests


def cholesky_message_count(dist: Distribution, N: int) -> int:
    """Total number of tile messages for POTRF on N x N tiles."""
    return int(np.bitwise_count(_destination_masks(_owner_map(dist, N))).sum())


def cholesky_node_traffic(
    dist: Distribution, N: int
) -> "tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]":
    """Exact per-node (sent, received) message counts for POTRF.

    Returns two ``num_nodes``-long int arrays; ``sent.sum() ==
    recv.sum() == cholesky_message_count(dist, N)``.  This is the input
    of the per-port bandwidth bounds (:mod:`repro.runtime.bounds`).
    """
    owners = _owner_map(dist, N)
    dests = _destination_masks(owners)
    P = dist.num_nodes
    sent = np.zeros(P, dtype=np.int64)
    np.add.at(sent, owners, np.bitwise_count(dests).sum(axis=0, dtype=np.int64))
    # One masked count per node the mask words hold (bit n of word n // 64
    # is node n); nodes past them, or past the largest owner, receive 0.
    recv = np.zeros(P, dtype=np.int64)
    hit = np.empty_like(dests[0])
    for node in range(min(P, 64 * len(dests))):
        word, bit = divmod(node, 64)
        recv[node] = np.count_nonzero(
            np.bitwise_and(dests[word], np.uint64(1 << bit), out=hit))
    assert sent.sum() == recv.sum(), (
        f"per-node message accounting out of balance: "
        f"sent {int(sent.sum())} != received {int(recv.sum())}"
    )
    return sent, recv


def cholesky_volume_exact(
    dist: Distribution, N: int, b: int, element_size: int = 8
) -> int:
    """Exact POTRF communication volume in bytes (matches the graph counter)."""
    return cholesky_message_count(dist, N) * b * b * element_size


def lu_message_count(dist: Distribution, N: int) -> int:
    """Total tile messages for the tiled LU without pivoting.

    Consumers (see :mod:`repro.graph.lu`): the GETRF result (i, i) feeds
    the two panels of step i; an L-panel tile (j, i) feeds the GEMMs of
    row j right of column i; a U-panel tile (i, k) feeds the GEMMs of
    column k below row i.  LU has no symmetric reuse, which is why 2DBC is
    already communication-optimal for it (§III-E).
    """
    masks = _masks(_owner_map(dist, N))
    # Row suffixes reach the L panel, column suffixes the U panel, and the
    # diagonal both; each also holds the tile's own owner, dropped below.
    dests = np.tril(_suffix_or(masks.copy(), axis=-1))
    dests |= np.triu(_suffix_or(masks.copy(), axis=-2))
    dests &= np.invert(masks, out=masks)
    return int(np.bitwise_count(dests).sum())


def lu_volume_exact(dist: Distribution, N: int, b: int, element_size: int = 8) -> int:
    """Exact LU communication volume in bytes (matches the graph counter)."""
    return lu_message_count(dist, N) * b * b * element_size
