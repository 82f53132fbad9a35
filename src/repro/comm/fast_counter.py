"""Vectorized exact communication counting for the Cholesky graph.

Counting transfers on the explicit task graph is O(N^3) tasks; for the
paper's largest runs (N = 600 tiles) that is 36M tasks — too slow to build
in Python.  This module computes the *same exact count* in O(N^2) numpy
work, using the structure of Algorithm 1:

* the POTRF result (i, i) is read by the TRSM tasks of column ``i``;
* the TRSM result (j, i) is read by the GEMMs of row ``j`` (columns
  ``i+1 .. j-1``), the SYRK on (j, j), and the GEMMs of column ``j``
  (rows ``j+1 .. N-1``).

Each produced tile is therefore sent to ``popcount(owners-of-consumers
minus its own owner)``.  Owner sets are represented as node bitmasks —
one uint64 *word* per 64 nodes, so platforms of any size work (the paper
never exceeds P = 36, but 2.5D sweeps at large ``r * c`` routinely pass
64) — and segment unions become prefix/suffix bitwise ORs.  Equality
with the generic graph counter is property-tested.
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

_POP8 = np.array([bin(v).count("1") for v in range(256)], dtype=np.int64)


def _popcount(arr: npt.NDArray[np.uint64]) -> npt.NDArray[np.int64]:
    """Per-mask population count; masks live on the trailing word axis."""
    b = arr.view(np.uint8).reshape(arr.shape[:-1] + (arr.shape[-1] * 8,))
    return _POP8[b].sum(axis=-1)


def _num_words(owners: npt.NDArray[np.integer]) -> int:
    """Mask words needed for this owner map (one uint64 per 64 nodes)."""
    if owners.size and owners.min() < 0:
        raise ValueError("owner map contains negative node ids")
    top = int(owners.max()) if owners.size else 0
    return top // 64 + 1


def _masks(
    owners: npt.NDArray[np.integer], words: int
) -> npt.NDArray[np.uint64]:
    """Per-entry one-hot bitmasks, shape ``owners.shape + (words,)``."""
    out = np.zeros(owners.shape + (words,), dtype=np.uint64)
    word = owners // 64
    bit = (np.uint64(1) << (owners % 64).astype(np.uint64)).astype(np.uint64)
    np.put_along_axis(out, word[..., None], bit[..., None], axis=-1)
    return out


def _suffix_or(
    masks: npt.NDArray[np.uint64], axis: int
) -> npt.NDArray[np.uint64]:
    """``out[t] = OR of masks[t:]`` along ``axis``, with a zero row appended.

    The result has one extra entry along ``axis`` (the empty suffix).
    """
    flipped = np.flip(masks, axis=axis)
    acc = np.flip(np.bitwise_or.accumulate(flipped, axis=axis), axis=axis)
    pad_shape = list(masks.shape)
    pad_shape[axis] = 1
    zero = np.zeros(pad_shape, dtype=np.uint64)
    return np.concatenate([acc, zero], axis=axis)


def _destination_masks(
    owners: npt.NDArray[np.integer],
) -> npt.NDArray[np.uint64]:
    """Per-tile destination bitmasks for POTRF under owner map ``owners``.

    Returns an (N, N, W) uint64 array D where D[j, i] (j > i) has bit ``n``
    set iff node ``n`` receives the TRSM result (j, i), and D[i, i] the
    receivers of the POTRF result (the producing node's bit is cleared).
    """
    N = owners.shape[0]
    W = _num_words(owners)
    masks = _masks(owners, W)
    dests = np.zeros((N, N, W), dtype=np.uint64)

    # Column suffix ORs: colsuf[t, j] = OR of masks[t:, j]  (colsuf[N, j] = 0).
    colsuf = _suffix_or(masks, axis=0)

    # POTRF results: diagonal tile (i, i) feeds the TRSMs of column i.
    diag_masks = masks[np.arange(N), np.arange(N)]
    trsm_sets = colsuf[np.arange(1, N + 1), np.arange(N)]  # owners of rows > i in col i
    dests[np.arange(N), np.arange(N)] = trsm_sets & ~diag_masks

    # TRSM results: tile (j, i), i < j.
    for j in range(1, N):
        row = masks[j, :j]
        # rowsuf[t] = OR of row[t:]; consumers in row j are columns i+1..j-1.
        rowsuf = _suffix_or(row, axis=0)
        row_sets = rowsuf[1 : j + 1]  # index i -> OR of masks[j, i+1..j-1]
        col_const = colsuf[j + 1, j] | masks[j, j]  # SYRK (j,j) + column below
        combined = row_sets | col_const
        dests[j, :j] = combined & ~masks[j, :j]
    return dests


def _transfer_counts(
    owners: npt.NDArray[np.integer],
) -> npt.NDArray[np.int64]:
    """Per-tile transfer counts for POTRF under owner map ``owners``."""
    return _popcount(_destination_masks(owners))


def cholesky_message_count(dist: Distribution, N: int) -> int:
    """Total number of tile messages for POTRF on N x N tiles."""
    return int(_transfer_counts(dist.owner_map(N)).sum())


def cholesky_node_traffic(
    dist: Distribution, N: int
) -> "tuple[npt.NDArray[np.int64], npt.NDArray[np.int64]]":
    """Exact per-node (sent, received) message counts for POTRF.

    Returns two ``num_nodes``-long int arrays; ``sent.sum() ==
    recv.sum() == cholesky_message_count(dist, N)``.  This is the input
    of the per-port bandwidth bounds (:mod:`repro.runtime.bounds`).
    """
    owners = dist.owner_map(N)
    dests = _destination_masks(owners)
    counts = _popcount(dests)
    P = dist.num_nodes
    sent = np.zeros(P, dtype=np.int64)
    tril = np.tril_indices(N)
    tile_owners = owners[tril]
    tile_counts = counts[tril]
    tile_dests = dests[tril]  # (T, W) masks of the lower-triangle tiles
    np.add.at(sent, tile_owners, tile_counts)
    # One popcount-by-node pass: unpack every mask into per-node bit
    # columns and count the set bits per column (little-endian bit order
    # matches bit n of word n // 64 == node n).  The masks are sized by
    # the largest owner the tiles use, which may be below P - 1.
    bits = np.unpackbits(
        tile_dests.view(np.uint8), axis=-1, bitorder="little"
    )
    recv = np.bincount(np.nonzero(bits)[1], minlength=P).astype(np.int64)
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
    owners = dist.owner_map(N)
    W = _num_words(owners)
    masks = _masks(owners, W)
    total = 0

    # Suffix ORs along rows and columns.
    rowsuf = _suffix_or(masks, axis=1)
    colsuf = _suffix_or(masks, axis=0)

    diag_idx = np.arange(N)
    # GETRF (i, i) -> both panels of step i.
    panels = rowsuf[diag_idx, diag_idx + 1] | colsuf[diag_idx + 1, diag_idx]
    total += int(_popcount(panels & ~masks[diag_idx, diag_idx]).sum())
    # L-panel tiles (j, i), j > i -> row j, columns i+1..N-1.
    for i in range(N):
        col = masks[i + 1 :, i]
        sets = rowsuf[np.arange(i + 1, N), i + 1]
        total += int(_popcount(sets & ~col).sum())
        # U-panel tiles (i, k), k > i -> column k, rows i+1..N-1.
        row = masks[i, i + 1 :]
        sets = colsuf[i + 1, np.arange(i + 1, N)]
        total += int(_popcount(sets & ~row).sum())
    return total


def lu_volume_exact(dist: Distribution, N: int, b: int, element_size: int = 8) -> int:
    """Exact LU communication volume in bytes (matches the graph counter)."""
    return lu_message_count(dist, N) * b * b * element_size
