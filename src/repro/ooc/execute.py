"""Numerically-executed out-of-core Cholesky (blocked left-looking).

:mod:`repro.ooc.bereux` *counts* the transfers of the blocked left-looking
algorithm; this module actually *runs* it: slow memory is an explicit
block store, fast memory a strictly-accounted working set, and every load
and store moves real matrix data.  The result is validated against SciPy
and the element traffic matches :func:`block_left_looking_volume` exactly
— the algorithm whose leading term is Béreux's ``n^3 / (3 sqrt(M))``.

The schedule, for each target block (I, J) of the q-grid, I >= J:

1. load the target block;
2. stream the row panels ``L[I, :Jq]`` and (off-diagonal) ``L[J, :Jq]``
   in q-column slices, applying the SYRK/GEMM updates;
3. finish with POTRF (diagonal) or a TRSM against the reloaded diagonal
   factor (off-diagonal), and store the result.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernels.blas import potrf, trsm
from ..obs import Recorder
from .bereux import choose_block_size

__all__ = ["OutOfCoreResult", "execute_block_left_looking"]


class OutOfCoreResult:
    """Factor plus the exact traffic of the out-of-core execution."""

    def __init__(self, factor: np.ndarray, loaded: int, stored: int, q: int):
        self.factor = factor
        self.loaded = loaded
        self.stored = stored
        self.q = q

    @property
    def total_transfers(self) -> int:
        return self.loaded + self.stored


class _FastMemory:
    """Strict element-count accounting for the resident working set.

    With a recorder attached, every load/store emits one io event whose
    ``nbytes`` is the element count times 8 (float64) and whose ``time``
    is a logical tick (the running transfer count).
    """

    def __init__(self, capacity: int, recorder: Optional[Recorder] = None):
        self.capacity = capacity
        self.used = 0
        self.loaded = 0
        self.stored = 0
        self._rec = recorder if (recorder is not None and recorder.enabled) else None
        if self._rec is not None and not self._rec.source:
            self._rec.source = "ooc"
        self._tick = 0

    def _record(self, op: str, key, size: int) -> None:
        self._tick += 1
        if self._rec is not None:
            self._rec.record_io(op, key, size * 8, float(self._tick))

    def load(self, block: np.ndarray, key=None) -> np.ndarray:
        size = block.size
        self.used += size
        if self.used > self.capacity:
            raise MemoryError(
                f"working set of {self.used} elements exceeds fast memory "
                f"of {self.capacity}"
            )
        self.loaded += size
        self._record("load", key, size)
        return block.copy()

    def discard(self, block: np.ndarray) -> None:
        self.used -= block.size

    def store(self, block: np.ndarray, key=None) -> None:
        self.stored += block.size
        self.used -= block.size
        self._record("store", key, size=block.size)


def execute_block_left_looking(
    a: np.ndarray, M: int, q: Optional[int] = None,
    recorder: Optional[Recorder] = None,
) -> OutOfCoreResult:
    """Factor a dense SPD matrix with fast memory of ``M`` elements.

    ``q`` defaults to the largest block with 3 q^2 <= M (one target and
    two streaming buffers).  Returns the lower factor and exact traffic.
    Pass a :class:`repro.obs.Recorder` to log every slow-memory transfer
    as an io event (keyed by the (I, J) block coordinates).
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if q is None:
        q = max(1, int((M / 3) ** 0.5))
    if 3 * q * q > M:
        raise ValueError(f"block size {q} needs 3q^2 = {3 * q * q} > M = {M}")

    nb = -(-n // q)
    # "Slow memory": the factored blocks live here after being stored.
    slow: dict[tuple[int, int], np.ndarray] = {}
    fast = _FastMemory(M, recorder)

    def span(I: int) -> slice:
        return slice(I * q, min((I + 1) * q, n))

    for J in range(nb):
        for I in range(J, nb):
            target = fast.load(a[span(I), span(J)], key=(I, J))
            # Stream the two row panels in q-column slices.
            for K in range(J):
                left = fast.load(slow[(I, K)], key=(I, K))
                if I == J:
                    target -= left @ left.T
                else:
                    right = fast.load(slow[(J, K)], key=(J, K))
                    target -= left @ right.T
                    fast.discard(right)
                fast.discard(left)
            if I == J:
                target = potrf(target)
            else:
                diag = fast.load(slow[(J, J)], key=(J, J))
                target = trsm(target, diag)
                fast.discard(diag)
            slow[(I, J)] = target
            fast.store(target, key=(I, J))

    out = np.zeros((n, n))
    for (I, J), block in slow.items():
        blk = np.tril(block) if I == J else block
        out[span(I), span(J)] = blk
    return OutOfCoreResult(out, fast.loaded, fast.stored, q)
