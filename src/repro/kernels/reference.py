"""Dense (non-tiled) reference implementations.

Used by the test suite to validate every tiled algorithm and runtime: the
tiled result, assembled back to a dense array, must match these references
computed with SciPy on the full matrix (imported on first use, like the
tile kernels of :mod:`repro.kernels.blas`).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "cholesky_reference",
    "posv_reference",
    "trtri_reference",
    "potri_reference",
]


def cholesky_reference(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a dense SPD matrix."""
    import scipy.linalg

    return scipy.linalg.cholesky(a, lower=True, check_finite=False)


def posv_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solution of A x = B for SPD A."""
    import scipy.linalg

    c, low = scipy.linalg.cho_factor(a, lower=True, check_finite=False)
    return scipy.linalg.cho_solve((c, low), b, check_finite=False)


def trtri_reference(l: np.ndarray) -> np.ndarray:
    """Inverse of a dense lower-triangular matrix."""
    import scipy.linalg

    n = l.shape[0]
    return scipy.linalg.solve_triangular(
        np.tril(l), np.eye(n), lower=True, check_finite=False
    )


def potri_reference(a: np.ndarray) -> np.ndarray:
    """Inverse of a dense SPD matrix via its Cholesky factorization."""
    l = cholesky_reference(a)
    linv = trtri_reference(l)
    return linv.T @ linv
