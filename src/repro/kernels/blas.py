"""Tile-level kernels for the tiled Cholesky family of algorithms.

These are the sequential per-tile operations that Chameleon dispatches to
BLAS/LAPACK (the paper's Algorithm 1 plus the TRTRI/LAUUM/TRMM kernels of
the POTRI workflow).  Here they are implemented with NumPy/SciPy; each
function returns a *new* array (functional style) so the runtimes can
version tile data explicitly.  SciPy is imported by the first kernel that
needs it, not with this module: ``import repro`` reaches here through the
flop tables, and simulations, sweep workers and the service never factor
a tile.

Conventions match the paper: the factor is lower triangular, tiles below
the diagonal are full ``b x b`` blocks, diagonal tiles hold their lower
triangle (upper part is ignored by the kernels that consume them).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "potrf",
    "trsm",
    "syrk",
    "gemm",
    "trsm_solve",
    "trsm_solve_t",
    "trtri",
    "trsm_right_inv",
    "trsm_left_inv",
    "gemm_inv",
    "trmm",
    "lauum",
    "syrk_t",
    "gemm_t",
    "gemm_acc_t",
    "getrf_nopiv",
    "trsm_lu_right",
    "trsm_lu_left",
    "gemm_nn",
]


def _solve_triangular(a: np.ndarray, b: np.ndarray, **kw) -> np.ndarray:
    from scipy.linalg import solve_triangular

    return solve_triangular(a, b, check_finite=False, **kw)


def potrf(a: np.ndarray) -> np.ndarray:
    """Cholesky factor of a diagonal tile: returns lower-triangular L with A = L L^T."""
    from scipy.linalg import cholesky

    return cholesky(a, lower=True, check_finite=False)


def trsm(a: np.ndarray, l_diag: np.ndarray) -> np.ndarray:
    """Panel update A_{j,i} <- A_{j,i} * L_{i,i}^{-T} (BLAS trsm: right, lower, trans).

    Solves X L^T = A for X, the TRSM of Algorithm 1 line 4.
    """
    return _solve_triangular(l_diag, a.T, lower=True, trans="N").T


def syrk(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Symmetric rank-k update C <- C - A A^T (Algorithm 1 line 6)."""
    return c - a @ a.T


def gemm(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trailing update C <- C - A B^T (Algorithm 1 line 8)."""
    return c - a @ b.T


# --- POSV (triangular solves against a right-hand side) -------------------


def trsm_solve(b: np.ndarray, l_diag: np.ndarray) -> np.ndarray:
    """Forward-substitution tile op: B_i <- L_{i,i}^{-1} B_i."""
    return _solve_triangular(l_diag, b, lower=True)


def trsm_solve_t(b: np.ndarray, l_diag: np.ndarray) -> np.ndarray:
    """Backward-substitution tile op: B_i <- L_{i,i}^{-T} B_i."""
    return _solve_triangular(l_diag, b, lower=True, trans="T")


def gemm_t(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Update C <- C - A^T B (used in the backward sweep of POSV)."""
    return c - a.T @ b


# --- POTRI kernels (TRTRI then LAUUM) --------------------------------------


def trtri(a: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular diagonal tile."""
    n = a.shape[0]
    return _solve_triangular(np.tril(a), np.eye(n), lower=True)


def trsm_right_inv(a: np.ndarray, l_diag: np.ndarray) -> np.ndarray:
    """TRTRI panel op: A_{m,k} <- -A_{m,k} * L_{k,k}^{-1} (right, lower, alpha=-1)."""
    return -_solve_triangular(l_diag, a.T, lower=True, trans="T").T


def trsm_left_inv(a: np.ndarray, l_diag: np.ndarray) -> np.ndarray:
    """TRTRI row op: A_{k,n} <- L_{k,k}^{-1} * A_{k,n} (left, lower)."""
    return _solve_triangular(l_diag, a, lower=True)


def gemm_inv(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """TRTRI interior update C_{m,n} <- C_{m,n} + A_{m,k} B_{k,n}."""
    return c + a @ b


def trmm(b: np.ndarray, l_diag: np.ndarray) -> np.ndarray:
    """LAUUM row op: B <- L^T B with L the (lower-triangular) diagonal tile."""
    return np.tril(l_diag).T @ b


def lauum(a: np.ndarray) -> np.ndarray:
    """Diagonal tile op: A <- L^T L for the lower triangle L stored in A."""
    low = np.tril(a)
    return low.T @ low


def syrk_t(c: np.ndarray, a: np.ndarray) -> np.ndarray:
    """LAUUM symmetric update C <- C + A^T A."""
    return c + a.T @ a


def gemm_acc_t(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LAUUM interior update C <- C + A^T B."""
    return c + a.T @ b


# --- LU (no pivoting) kernels ----------------------------------------------


def getrf_nopiv(a: np.ndarray) -> np.ndarray:
    """LU factorization of a tile without pivoting, packed L and U.

    Returns a single tile holding the strictly-lower part of the unit
    lower factor and the upper factor (Doolittle), as LAPACK does.
    """
    lu = np.array(a, dtype=np.float64)
    n = lu.shape[0]
    for k in range(n - 1):
        piv = lu[k, k]
        if piv == 0.0:
            raise ZeroDivisionError(f"zero pivot at position {k} (no pivoting)")
        lu[k + 1 :, k] /= piv
        lu[k + 1 :, k + 1 :] -= np.outer(lu[k + 1 :, k], lu[k, k + 1 :])
    return lu


def trsm_lu_right(a: np.ndarray, lu_diag: np.ndarray) -> np.ndarray:
    """LU column-panel op: A <- A * U^{-1} with U from the packed diagonal."""
    u = np.triu(lu_diag)
    return _solve_triangular(u, a.T, lower=False, trans="T").T


def trsm_lu_left(a: np.ndarray, lu_diag: np.ndarray) -> np.ndarray:
    """LU row-panel op: A <- L^{-1} * A with unit-lower L from the packed tile."""
    return _solve_triangular(lu_diag, a, lower=True, unit_diagonal=True)


def gemm_nn(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LU trailing update C <- C - A B (no transposes)."""
    return c - a @ b
