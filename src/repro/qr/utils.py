"""Shared helpers for the QR kernels: triangular solves, orthogonality
checks, and small shape utilities.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..backends import hostmath, resolve_backend
from ..backends.base import ComputeBackend
from ..errors import ShapeError

__all__ = [
    "orthogonality_defect",
    "is_orthonormal_columns",
    "is_orthonormal_rows",
    "triu_from",
    "solve_upper_triangular",
    "solve_lower_triangular",
    "as_2d_float",
    "ensure_all_finite",
]

#: Elements per block of :func:`ensure_all_finite`'s exact scan.
_FINITE_SCAN_ELEMENTS = 1 << 16


def ensure_all_finite(a, name: str = "a") -> None:
    """Raise :class:`repro.errors.ShapeError` if ``a`` contains NaN or
    infinity.

    NaNs poison GEMMs silently and infinities break the Cholesky-based
    kernels with obscure errors, so the public entry points check up
    front (disable via their ``check_finite=False`` for hot paths, as
    in SciPy).  Symbolic arrays are skipped (no data to check).

    A floating 1-D or 2-D array is checked by its column sums, one GEMV
    with no ``a``-sized temporary: any NaN or infinity makes its
    column's sum non-finite.  Only when some sum is non-finite (which
    finite entries can also cause, by overflow) does an exact scan run,
    a block of rows at a time.
    """
    if not isinstance(a, np.ndarray):
        return
    if a.ndim in (1, 2) and a.size and np.issubdtype(a.dtype, np.inexact):
        with np.errstate(over="ignore", invalid="ignore"):
            sums = np.ones(a.shape[0], a.dtype) @ a
        if np.isfinite(sums).all():
            return
    blocks = a if a.ndim else a.reshape(1)
    rows = max(1, _FINITE_SCAN_ELEMENTS // max(1, blocks[:1].size))
    for i in range(0, blocks.shape[0], rows):
        if not np.isfinite(blocks[i:i + rows]).all():
            raise ShapeError(f"{name} contains NaN or infinite entries")


def as_2d_float(a: np.ndarray, name: str = "a") -> np.ndarray:
    """Validate that ``a`` is a 2-D real floating array; upcast ints."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.issubdtype(a.dtype, np.floating):
        a = a.astype(np.float64)
    return a


def orthogonality_defect(q: np.ndarray, rows: bool = False) -> float:
    """``||I - Q^T Q||_F`` (or ``||I - Q Q^T||_F`` when ``rows``).

    Zero for an exactly orthonormal frame; the paper's CholQR with one
    reorthogonalization keeps this at the 1e-14 level for its matrices.
    """
    q = as_2d_float(q, "q")
    g = q @ q.T if rows else q.T @ q
    k = g.shape[0]
    return float(hostmath.norm(g - np.eye(k), ord="fro"))


def is_orthonormal_columns(q: np.ndarray, tol: float = 1e-10) -> bool:
    """True when the columns of ``q`` are orthonormal to tolerance ``tol``."""
    return orthogonality_defect(q, rows=False) <= tol * max(1, q.shape[1])


def is_orthonormal_rows(q: np.ndarray, tol: float = 1e-10) -> bool:
    """True when the rows of ``q`` are orthonormal to tolerance ``tol``."""
    return orthogonality_defect(q, rows=True) <= tol * max(1, q.shape[0])


def triu_from(a: np.ndarray, k: int = 0) -> np.ndarray:
    """Copy of the upper-triangular part of ``a`` (from diagonal ``k``)."""
    return np.triu(as_2d_float(a), k=k)


def solve_upper_triangular(r: np.ndarray, b: np.ndarray,
                           trans: bool = False,
                           backend: Optional[ComputeBackend] = None
                           ) -> np.ndarray:
    """Solve ``R x = b`` (or ``R^T x = b``) for upper-triangular ``R``.

    The TRSM runs on ``backend`` (the session default when ``None``);
    raises :class:`repro.errors.ShapeError` on non-square ``R``.
    """
    r = as_2d_float(r, "r")
    if r.shape[0] != r.shape[1]:
        raise ShapeError(f"R must be square, got {r.shape}")
    return resolve_backend(backend).solve_triangular(
        r, b, lower=False, trans="T" if trans else "N")


def solve_lower_triangular(l: np.ndarray, b: np.ndarray,
                           trans: bool = False,
                           backend: Optional[ComputeBackend] = None
                           ) -> np.ndarray:
    """Solve ``L x = b`` (or ``L^T x = b``) for lower-triangular ``L``."""
    l = as_2d_float(l, "l")
    if l.shape[0] != l.shape[1]:
        raise ShapeError(f"L must be square, got {l.shape}")
    return resolve_backend(backend).solve_triangular(
        l, b, lower=True, trans="T" if trans else "N")
