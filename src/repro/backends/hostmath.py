"""Host-side dense numerics: the one sanctioned home of raw
``numpy.linalg`` / ``numpy.fft`` calls.

Every module outside :mod:`repro.backends` must route linear algebra
either through an executor operation (so the FLOPs are charged to the
kernel model — rule RS101) or, for host-side diagnostics and small
glue factorizations, through the helpers here (rule RS114).  Keeping
the raw LAPACK/BLAS entry points in one module means a compute backend
can be swapped underneath the executors while the *verification* math
(residual norms, reference SVDs, orthogonality defects) stays on one
canonical, bit-stable host implementation.

These helpers deliberately stay thin: same semantics, same defaults,
same exception types as the underlying routines, except where a
docstring says otherwise.

Every call here goes to numpy's own BLAS/LAPACK; nothing imports
``scipy.linalg``.  The numpy and scipy wheels each bundle an OpenBLAS
with its own thread pool, and after a threaded scipy call its workers
keep spinning, so the next numpy GEMM shares the cores with them (on a
2-core host a 60x6000 by 6000x3000 GEMM runs at half speed right after
a 16x800 ``scipy.linalg.solve_triangular``).  One library means one pool.  The
triangular solve is therefore an explicit inverse of the small factor
applied with one GEMM (see :func:`solve_triangular`), the same split
MAGMA's GPU ``dtrsm`` uses.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError

__all__ = [
    "LinAlgError", "norm", "norm2", "column_norms", "row_norms",
    "svd", "svdvals", "qr", "solve", "lstsq", "cholesky_upper",
    "solve_triangular", "fft",
]

#: The breakdown exception of the host LAPACK routines (a
#: ``ValueError`` subclass).
LinAlgError = np.linalg.LinAlgError


def norm(a, ord=None, axis=None):
    """``np.linalg.norm`` passthrough (vector/matrix norms)."""
    return np.linalg.norm(a, ord=ord, axis=axis)


def norm2(a) -> float:
    """Spectral norm of a matrix (largest singular value) as a float."""
    return float(np.linalg.norm(a, ord=2))


def column_norms(a) -> np.ndarray:
    """Per-column Euclidean norms (QRCP's pivot weights)."""
    return np.linalg.norm(a, axis=0)


def row_norms(a) -> np.ndarray:
    """Per-row Euclidean norms (the adaptive scheme's DGKS guard)."""
    return np.linalg.norm(a, axis=1)


def svd(a, full_matrices: bool = False
        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Thin (by default) singular value decomposition ``U, s, Vt``."""
    return np.linalg.svd(a, full_matrices=full_matrices)


def svdvals(a) -> np.ndarray:
    """Singular values only (no singular vectors accumulated)."""
    return np.linalg.svd(a, compute_uv=False)


def qr(a) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced QR factorization (LAPACK ``geqrf``/``orgqr``)."""
    return np.linalg.qr(a)


def solve(a, b) -> np.ndarray:
    """Dense linear solve ``a x = b`` (LAPACK ``gesv``)."""
    return np.linalg.solve(a, b)


def lstsq(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution of ``a x = b`` (``gelsd``).

    Returns only the solution; use the executor/backend SVD if you need
    rank or residual diagnostics.
    """
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    return x


def cholesky_upper(g) -> np.ndarray:
    """Upper Cholesky factor ``R`` with ``R^T R = g`` (LAPACK ``potrf``
    on the lower triangle of ``g``, transposed).

    Raises :data:`LinAlgError` when ``g`` is not numerically SPD or not
    finite (LAPACK would return NaN factors for a non-finite input
    without complaint), and :class:`repro.errors.ShapeError` when it is
    not square.  Callers that want the repo's error taxonomy should go
    through :meth:`repro.backends.base.ComputeBackend.cholesky`, which
    maps the breakdown to :class:`repro.errors.CholeskyBreakdownError`.
    """
    g = np.asarray(g)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ShapeError(f"Cholesky needs a square matrix, got {g.shape}")
    if not np.isfinite(g).all():
        raise LinAlgError("matrix is not finite")
    return np.linalg.cholesky(g).T


def solve_triangular(r, b, lower: bool = False,
                     trans: str = "N") -> np.ndarray:
    """Triangular solve; ``trans="T"`` solves ``r^T x = b``.

    Only the triangle named by ``lower`` is read.  The factor is
    inverted once and applied with one GEMM.  The inverse is taken of
    the upper-triangular orientation: LU of an upper-triangular matrix
    makes no row exchanges and leaves the matrix unchanged, so
    ``np.linalg.inv`` computes LAPACK's ``trtri`` (a column-by-column
    back substitution).  A zero diagonal raises :data:`LinAlgError`.
    """
    r = np.asarray(r)
    upper = np.triu(r.T if lower else r)
    # op(r) is ``upper`` itself unless exactly one of (lower,
    # transposed) holds; then it is ``upper.T``.
    transposed = trans in ("T", "C")
    inv = np.linalg.inv(upper)
    return (inv.T if lower != transposed else inv) @ np.asarray(b)


def fft(a, n: Optional[int] = None, axis: int = 0) -> np.ndarray:
    """Discrete Fourier transform along ``axis``, zero-padded to ``n``
    (the SRFT sampling operator's transform)."""
    return np.fft.fft(a, n=n, axis=axis)
