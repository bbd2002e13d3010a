"""Cholesky QR (CholQR) — the paper's workhorse orthogonalization.

CholQR computes the QR factorization of a tall-skinny matrix ``B`` in
three BLAS-3 steps (Section 4):

(i)   form the Gram matrix ``G = B^T B`` (SYRK),
(ii)  Cholesky-factor ``G = R^T R`` (POTRF),
(iii) triangular-solve ``Q = B R^{-1}`` (TRSM).

The paper uses the adaptation to the *LQ* factorization of the
short-wide sampled matrices ``B`` (``l x n``) and ``C`` (``l x m``):
``G = B B^T``, ``R^T R = G``, ``Q = R^{-T} B`` so the **rows** of ``Q``
are orthonormal and ``B = R^T Q``.

Because ``kappa(G) = kappa(B)^2``, plain CholQR loses orthogonality for
ill-conditioned inputs; the paper stabilizes it with one full
reorthogonalization (CholQR2: :func:`cholqr2_rows`), which is what the
experiments in Sections 6-10 use.  We additionally provide:

- a shifted retry (add ``s*I`` to the Gram matrix when POTRF breaks
  down, then reorthogonalize), used as a last-resort fallback;
- a Householder fallback for a genuinely rank-deficient block;
- a mixed-precision variant (Gram matrix accumulated in extended
  precision is not available in NumPy, so we expose the paper's other
  direction — ref [23] — of a *lower*-precision Gram with a corrective
  reorthogonalization) for the performance/stability trade-off study.
"""

from __future__ import annotations

from typing import Literal, Optional, Tuple

import numpy as np

from ..analysis.annotations import shaped
from ..backends import resolve_backend
from ..backends.base import ComputeBackend
from ..errors import CholeskyBreakdownError, ShapeError
from .utils import as_2d_float

__all__ = [
    "cholqr_columns",
    "cholqr_rows",
    "cholqr2_columns",
    "cholqr2_rows",
    "mixed_precision_cholqr_rows",
]

Fallback = Literal["raise", "shift", "householder"]

BackendSpec = Optional[ComputeBackend]


def _shifted_chol_upper(g: np.ndarray,
                        backend: ComputeBackend) -> np.ndarray:
    """Cholesky with an escalating diagonal shift.

    The shift follows Fukaya et al.'s shifted-CholQR recipe: start at
    ``11 (m eps) ||G||_2``-scale and grow by 10x until POTRF succeeds.
    The resulting Q is only approximately orthogonal and *must* be
    reorthogonalized by the caller.  A non-finite (overflowed) Gram
    matrix breaks down at once: no shift makes it factorable.
    """
    if not np.isfinite(g).all():
        raise CholeskyBreakdownError("Gram matrix is not finite")
    norm = backend.norm(g, ord=2)
    if norm == 0.0:
        raise CholeskyBreakdownError("Gram matrix is zero")
    eps = np.finfo(g.dtype).eps
    shift = 11.0 * g.shape[0] * eps * norm
    eye = np.eye(g.shape[0], dtype=g.dtype)
    for _ in range(30):
        try:
            return backend.cholesky(g + shift * eye)
        except CholeskyBreakdownError:
            shift *= 10.0
    raise CholeskyBreakdownError(
        "shifted Cholesky failed even with a large shift")


@shaped(params={"b": ("m", "k")})
def cholqr_columns(b: np.ndarray, fallback: Fallback = "raise",
                   backend: BackendSpec = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """CholQR of a tall-skinny matrix: ``B = Q R`` with orthonormal
    columns of ``Q``.

    Parameters
    ----------
    b:
        ``m x k`` input with ``m >= k``.
    fallback:
        What to do if the Gram matrix is not numerically SPD:
        ``"raise"`` (default, raises
        :class:`repro.errors.CholeskyBreakdownError`), ``"shift"``
        (shifted Cholesky followed by one reorthogonalization), or
        ``"householder"`` (defer to the unconditionally stable HHQR).
    backend:
        A :class:`repro.backends.base.ComputeBackend` (or ``None`` for
        the session default) that runs the SYRK/POTRF/TRSM kernels.

    Returns
    -------
    (Q, R):
        ``Q`` is ``m x k`` column-orthonormal, ``R`` is ``k x k`` upper
        triangular with ``B = Q R``.
    """
    b = as_2d_float(b, "b")
    bk = resolve_backend(backend)
    m, k = b.shape
    if m < k:
        raise ShapeError(f"cholqr_columns needs m >= k, got {b.shape}; "
                         "use cholqr_rows for short-wide inputs")
    g = bk.gemm(b.T, b)
    try:
        r = bk.cholesky(g)
    except CholeskyBreakdownError:
        if fallback == "raise":
            raise
        if fallback == "householder":
            from .householder import householder_qr
            f = householder_qr(b)
            return f.q(), f.r()
        r1 = _shifted_chol_upper(g, bk)
        q1 = bk.solve_triangular(r1, b.T, lower=False, trans="T").T
        # The cleanup pass can itself break down for severely deficient
        # input; terminate in the unconditionally stable HHQR.
        q2, r2 = cholqr_columns(q1, fallback="householder", backend=bk)
        return q2, bk.gemm(r2, r1)
    q = bk.solve_triangular(r, b.T, lower=False, trans="T").T
    return q, r


@shaped(params={"b": ("l", "n")})
def cholqr_rows(b: np.ndarray, fallback: Fallback = "raise",
                backend: BackendSpec = None
                ) -> Tuple[np.ndarray, np.ndarray]:
    """CholQR adapted to short-wide matrices (the paper's footnote 3).

    Factors ``B = R^T Q`` where ``B`` is ``l x n`` with ``l <= n``,
    ``Q`` is ``l x n`` with orthonormal **rows**, and ``R`` is ``l x l``
    upper triangular.

    Steps (Figure 4): ``G = B B^T`` (block dot-products), ``R^T R = G``
    (Cholesky), ``Q = R^{-T} B`` (triangular solve).
    """
    b = as_2d_float(b, "b")
    bk = resolve_backend(backend)
    l, n = b.shape
    if l > n:
        raise ShapeError(f"cholqr_rows needs l <= n, got {b.shape}; "
                         "use cholqr_columns for tall-skinny inputs")
    g = bk.gemm(b, b.T)
    try:
        r = bk.cholesky(g)
    except CholeskyBreakdownError:
        if fallback == "raise":
            raise
        if fallback == "householder":
            from .householder import householder_qr
            # b^T = Q_c R_c  =>  b = R_c^T Q_c^T: the LQ convention's R
            # is R_c itself (upper triangular), Q the transposed Q_c.
            f = householder_qr(b.T)
            return f.q().T, f.r()[:, :l].copy()
        r1 = _shifted_chol_upper(g, bk)
        q1 = bk.solve_triangular(r1, b, lower=False, trans="T")
        q2, r2 = cholqr_rows(q1, fallback="householder", backend=bk)
        # B = r1^T q1 and q1 = r2^T q2  =>  B = (r2 r1)^T q2.
        return q2, bk.gemm(r2, r1)
    q = bk.solve_triangular(r, b, lower=False, trans="T")
    return q, r


def cholqr2_columns(b: np.ndarray, fallback: Fallback = "shift",
                    backend: BackendSpec = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """CholQR with one full reorthogonalization (tall-skinny columns).

    This is the stabilization the paper applies throughout its
    experiments ("we orthogonalized both sampled matrices using CholQR
    with one full reorthogonalization", Section 6).  Orthogonality of
    the result is ``O(eps)`` whenever ``kappa(B) <~ eps^{-1/2}``.
    """
    bk = resolve_backend(backend)
    q1, r1 = cholqr_columns(b, fallback=fallback, backend=bk)
    q2, r2 = cholqr_columns(q1, fallback=fallback, backend=bk)
    return q2, bk.gemm(r2, r1)


@shaped(params={"b": ("l", "n")})
def cholqr2_rows(b: np.ndarray, fallback: Fallback = "shift",
                 backend: BackendSpec = None
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """CholQR2 for short-wide rows: ``B = R^T Q``, two CholQR passes."""
    bk = resolve_backend(backend)
    q1, r1 = cholqr_rows(b, fallback=fallback, backend=bk)
    q2, r2 = cholqr_rows(q1, fallback=fallback, backend=bk)
    # B = r1^T q1, q1 = r2^T q2  =>  B = (r2 r1)^T q2.
    return q2, bk.gemm(r2, r1)


def mixed_precision_cholqr_rows(b: np.ndarray,
                                gram_dtype=np.float32,
                                backend: BackendSpec = None
                                ) -> Tuple[np.ndarray, np.ndarray]:
    """Mixed-precision CholQR (short-wide rows), after Yamazaki et al.
    [23].

    The Gram matrix and its Cholesky factor are computed in a lower
    working precision (``gram_dtype``, default float32 — standing in
    for the paper's fast-precision path on the GPU), the triangular
    solve is applied in float64, and one full float64 CholQR pass
    restores orthogonality.  The final ``R`` combines both passes, so
    ``B ~= R^T Q`` holds to float64 accuracy while most Gram flops ran
    in the fast precision.
    """
    b = as_2d_float(b, "b")
    bk = resolve_backend(backend)
    l, n = b.shape
    if l > n:
        raise ShapeError(f"mixed_precision_cholqr_rows needs l <= n, "
                         f"got {b.shape}")
    # The fast-precision Gram stays a host product on purpose: the
    # backend contract is float64 and must not silently upcast it.
    g32 = (b.astype(gram_dtype) @ b.astype(gram_dtype).T)
    g = g32.astype(np.float64)
    # Low precision makes breakdown more likely; always be ready to shift.
    try:
        r1 = bk.cholesky(g)
    except CholeskyBreakdownError:
        r1 = _shifted_chol_upper(g, bk)
    q1 = bk.solve_triangular(r1, b, lower=False, trans="T")
    q2, r2 = cholqr_rows(q1, fallback="shift", backend=bk)
    return q2, bk.gemm(r2, r1)
