"""The host NumPy backend: the repo's original math engine, extracted.

Every kernel delegates to :mod:`repro.backends.hostmath`, so every
BLAS/LAPACK call runs on numpy's one library and results are
bit-identical to :class:`repro.backends.simulated.SimulatedBackend`
(which subclasses this without touching the math).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import CholeskyBreakdownError
from . import hostmath
from .base import ComputeBackend

__all__ = ["NumpyBackend"]


class NumpyBackend(ComputeBackend):
    """Plain NumPy on the host, timed at real wall-clock speed."""

    name = "numpy"
    is_model = False

    def _gemm(self, a, b) -> np.ndarray:
        return np.asarray(a) @ np.asarray(b)

    def _cholesky(self, g) -> np.ndarray:
        try:
            return hostmath.cholesky_upper(g)
        except hostmath.LinAlgError as exc:
            # Not SPD, or an overflowed (non-finite) Gram matrix: both
            # are breakdowns, not caller errors.
            raise CholeskyBreakdownError(str(exc)) from exc

    def _solve_triangular(self, r, b, lower: bool, trans: str
                          ) -> np.ndarray:
        return hostmath.solve_triangular(r, b, lower=lower, trans=trans)

    def _svd(self, a, full_matrices: bool
             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        return hostmath.svd(np.asarray(a), full_matrices=full_matrices)

    def _qr(self, a) -> Tuple[np.ndarray, np.ndarray]:
        return hostmath.qr(np.asarray(a))

    def _lstsq(self, a, b) -> np.ndarray:
        return hostmath.lstsq(a, b)

    def _row_norms(self, a) -> np.ndarray:
        return hostmath.row_norms(np.asarray(a))

    def _norm(self, a, ord):
        return hostmath.norm(a, ord=ord)

    def _fft(self, a, n: Optional[int], axis: int) -> np.ndarray:
        return hostmath.fft(a, n=n, axis=axis)
