"""Tests for CholQR and its stabilized variants (repro.qr.cholqr)."""

import numpy as np
import pytest

from repro.backends import NumpyBackend
from repro.config import SamplingConfig
from repro.core.random_sampling import random_sampling
from repro.errors import CholeskyBreakdownError, ShapeError
from repro.gpu.device import NumpyExecutor
from repro.matrices.synthetic import exponent_spectrum, spectrum_matrix
from repro.qr.cholqr import (cholqr2_columns, cholqr2_rows, cholqr_columns,
                             cholqr_rows, mixed_precision_cholqr_rows)
from repro.qr.utils import orthogonality_defect

from tests.helpers import assert_orthonormal_columns, assert_orthonormal_rows


class TestCholQRColumns:
    def test_reconstruction(self, tall_matrix):
        q, r = cholqr_columns(tall_matrix)
        np.testing.assert_allclose(q @ r, tall_matrix, atol=1e-10)

    def test_orthonormal(self, tall_matrix):
        q, _ = cholqr_columns(tall_matrix)
        assert_orthonormal_columns(q)

    def test_r_upper_triangular(self, tall_matrix):
        _, r = cholqr_columns(tall_matrix)
        np.testing.assert_allclose(r, np.triu(r))

    def test_r_diag_positive(self, tall_matrix):
        _, r = cholqr_columns(tall_matrix)
        assert np.all(np.diag(r) > 0)

    def test_matches_numpy_qr_up_to_sign(self, tall_matrix):
        q, r = cholqr_columns(tall_matrix)
        q_np, r_np = np.linalg.qr(tall_matrix)
        s = np.sign(np.diag(r_np))
        np.testing.assert_allclose(q, q_np * s, atol=1e-9)

    def test_square_input(self, rng):
        a = rng.standard_normal((20, 20))
        q, r = cholqr_columns(a)
        np.testing.assert_allclose(q @ r, a, atol=1e-9)

    def test_wide_raises(self, wide_matrix):
        with pytest.raises(ShapeError):
            cholqr_columns(wide_matrix)

    def test_singular_raises(self, rng):
        a = rng.standard_normal((50, 3))
        a = np.hstack([a, a])  # exactly dependent columns
        with pytest.raises(CholeskyBreakdownError):
            cholqr_columns(a)

    def test_singular_householder_fallback(self, rng):
        a = rng.standard_normal((50, 3))
        a = np.hstack([a, a])
        q, r = cholqr_columns(a, fallback="householder")
        assert_orthonormal_columns(q)
        np.testing.assert_allclose(q @ r, a, atol=1e-9)

    def test_illconditioned_shift_fallback(self):
        # kappa ~ 1e12: the Gram matrix has kappa ~ 1e24 and POTRF
        # breaks down; the shifted retry plus one reorthogonalization
        # still delivers near-orthonormal Q (theory only guarantees
        # full recovery for kappa <~ 1e8).
        a = spectrum_matrix(300, 40, 10.0 ** (-np.linspace(0, 12, 40)),
                            seed=3)
        q, r = cholqr_columns(a, fallback="shift")
        assert_orthonormal_columns(q, tol=1e-5)
        np.testing.assert_allclose(q @ r, a, atol=1e-8)


class TestCholQRRows:
    def test_reconstruction(self, wide_matrix):
        q, r = cholqr_rows(wide_matrix)
        np.testing.assert_allclose(r.T @ q, wide_matrix, atol=1e-10)

    def test_orthonormal_rows(self, wide_matrix):
        q, _ = cholqr_rows(wide_matrix)
        assert_orthonormal_rows(q)

    def test_r_upper_triangular(self, wide_matrix):
        _, r = cholqr_rows(wide_matrix)
        np.testing.assert_allclose(r, np.triu(r))

    def test_tall_raises(self, tall_matrix):
        with pytest.raises(ShapeError):
            cholqr_rows(tall_matrix)

    def test_singular_raises(self, rng):
        b = rng.standard_normal((3, 80))
        b = np.vstack([b, b])
        with pytest.raises(CholeskyBreakdownError):
            cholqr_rows(b)

    def test_singular_householder_fallback(self, rng):
        b = rng.standard_normal((3, 80))
        b = np.vstack([b, b])
        q, r = cholqr_rows(b, fallback="householder")
        assert_orthonormal_rows(q)
        np.testing.assert_allclose(r.T @ q, b, atol=1e-9)

    def test_shift_fallback_consistent(self):
        b = spectrum_matrix(30, 400, 10.0 ** (-np.linspace(0, 12, 30)),
                            seed=5)
        q, r = cholqr_rows(b, fallback="shift")
        assert_orthonormal_rows(q, tol=1e-5)
        np.testing.assert_allclose(r.T @ q, b, atol=1e-8)


class TestCholQR2:
    def test_columns_reconstruction(self, tall_matrix):
        q, r = cholqr2_columns(tall_matrix)
        np.testing.assert_allclose(q @ r, tall_matrix, atol=1e-10)
        assert_orthonormal_columns(q, tol=1e-13)

    def test_rows_reconstruction(self, wide_matrix):
        q, r = cholqr2_rows(wide_matrix)
        np.testing.assert_allclose(r.T @ q, wide_matrix, atol=1e-10)
        assert_orthonormal_rows(q, tol=1e-13)

    def test_improves_orthogonality_on_illconditioned(self):
        b = spectrum_matrix(40, 500, 10.0 ** (-np.linspace(0, 7, 40)),
                            seed=2)
        q1, _ = cholqr_rows(b, fallback="shift")
        q2, _ = cholqr2_rows(b, fallback="shift")
        d1 = np.linalg.norm(q1 @ q1.T - np.eye(40))
        d2 = np.linalg.norm(q2 @ q2.T - np.eye(40))
        assert d2 < d1
        assert d2 < 1e-12

    @pytest.mark.parametrize("kappa", [1e0, 1e4, 1e8])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_eps_level_up_to_kappa_1e8(self, kappa, seed):
        # The triangular solves invert R and apply it with GEMM; CholQR2
        # must still reach the 1e-15 level of orthogonality and residual.
        b = spectrum_matrix(60, 2000, np.logspace(0, -np.log10(kappa), 60),
                            seed=seed)
        q, r = cholqr2_rows(b)
        assert orthogonality_defect(q, rows=True) < 1e-14
        assert np.linalg.norm(r.T @ q - b) < 1e-14 * np.linalg.norm(b)
        qc, rc = cholqr2_columns(b.T)
        assert orthogonality_defect(qc) < 1e-14
        assert np.linalg.norm(qc @ rc - b.T) < 1e-14 * np.linalg.norm(b)


class TestShiftFallback:
    def test_non_finite_gram_breaks_down_at_once(self, capfd):
        # A*1e200 overflows the Gram matrix.  The shift fallback must
        # not take its 2-norm (LAPACK prints a DLASCL complaint) nor
        # retry 30 shifts: it raises at once.
        a = np.random.default_rng(0).standard_normal((200, 40)) * 1e200
        bk = NumpyBackend()
        with np.errstate(all="ignore"), \
                pytest.raises(CholeskyBreakdownError, match="not finite"):
            random_sampling(a, SamplingConfig(rank=5, oversampling=5,
                                              power_iterations=1, seed=0),
                            executor=NumpyExecutor(seed=0, backend=bk))
        out, err = capfd.readouterr()
        assert out == "" and err == ""
        # The retry loop alone would make 30 Cholesky calls.
        assert bk.stats.kernel_calls < 30


class TestMixedPrecisionCholQR:
    def test_reconstruction(self, wide_matrix):
        q, r = mixed_precision_cholqr_rows(wide_matrix)
        np.testing.assert_allclose(r.T @ q, wide_matrix, atol=1e-9)

    def test_final_orthogonality_is_double(self, wide_matrix):
        q, _ = mixed_precision_cholqr_rows(wide_matrix)
        assert_orthonormal_rows(q, tol=1e-12)

    def test_tall_raises(self, tall_matrix):
        with pytest.raises(ShapeError):
            mixed_precision_cholqr_rows(tall_matrix)

    def test_moderately_illconditioned(self):
        # kappa ~ 1e4: the float32 Gram matrix (kappa^2 ~ 1e8) is at the
        # edge of single precision; the double-precision corrective pass
        # must still restore full orthogonality.
        b = spectrum_matrix(30, 300, 10.0 ** (-np.linspace(0, 4, 30)),
                            seed=9)
        q, r = mixed_precision_cholqr_rows(b)
        assert_orthonormal_rows(q, tol=1e-10)
        np.testing.assert_allclose(r.T @ q, b, atol=1e-7)
