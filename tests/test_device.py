"""Tests for the simulated device and executors (repro.gpu.device)."""

import numpy as np
import pytest

from repro.errors import (ConfigurationError, ShapeError,
                          SymbolicExecutionError)
from repro.gpu.device import (GPUExecutor, NumpyExecutor, SimulatedGPU,
                              SymArray, is_symbolic, shape_of)
from repro.gpu.specs import KEPLER_K40C

from tests.helpers import assert_orthonormal_columns, assert_orthonormal_rows


class TestSymArray:
    def test_shape_and_dtype(self):
        s = SymArray((3, 4))
        assert s.shape == (3, 4)
        assert s.dtype == np.float64
        assert s.ndim == 2
        assert s.size == 12
        assert s.nbytes == 96

    def test_transpose(self):
        assert SymArray((3, 4)).T.shape == (4, 3)

    def test_negative_dim_raises(self):
        with pytest.raises(ShapeError):
            SymArray((-1, 2))

    def test_slicing(self):
        s = SymArray((10, 20))
        assert s[:, :5].shape == (10, 5)
        assert s[2:7, :].shape == (5, 20)
        assert s[:, [1, 3, 5]].shape == (10, 3)

    def test_step_slicing_unsupported(self):
        with pytest.raises(SymbolicExecutionError):
            SymArray((10, 10))[::2, :]

    def test_helpers(self):
        s = SymArray((2, 3))
        a = np.zeros((2, 3))
        assert is_symbolic(s)
        assert is_symbolic(a, s)
        assert not is_symbolic(a)
        assert shape_of(s) == (2, 3)
        assert shape_of(a) == (2, 3)


class TestNumpyExecutorMath:
    """The executor ops must agree with direct NumPy computation."""

    def setup_method(self):
        self.ex = NumpyExecutor(seed=0)
        self.rng = np.random.default_rng(1)
        self.a = self.rng.standard_normal((120, 40))

    def test_prng_shape_and_determinism(self):
        w1 = NumpyExecutor(seed=5).prng_gaussian(8, 30)
        w2 = NumpyExecutor(seed=5).prng_gaussian(8, 30)
        np.testing.assert_array_equal(w1, w2)
        assert w1.shape == (8, 30)

    def test_sample_gemm(self):
        omega = self.ex.prng_gaussian(10, 120)
        b = self.ex.sample_gemm(omega, self.a)
        np.testing.assert_allclose(b, omega @ self.a)

    def test_sample_gemm_shape_mismatch(self):
        with pytest.raises(ShapeError):
            self.ex.sample_gemm(np.zeros((3, 7)), self.a)

    def test_iter_gemms(self):
        b = self.rng.standard_normal((10, 40))
        c = self.ex.iter_gemm_at(b, self.a)
        np.testing.assert_allclose(c, b @ self.a.T)
        b2 = self.ex.iter_gemm_a(c, self.a)
        np.testing.assert_allclose(b2, c @ self.a)

    @pytest.mark.parametrize("scheme", ["cholqr", "cholqr2", "householder",
                                        "cgs", "mgs", "tsqr",
                                        "mixed_cholqr"])
    def test_orth_rows_all_schemes(self, scheme):
        b = self.rng.standard_normal((12, 200))
        q = self.ex.orth_rows(b, scheme=scheme)
        assert q.shape == b.shape
        assert_orthonormal_rows(q, tol=1e-8)
        # Row span must be preserved: projecting b on q recovers b.
        np.testing.assert_allclose((b @ q.T) @ q, b, atol=1e-8)

    def test_orth_rows_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            self.ex.orth_rows(np.zeros((2, 10)), scheme="qr_deluxe")

    def test_orth_rows_tall_raises(self):
        with pytest.raises(ShapeError):
            self.ex.orth_rows(np.zeros((10, 2)))

    def test_block_orth_rows(self):
        q = np.linalg.qr(self.rng.standard_normal((200, 8)))[0].T
        v = self.rng.standard_normal((4, 200))
        w = self.ex.block_orth_rows(q, v)
        np.testing.assert_allclose(w @ q.T, 0.0, atol=1e-12)

    def test_block_orth_none_passthrough(self):
        v = self.rng.standard_normal((4, 50))
        w = self.ex.block_orth_rows(None, v)
        np.testing.assert_array_equal(w, v)
        assert w is not v

    def test_qrcp_sampled(self):
        b = self.rng.standard_normal((12, 60))
        q, r, perm = self.ex.qrcp_sampled(b, k=8)
        # The 8 factored pivot columns are reproduced exactly; the rest
        # only approximately (rank-8 truncation of a rank-12 matrix).
        np.testing.assert_allclose(q @ r[:, :8], b[:, perm[:8]],
                                   atol=1e-10)
        assert q.shape == (12, 8)
        assert r.shape == (8, 60)
        assert sorted(perm.tolist()) == list(range(60))

    def test_take_columns(self):
        out = self.ex.take_columns(self.a, [3, 1, 2])
        np.testing.assert_array_equal(out, self.a[:, [3, 1, 2]])

    def test_qr_selected(self):
        ap = self.a[:, :10]
        q, r = self.ex.qr_selected(ap)
        assert_orthonormal_columns(q)
        np.testing.assert_allclose(q @ r, ap, atol=1e-10)

    def test_qr_selected_wide_raises(self):
        with pytest.raises(ShapeError):
            self.ex.qr_selected(np.zeros((5, 10)))

    def test_solve_upper(self):
        r11 = np.triu(self.rng.standard_normal((6, 6))) + 6 * np.eye(6)
        r12 = self.rng.standard_normal((6, 9))
        t = self.ex.solve_upper(r11, r12)
        np.testing.assert_allclose(r11 @ t, r12, atol=1e-10)

    def test_assemble_r(self):
        rbar = np.triu(self.rng.standard_normal((5, 5)))
        t = self.rng.standard_normal((5, 7))
        r = self.ex.assemble_r(rbar, t)
        np.testing.assert_allclose(r[:, :5], rbar)
        np.testing.assert_allclose(r[:, 5:], rbar @ t)

    def test_estimate_error_matches_direct(self):
        q = np.linalg.qr(self.rng.standard_normal((200, 10)))[0].T
        bnew = self.rng.standard_normal((5, 200))
        est = self.ex.estimate_error(bnew, q)
        direct = np.linalg.norm(bnew - (bnew @ q.T) @ q, ord=2)
        assert est == pytest.approx(direct)

    def test_vstack(self):
        a = np.ones((2, 4))
        b = np.zeros((3, 4))
        out = self.ex.vstack([a, b])
        assert out.shape == (5, 4)

    def test_vstack_mismatch_raises(self):
        with pytest.raises(ShapeError):
            self.ex.vstack([np.ones((2, 4)), np.ones((2, 5))])

    def test_seconds_zero(self):
        self.ex.sample_gemm(np.ones((2, 3)), np.ones((3, 4)))
        assert self.ex.seconds == 0.0

    def test_symbolic_rejected(self):
        with pytest.raises(SymbolicExecutionError):
            self.ex.prng_gaussian(2, 3, symbolic=True)


class TestGPUExecutorTiming:
    def setup_method(self):
        self.ex = GPUExecutor(seed=0)

    def test_phases_charged(self):
        a = SymArray((50_000, 2_500))
        omega = self.ex.prng_gaussian(64, 50_000, symbolic=True)
        b = self.ex.sample_gemm(omega, a)
        assert self.ex.breakdown()["prng"] > 0
        assert self.ex.breakdown()["sampling"] > 0
        assert isinstance(b, SymArray)
        assert b.shape == (64, 2_500)

    def test_symbolic_qrcp_placeholder_perm(self):
        b = SymArray((64, 2_500))
        q, r, perm = self.ex.qrcp_sampled(b, 54)
        assert isinstance(q, SymArray) and q.shape == (64, 54)
        assert r.shape == (54, 2_500)
        np.testing.assert_array_equal(perm, np.arange(2_500))
        assert self.ex.breakdown()["qrcp"] > 0

    def test_real_math_matches_numpy_executor(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((100, 30))
        b = rng.standard_normal((8, 30))
        gpu = GPUExecutor(seed=0)
        ref = NumpyExecutor(seed=0)
        np.testing.assert_allclose(gpu.iter_gemm_at(b, a),
                                   ref.iter_gemm_at(b, a))
        assert gpu.seconds > 0

    def test_reset_clock(self):
        self.ex.prng_gaussian(8, 100, symbolic=True)
        assert self.ex.seconds > 0
        self.ex.reset_clock()
        assert self.ex.seconds == 0.0

    def test_orth_scheme_timing_differs(self):
        b = SymArray((64, 10_000))
        e1 = GPUExecutor(seed=0)
        e1.orth_rows(b, scheme="cholqr")
        e2 = GPUExecutor(seed=0)
        e2.orth_rows(b, scheme="householder")
        assert e2.seconds > 5 * e1.seconds

    def test_estimate_error_symbolic_raises(self):
        with pytest.raises(SymbolicExecutionError):
            self.ex.estimate_error(SymArray((4, 100)), SymArray((8, 100)))

    def test_fft_sample_symbolic(self):
        b = self.ex.fft_sample(SymArray((1000, 50)), 16)
        assert isinstance(b, SymArray) and b.shape == (16, 50)
        assert self.ex.breakdown()["sampling"] > 0

    def test_fft_sample_too_many_rows(self):
        with pytest.raises(ShapeError):
            self.ex.fft_sample(SymArray((10, 5)), 20)


class TestSimulatedGPU:
    def test_elapsed_tracks_charges(self):
        dev = SimulatedGPU()
        dev.charge("qr", 0.5)
        assert dev.elapsed == pytest.approx(0.5)

    def test_reset(self):
        dev = SimulatedGPU()
        dev.charge("qr", 0.5)
        dev.memory.allocate(100)
        dev.reset()
        assert dev.elapsed == 0.0
        assert dev.memory.used == 0

    def test_spec_attached(self):
        assert SimulatedGPU().spec is KEPLER_K40C
