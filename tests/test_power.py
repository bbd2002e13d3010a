"""Tests for the power iteration (repro.core.power)."""

import numpy as np
import pytest

from repro.core.power import power_iterate
from repro.core.sampling import sample
from repro.errors import ShapeError
from repro.gpu.device import GPUExecutor, NumpyExecutor, SymArray
from repro.matrices.synthetic import exponent_matrix
from repro.obs.spans import SpanRecorder

from tests.helpers import assert_orthonormal_rows


def _alignment(b: np.ndarray, a: np.ndarray, k: int) -> float:
    """Fraction of the top-k right-singular subspace of A captured by
    the row space of B (1.0 = perfect)."""
    _, _, vt = np.linalg.svd(a, full_matrices=False)
    vk = vt[:k, :]
    qb = np.linalg.qr(b.T)[0]  # orthonormal basis of B's row space
    s = np.linalg.svd(vk @ qb, compute_uv=False)
    return float(np.sum(s ** 2) / k)


class TestPowerIterate:
    def test_q0_passthrough(self, rng):
        a = rng.standard_normal((100, 40))
        b = rng.standard_normal((8, 40))
        out, c = power_iterate(NumpyExecutor(seed=0), a, b, q=0)
        np.testing.assert_array_equal(out, b)
        assert c is None

    def test_output_shapes(self, decaying_matrix):
        ex = NumpyExecutor(seed=0)
        b = sample(ex, decaying_matrix, 12)
        out, c = power_iterate(ex, decaying_matrix, b, q=2)
        assert out.shape == (12, 120)
        assert c.shape == (12, 400)

    def test_c_rows_orthonormal(self, decaying_matrix):
        ex = NumpyExecutor(seed=0)
        b = sample(ex, decaying_matrix, 12)
        _, c = power_iterate(ex, decaying_matrix, b, q=1)
        assert_orthonormal_rows(c, tol=1e-8)

    def test_improves_subspace_alignment(self):
        a = exponent_matrix(300, 100, seed=1)
        ex = NumpyExecutor(seed=2)
        b0 = sample(ex, a, 12)
        scores = [_alignment(b0, a, 10)]
        for q in (1, 3):
            ex_q = NumpyExecutor(seed=2)
            bq = sample(ex_q, a, 12)
            bq, _ = power_iterate(ex_q, a, bq, q=q)
            scores.append(_alignment(bq, a, 10))
        assert scores[0] < scores[1] <= scores[2] + 1e-9
        assert scores[2] > 0.999

    def test_prev_basis_orthogonality_maintained(self, decaying_matrix):
        ex = NumpyExecutor(seed=3)
        b_prev = ex.orth_rows(sample(ex, decaying_matrix, 10))
        c_prev = ex.orth_rows(ex.iter_gemm_at(b_prev, decaying_matrix))
        b_new = sample(ex, decaying_matrix, 6)
        out, c = power_iterate(ex, decaying_matrix, b_new, q=1,
                               b_prev=b_prev, c_prev=c_prev)
        # The new C block was BOrth'ed against c_prev inside the loop.
        np.testing.assert_allclose(c @ c_prev.T, 0.0, atol=1e-8)

    def test_negative_q_raises(self, rng):
        a = rng.standard_normal((50, 20))
        with pytest.raises(ShapeError):
            power_iterate(NumpyExecutor(), a, a[:5, :], q=-1)

    def test_column_mismatch_raises(self, rng):
        a = rng.standard_normal((50, 20))
        with pytest.raises(ShapeError):
            power_iterate(NumpyExecutor(), a, rng.standard_normal((5, 19)),
                          q=1)

    def test_prev_shape_mismatch_raises(self, rng):
        a = rng.standard_normal((50, 20))
        b = rng.standard_normal((5, 20))
        with pytest.raises(ShapeError):
            power_iterate(NumpyExecutor(), a, b, q=1,
                          b_prev=rng.standard_normal((3, 19)))
        with pytest.raises(ShapeError):
            power_iterate(NumpyExecutor(), a, b, q=1,
                          c_prev=rng.standard_normal((3, 49)))

    def test_symbolic_run_charges_phases(self):
        ex = GPUExecutor(seed=0)
        rec = SpanRecorder()
        ex.attach_recorder(rec)
        a = SymArray((50_000, 2_500))
        b = SymArray((64, 2_500))
        out, c = power_iterate(ex, a, b, q=2)
        assert isinstance(out, SymArray) and out.shape == (64, 2_500)
        assert isinstance(c, SymArray) and c.shape == (64, 50_000)
        assert ex.breakdown()["gemm_iter"] > 0
        assert ex.breakdown()["orth_iter"] > 0
        # 2 GEMMs per iteration, 2 iterations.
        assert rec.counters["gemm_iter"].calls == 4

    def test_time_linear_in_q(self):
        def run(q):
            ex = GPUExecutor(seed=0)
            power_iterate(ex, SymArray((50_000, 2_500)),
                          SymArray((64, 2_500)), q=q)
            return ex.seconds
        t1, t2, t4 = run(1), run(2), run(4)
        assert t2 == pytest.approx(2 * t1, rel=0.01)
        assert t4 == pytest.approx(4 * t1, rel=0.01)
