"""Tests for input validation: the ``check_finite`` guards and device
memory accounting on bind."""

import numpy as np
import pytest

from repro import (AdaptiveConfig, GPUExecutor, SamplingConfig, SymArray,
                   adaptive_sampling, cur_decomposition, random_sampling,
                   randomized_svd)
from repro.errors import OutOfDeviceMemoryError, ShapeError
from repro.qr.utils import ensure_all_finite


@pytest.fixture
def nan_matrix(rng):
    a = rng.standard_normal((60, 20))
    a[5, 3] = np.nan
    return a


@pytest.fixture
def inf_matrix(rng):
    a = rng.standard_normal((60, 20))
    a[0, 0] = np.inf
    return a


class TestEnsureAllFinite:
    def test_clean_passes(self, rng):
        ensure_all_finite(rng.standard_normal((5, 5)))

    def test_nan_raises(self, nan_matrix):
        with pytest.raises(ShapeError):
            ensure_all_finite(nan_matrix)

    def test_inf_raises(self, inf_matrix):
        with pytest.raises(ShapeError):
            ensure_all_finite(inf_matrix)

    def test_symbolic_skipped(self):
        ensure_all_finite(SymArray((10, 10)))  # no data, no check

    def test_name_in_message(self, nan_matrix):
        with pytest.raises(ShapeError, match="input_matrix"):
            ensure_all_finite(nan_matrix, "input_matrix")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_last_element_caught(self, rng, bad):
        a = rng.standard_normal((70, 30))
        a[-1, -1] = bad
        with pytest.raises(ShapeError):
            ensure_all_finite(a)
        with pytest.raises(ShapeError):
            ensure_all_finite(a.ravel())

    def test_overflowing_column_sums_pass(self):
        # Finite entries whose column sums overflow take the exact scan.
        a = np.full((4, 3), 1e308)
        a[1] = -1e308 / 3
        ensure_all_finite(a)
        a[2, 1] = np.nan
        with pytest.raises(ShapeError):
            ensure_all_finite(a)

    def test_opposite_infinities_caught(self):
        a = np.ones((6, 2))
        a[0, 0], a[1, 0] = np.inf, -np.inf
        with pytest.raises(ShapeError):
            ensure_all_finite(a)

    @pytest.mark.parametrize("layout", ["F", "view"])
    def test_layouts(self, rng, layout):
        base = rng.standard_normal((90, 40))
        a = (np.asfortranarray(base) if layout == "F"
             else base[1::3, ::2])
        ensure_all_finite(a)
        base[-2, -2] = np.nan
        a = (np.asfortranarray(base) if layout == "F"
             else base[1::3, ::2])
        with pytest.raises(ShapeError):
            ensure_all_finite(a)

    def test_integer_and_empty_inputs_pass(self):
        ensure_all_finite(np.arange(12).reshape(3, 4))
        ensure_all_finite(np.zeros((0, 5)))


class TestEntryPointGuards:
    def test_random_sampling_rejects_nan(self, nan_matrix):
        with pytest.raises(ShapeError):
            random_sampling(nan_matrix, SamplingConfig(rank=5, seed=0))

    def test_random_sampling_opt_out(self, nan_matrix):
        # With the check disabled the guard's ShapeError must NOT fire;
        # behaviour is then undefined: NaNs either propagate into the
        # factors or trip a downstream numerical kernel.
        try:
            f = random_sampling(nan_matrix,
                                SamplingConfig(rank=5, seed=0),
                                check_finite=False)
        except ShapeError:
            pytest.fail("finite-check fired despite check_finite=False")
        except Exception:
            return  # downstream kernel objected — acceptable
        assert np.isnan(np.asarray(f.r)).any() or \
            np.isnan(np.asarray(f.q)).any()

    def test_adaptive_rejects_inf(self, inf_matrix):
        with pytest.raises(ShapeError):
            adaptive_sampling(inf_matrix, AdaptiveConfig(tolerance=1e-6,
                                                         seed=0))

    def test_svd_rejects_nan(self, nan_matrix):
        with pytest.raises(ShapeError):
            randomized_svd(nan_matrix, SamplingConfig(rank=5, seed=0))

    def test_cur_rejects_nan(self, nan_matrix):
        with pytest.raises(ShapeError):
            cur_decomposition(nan_matrix, SamplingConfig(rank=5, seed=0))


class TestDeviceMemoryOnBind:
    def test_fits_k40c(self):
        ex = GPUExecutor(seed=0)
        ex.bind(SymArray((500_000, 500)))  # the paper's 2 GB matrix
        assert ex.device.memory.used == 8 * 500_000 * 500

    def test_oversized_matrix_raises(self):
        ex = GPUExecutor(seed=0)
        with pytest.raises(OutOfDeviceMemoryError):
            ex.bind(SymArray((2_000_000, 1_000)))  # 16 GB > 12 GB

    def test_rebind_resets(self):
        ex = GPUExecutor(seed=0)
        ex.bind(SymArray((100_000, 2_500)))
        ex.bind(SymArray((100_000, 2_500)))  # no double accounting
        assert ex.device.memory.used == 8 * 100_000 * 2_500

    def test_run_through_public_api(self):
        with pytest.raises(OutOfDeviceMemoryError):
            random_sampling(SymArray((2_000_000, 1_000)),
                            SamplingConfig(rank=10, seed=0),
                            executor=GPUExecutor(seed=0))
