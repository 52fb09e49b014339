"""Tests for the error metrics (paper Eqs. 1, 3, 4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.common.error_metrics import (
    chebyshev_relative_error,
    combined_chebyshev_error,
    correctness_percent,
    euclidean_relative_error,
    lu_residual_error,
)

finite_arrays = hnp.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=1, max_value=20),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestChebyshev:
    def test_identical_outputs_zero_error(self):
        x = np.array([1.0, 2.0, 3.0])
        assert chebyshev_relative_error(x, x) == 0.0

    def test_known_value(self):
        correct = np.array([0.0, 10.0])
        approx = np.array([1.0, 10.0])
        assert chebyshev_relative_error(correct, approx) == pytest.approx(0.1)

    def test_uses_max_not_sum(self):
        correct = np.array([10.0, 10.0, 10.0])
        approx = np.array([9.0, 9.0, 9.0])
        assert chebyshev_relative_error(correct, approx) == pytest.approx(0.1)

    def test_zero_reference_nonzero_approx_is_inf(self):
        assert chebyshev_relative_error([0.0], [1.0]) == float("inf")

    def test_zero_both_is_zero(self):
        assert chebyshev_relative_error([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_empty_inputs(self):
        assert chebyshev_relative_error([], []) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            chebyshev_relative_error([1.0, 2.0], [1.0])

    def test_matrix_inputs_flattened(self):
        a = np.ones((3, 3))
        b = np.ones((3, 3)) * 1.05
        assert chebyshev_relative_error(a, b) == pytest.approx(0.05)

    @given(finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_self_distance_is_zero(self, arr):
        assert chebyshev_relative_error(arr, arr) == 0.0

    @given(finite_arrays, st.floats(min_value=0.001, max_value=0.01))
    @settings(max_examples=50, deadline=None)
    def test_bounded_perturbation_bounded_error(self, arr, eps):
        scale = np.max(np.abs(arr))
        perturbed = arr + eps * scale
        tau = chebyshev_relative_error(arr, perturbed)
        if scale > 0:
            assert tau <= eps * 1.0001


class TestCombinedChebyshev:
    def test_multiple_regions(self):
        pairs = [
            (np.array([10.0]), np.array([10.0])),
            (np.array([5.0]), np.array([6.0])),
        ]
        assert combined_chebyshev_error(pairs) == pytest.approx(0.1)

    def test_no_regions(self):
        assert combined_chebyshev_error([]) == 0.0

    def test_matches_single_region_chebyshev(self):
        a = np.array([1.0, 4.0, -3.0])
        b = np.array([1.1, 4.0, -3.0])
        assert combined_chebyshev_error([(a, b)]) == pytest.approx(
            chebyshev_relative_error(a, b)
        )


class TestEuclidean:
    def test_identical_outputs(self):
        x = np.arange(10, dtype=float)
        assert euclidean_relative_error(x, x) == 0.0

    def test_known_value(self):
        correct = np.array([3.0, 4.0])
        approx = np.array([3.0, 3.0])
        assert euclidean_relative_error(correct, approx) == pytest.approx(1.0 / 25.0)

    def test_zero_reference(self):
        assert euclidean_relative_error([0.0], [2.0]) == float("inf")

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            euclidean_relative_error([1.0], [1.0, 2.0])

    @given(finite_arrays)
    @settings(max_examples=50, deadline=None)
    def test_nonnegative(self, arr):
        noisy = arr + 0.5
        assert euclidean_relative_error(arr, noisy) >= 0.0


class TestLUResidual:
    def test_exact_factorisation(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-1, 1, (8, 8)) + 8 * np.eye(8)
        import scipy.linalg as sla

        p, l, u = sla.lu(a)
        assert lu_residual_error(p @ l @ u, p @ l, u) < 1e-12

    def test_wrong_factors_large_error(self):
        a = np.eye(4)
        l = np.eye(4)
        u = 2 * np.eye(4)
        assert lu_residual_error(a, l, u) == pytest.approx(1.0)

    def test_zero_matrix(self):
        z = np.zeros((3, 3))
        assert lu_residual_error(z, z, z) == 0.0


class TestCorrectnessPercent:
    def test_zero_error_is_100(self):
        assert correctness_percent(0.0) == 100.0

    def test_small_error(self):
        assert correctness_percent(0.05) == pytest.approx(95.0)

    def test_error_above_one_clamps_to_zero(self):
        assert correctness_percent(2.0) == 0.0

    def test_infinite_error(self):
        assert correctness_percent(float("inf")) == 0.0

    def test_nan_error(self):
        assert correctness_percent(float("nan")) == 0.0

    @given(st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_always_in_range(self, err):
        assert 0.0 <= correctness_percent(err) <= 100.0
