import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff, rel_error
from sftlab.data import FeatureMatrix
from sftlab.transform import (
    AffinityMatrix,
    StochasticMatrix,
    ZeroNormRowError,
    affinity,
    sft_backward,
    sft_transform,
    sft_transform_array,
    transition,
)

E = math.e


def feature_strategy(max_n=6, max_d=5):
    return st.tuples(st.integers(2, max_n), st.integers(1, max_d), st.integers(0, 10_000)).map(
        lambda t: np.random.default_rng(t[2]).normal(size=(t[0], t[1]))
    )


class TestAffinity:
    def test_identical_directions(self):
        w = affinity(FeatureMatrix([[1.0, 0.0], [1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(w.data, E, rtol=0, atol=1e-15)

    def test_orthogonal(self):
        w = affinity(FeatureMatrix([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        np.testing.assert_allclose(np.diag(w.data), E, atol=1e-15)
        assert w.data[0, 1] == 1.0 and w.data[1, 0] == 1.0

    def test_matches_per_entry_oracle(self):
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3))
        sigma = 0.1
        w = affinity(FeatureMatrix(x), sigma)
        for i in range(4):
            for j in range(4):
                ni = math.sqrt(sum(v * v for v in x[i]))
                nj = math.sqrt(sum(v * v for v in x[j]))
                cos = sum(a * b for a, b in zip(x[i], x[j])) / (ni * nj)
                expected = math.exp(min(1.0, max(-1.0, cos)) / sigma)
                assert abs(w.data[i, j] - expected) <= 1e-12 * expected

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(3)
        for sigma in (0.02, 0.1, 1.0):
            w = affinity(FeatureMatrix(rng.normal(size=(6, 4))), sigma)
            top = math.exp(1.0 / sigma)
            assert w.data.min() > 0
            assert w.data.max() <= top * (1 + 1e-12)
            np.testing.assert_allclose(np.diag(w.data), top, rtol=1e-12)
            np.testing.assert_allclose(w.data, w.data.T, atol=1e-12 * top)

    def test_zero_norm_row_reports_index(self):
        with pytest.raises(ZeroNormRowError) as err:
            affinity(FeatureMatrix([[1.0, 0.0], [0.0, 0.0]]), 1.0)
        assert err.value.row == 1

    @pytest.mark.parametrize("sigma", [0.0, -0.5, math.nan, math.inf])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            affinity(FeatureMatrix([[1.0, 0.0]]), sigma)

    def test_type_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            AffinityMatrix(np.array([[1.0, 2.0], [1.0, 1.0]]), 1.0)


class TestTransition:
    def test_uniform_affinity(self):
        t = transition(AffinityMatrix(np.full((2, 2), E), 1.0))
        np.testing.assert_array_equal(t.data, 0.5)

    def test_single_node(self):
        t = transition(AffinityMatrix(np.array([[3.7]]), 1.0))
        np.testing.assert_array_equal(t.data, [[1.0]])

    def test_equals_row_softmax_of_scaled_cosines(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 4))
        sigma = 0.1
        t = transition(affinity(FeatureMatrix(x), sigma))
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        logits = (unit @ unit.T) / sigma
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        softmax = shifted / shifted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(t.data, softmax, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(feature_strategy())
    def test_rows_sum_to_one_and_positive(self, x):
        t = transition(affinity(FeatureMatrix(x), 0.1))
        assert np.abs(t.data.sum(axis=1) - 1.0).max() < 1e-9
        assert t.data.min() > 0

    def test_type_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            StochasticMatrix(np.array([[0.6, 0.5], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="transition matrix contains non-finite values"):
            StochasticMatrix(np.full((2, 2), np.nan))


class TestSftTransform:
    def test_identical_rows_fixed_point(self):
        x = np.tile([2.0, -1.0, 0.5], (4, 1))
        out = sft_transform(FeatureMatrix(x), 0.3)
        np.testing.assert_allclose(out.data, x, atol=1e-12)

    def test_single_row_fixed_point(self):
        x = np.array([[3.0, 4.0]])
        np.testing.assert_allclose(sft_transform(FeatureMatrix(x), 0.5).data, x, atol=1e-15)

    def test_two_orthogonal_rows_hand_values(self):
        out = sft_transform(FeatureMatrix([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        own, other = E / (E + 1.0), 1.0 / (E + 1.0)  # logistic(1) split
        np.testing.assert_allclose(out.data, [[own, other], [other, own]], atol=1e-12)
        np.testing.assert_allclose(out.data[0], [0.731059, 0.268941], atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(feature_strategy())
    def test_rows_stay_in_convex_hull(self, x):
        out = sft_transform_array(x, 0.2)
        lo = x.min(axis=0) - 1e-12
        hi = x.max(axis=0) + 1e-12
        assert np.all(out >= lo) and np.all(out <= hi)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(7, 3))
        perm = rng.permutation(7)
        direct = sft_transform_array(x[perm], 0.1)
        permuted = sft_transform_array(x, 0.1)[perm]
        assert np.abs(direct - permuted).max() < 1e-10

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(6, 4))
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated_out = sft_transform_array(x @ q, 0.1)
        out_rotated = sft_transform_array(x, 0.1) @ q
        assert np.abs(rotated_out - out_rotated).max() < 1e-9


class TestSftBackward:
    def test_matches_finite_differences_reference_case(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 4))
        grad_out = rng.normal(size=(6, 4))
        analytic = sft_backward(x, 0.5, grad_out)
        numeric = central_diff(lambda v: float((sft_transform_array(v, 0.5) * grad_out).sum()), x)
        assert rel_error(analytic, numeric) < 1e-6

    @pytest.mark.parametrize("n", [2, 3, 8])
    @pytest.mark.parametrize("d", [1, 2, 16])
    @pytest.mark.parametrize("sigma", [0.02, 0.1, 1.0])
    def test_matches_finite_differences_grid(self, n, d, sigma):
        rng = np.random.default_rng(n * 1000 + d * 10 + int(sigma * 100))
        x = rng.normal(size=(n, d))
        grad_out = rng.normal(size=(n, d))
        analytic = sft_backward(x, sigma, grad_out)
        numeric = central_diff(lambda v: float((sft_transform_array(v, sigma) * grad_out).sum()), x)
        assert rel_error(analytic, numeric) < 1e-5

    def test_zero_grad_out(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        out = sft_backward(x, 0.3, np.zeros_like(x))
        np.testing.assert_array_equal(out, 0.0)

    def test_huge_sigma_approaches_uniform_averaging(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(6, 4))
        grad_out = rng.normal(size=(6, 4))
        analytic = sft_backward(x, 1e6, grad_out)
        uniform = np.full((6, 6), 1.0 / 6.0)
        assert np.abs(analytic - uniform.T @ grad_out).max() < 1e-3

    def test_detached_transition_is_pure_averaging_gradient(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 3))
        grad_out = rng.normal(size=(5, 3))
        detached = sft_backward(x, 0.2, grad_out, through_transition=False)
        trans = transition(affinity(FeatureMatrix(x), 0.2)).data
        np.testing.assert_allclose(detached, trans.T @ grad_out, atol=1e-12)

    def test_wrapped_types(self):
        x = FeatureMatrix([[1.0, 0.0], [0.0, 1.0]])
        g = FeatureMatrix([[1.0, 1.0], [1.0, 1.0]])
        assert isinstance(sft_backward(x, 1.0, g), FeatureMatrix)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sft_backward(np.ones((2, 2)), 1.0, np.ones((3, 2)))
