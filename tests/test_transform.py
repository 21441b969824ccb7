import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import central_diff, rel_error
from reference import joined, transition
from sftlab import cli
from sftlab.data import DatasetManifest, FeatureMatrix, SampleRecord, load_features, save_features, save_manifest
from sftlab.graphcut import class_ncut_escape, ncut_loss
from sftlab.transform import (
    ZeroNormRowError,
    _cosine_tiles,
    _cosine_backward,
    _exp_cosines,
    _sft_backward,
    _transition_from_features,
    _unit_backward,
    _unit_rows,
    affinity,
    affinity_tiles,
    cosine_between,
    sft_backward,
    sft_transform,
    sft_transform_array,
)

E = math.e


def feature_strategy(max_n=6, max_d=5):
    return st.tuples(st.integers(2, max_n), st.integers(1, max_d), st.integers(0, 10_000)).map(
        lambda t: np.random.default_rng(t[2]).normal(size=(t[0], t[1]))
    )


class TestAffinity:
    def test_identical_directions(self):
        w = affinity(FeatureMatrix([[1.0, 0.0], [1.0, 0.0]]), 1.0)
        np.testing.assert_allclose(w, 1.0, rtol=0, atol=1e-15)

    def test_orthogonal(self):
        w = affinity(FeatureMatrix([[1.0, 0.0], [0.0, 1.0]]), 1.0)
        np.testing.assert_allclose(np.diag(w), 1.0, rtol=0, atol=1e-15)
        np.testing.assert_allclose([w[0, 1], w[1, 0]], 1.0 / E, rtol=1e-15)

    def test_matches_per_entry_oracle(self):
        # the graph is exp(cos / sigma) scaled by exp(-1 / sigma)
        rng = np.random.default_rng(42)
        x = rng.normal(size=(4, 3))
        for sigma in (0.05, 0.17, 1.0):
            w = affinity(FeatureMatrix(x), sigma) * math.exp(1.0 / sigma)
            for i in range(4):
                for j in range(4):
                    ni = math.sqrt(sum(v * v for v in x[i]))
                    nj = math.sqrt(sum(v * v for v in x[j]))
                    cos = sum(a * b for a, b in zip(x[i], x[j])) / (ni * nj)
                    expected = math.exp(min(1.0, max(-1.0, cos)) / sigma)
                    assert abs(w[i, j] - expected) <= 1e-12 * expected

    def test_bounds_and_symmetry(self):
        rng = np.random.default_rng(3)
        for sigma in (0.001, 0.02, 0.1, 1.0):
            w = affinity(FeatureMatrix(rng.normal(size=(6, 4))), sigma)
            assert w.min() >= 0.0
            assert w.max() <= 1.0
            np.testing.assert_allclose(np.diag(w), 1.0, rtol=1e-12)
            np.testing.assert_allclose(w, w.T, atol=1e-12)

    def test_zero_norm_row_reports_index(self):
        with pytest.raises(ZeroNormRowError) as err:
            affinity(FeatureMatrix([[1.0, 0.0], [0.0, 0.0]]), 1.0)
        assert err.value.row == 1

    @pytest.mark.parametrize("sigma", [0.0, -0.5, math.nan, math.inf])
    def test_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            affinity(FeatureMatrix([[1.0, 0.0]]), sigma)


# (rows, dims) of graphs the package builds, from 51-node refine heads to
# the 2,400-row diagnose graph; from 513 rows on a graph is built from rows
# zero-padded to a multiple of 16, which 513 and 1237 are not: whole for
# affinity, in upper trapezoids for diagnose
SYMMETRY_SHAPES = [(51, 16), (300, 7), (513, 16), (957, 32), (1237, 32), (2400, 32)]


class TestBuiltGraphsAreSymmetric:
    """Every graph the package builds is exactly symmetric: the cosines are
    numpy's symmetric product of the unit rows with themselves, or a
    product of the zero-padded rows whose shapes are all multiples of 16,
    whole or in upper trapezoids and their mirror, and the rest is
    elementwise.  The graph
    diagnostics rely on this instead of checking each graph."""

    @pytest.mark.parametrize("n,d", SYMMETRY_SHAPES)
    def test_affinity(self, n, d):
        x = np.random.default_rng(n).normal(size=(n, d))
        w = affinity(FeatureMatrix(x), 0.1)
        assert np.array_equal(w, w.T)

    @pytest.mark.parametrize("n,d", SYMMETRY_SHAPES)
    def test_diagnose_graph(self, n, d, tmp_path, capsys):
        # `diagnose` streams the graph of its rows in class order in row
        # tiles; the same tiles give the same printed lines
        feats, manifest = tmp_path / "f.sfte", tmp_path / "m.tsv"
        save_features(FeatureMatrix(np.random.default_rng(n).normal(size=(n, d))), feats)
        save_manifest(DatasetManifest(tuple(SampleRecord(f"s{i}", i % 4, 0, "train") for i in range(n))),
                      manifest)
        assert cli.main(["diagnose", "--features", str(feats), "--manifest", str(manifest),
                         "--sigma", "0.1"]) == 0
        labels = np.arange(n) % 4
        order = np.argsort(labels, kind="stable")
        tiles = affinity_tiles(FeatureMatrix(load_features(feats).data[order]), 0.1)
        ncuts, escapes, escapes_rest = class_ncut_escape(tiles, labels[order])
        lines = [f"identity {c}: escape_probability={escape:.6f} ncut={value:.6f}"
                 for c, (value, escape) in enumerate(zip(ncuts, escapes))]
        lines.append(f"max_ncut_identity_residual={float(np.abs(ncuts - (escapes + escapes_rest)).max()):.6e}")
        assert capsys.readouterr().out.splitlines() == lines


class TestRowTiles:
    """A graph of more than 2**18 cells is built, and multiplied onto the
    features, one upper trapezoid at a time, or as one padded product where
    its caller needs it whole."""

    @pytest.mark.parametrize("n", [513, 1237, 2400, 4000])
    def test_trapezoids_cover_the_upper_triangle_once(self, n):
        # each trapezoid starts at a multiple of 32 rows, holds rows lo:hi in
        # columns lo:n of at most 2**18 padded cells, and starts where the
        # last one stopped
        x = np.random.default_rng(n).normal(size=(n, 8))
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        whole = np.clip(unit @ unit.T, -1.0, 1.0)
        lo = 0
        for tile in _cosine_tiles(unit):
            rows, columns = tile.shape
            assert lo % 32 == 0 and columns == n - lo
            assert -(-rows // 16) * 16 * (-(-columns // 16) * 16) <= 2**18
            np.testing.assert_allclose(tile, whole[lo:lo + rows, lo:], rtol=0, atol=1e-15)
            lo += rows
        assert lo == n

    def test_above_8192_rows_a_trapezoid_holds_32_rows(self):
        # the 32-row floor beats the cell budget there: a trapezoid holds
        # 32 padded rows times the padded columns, more than 2**18 cells,
        # until the columns fit the budget again
        n, size = 9000, 9008
        x = np.random.default_rng(9).normal(size=(n, 4))
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        lo = 0
        for tile in _cosine_tiles(unit):
            rows, columns = tile.shape
            assert columns == n - lo
            if lo == 0:
                assert rows == 32 and rows * size > 2**18
            assert -(-rows // 16) * 16 * (size - lo) <= max(2**18, 32 * size)
            assert rows == 32 or 32 * (size - lo) <= 2**18
            np.testing.assert_allclose(tile, unit[lo:lo + rows] @ unit[lo:].T, rtol=0, atol=1e-15)
            lo += rows
        assert lo == n

    def test_transform_matches_a_whole_graph_reference(self):
        # 1237 rows: five trapezoids of 192, 224, 288, 480 and 53 rows
        x = np.random.default_rng(8).normal(size=(1237, 32))
        got = sft_transform_array(x, 0.2)
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        weights = np.exp(np.clip(unit @ unit.T, -1.0, 1.0) / 0.2)
        np.testing.assert_allclose(got, (weights / weights.sum(axis=1, keepdims=True)) @ x, rtol=0, atol=1e-12)
        assert np.array_equal(got, sft_transform_array(x[None], 0.2)[0])

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(st.integers(513, 1300), st.integers(1, 40), st.sampled_from([(), (2,)]), st.integers(0, 2**16))
    @example(513, 7, (2,), 0)
    @example(1237, 32, (), 1)
    @example(1296, 40, (2,), 2)
    def test_a_whole_graph_is_its_trapezoids_and_their_mirror(self, n, d, stack, seed):
        # the whole graph that affinity, the transition and the ncut loss
        # take, one product of the padded rows, has the bits of the
        # trapezoids that transform and diagnose stream, joined with their
        # mirror: the cosines, and the edge weights built on them in place
        unit = _unit_rows(np.random.default_rng(seed).normal(size=stack + (n, d)))[1]
        for kernel, args in ((_cosine_tiles, ()), (_exp_cosines, (0.1,))):
            graph, = kernel(unit, *args, whole=True)
            oracle = joined(kernel(unit, *args), n)
            assert graph.shape == oracle.shape == stack + (n, n)
            for s in np.ndindex(stack):
                assert np.array_equal(graph[s], oracle[s])

    def test_whole_transition_matches_affinity_and_the_streamed_transform(self):
        # 600 rows: one whole graph for the transition and affinity, two
        # trapezoids, of 416 and 184 rows, for the streamed transform
        x = np.random.default_rng(9).normal(size=(600, 8))
        trans = _transition_from_features(x, 0.3)[2]
        assert np.array_equal(trans, _transition_from_features(x[None], 0.3)[2][0])
        np.testing.assert_allclose(trans, transition(affinity(FeatureMatrix(x), 0.3)), rtol=1e-12, atol=0)
        np.testing.assert_allclose(sft_transform_array(x, 0.3), trans @ x, rtol=0, atol=1e-12)


# 2 / sigma overflows float64 from this sigma down; the next float up is the
# smallest sigma accepted
SIGMA_OVERFLOWING = 2.0 / np.finfo(np.float64).max
SIGMA_SMALLEST = float(np.nextafter(SIGMA_OVERFLOWING, 1.0))


class TestTinySigma:
    """A sigma so small that 2 / sigma, the widest span of cos / sigma,
    overflows is rejected by name; the smallest sigma above stays finite."""

    CALLS = {
        "sft_transform_array": lambda x, s: sft_transform_array(x, s),
        "sft_backward": lambda x, s: sft_backward(x, s, np.ones_like(x)),
        "ncut_loss": lambda x, s: ncut_loss(x, np.array([0, 0, 1, 1, 2]), s)[1],
        "affinity": lambda x, s: affinity(FeatureMatrix(x), s),
    }

    @pytest.mark.parametrize("sigma", [1e-309, SIGMA_OVERFLOWING, 5e-324])
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_rejected(self, call, sigma):
        x = np.random.default_rng(0).normal(size=(5, 3))
        with pytest.raises(ValueError, match=f"^sigma {sigma} too small: 2/sigma overflows float64$"):
            self.CALLS[call](x, sigma)

    @pytest.mark.parametrize("call", ["sft_transform_array", "sft_backward"])
    def test_smallest_accepted_sigma_stays_finite(self, call):
        x = np.random.default_rng(0).normal(size=(5, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(self.CALLS[call](x, SIGMA_SMALLEST)).all()


class TestTransition:
    """The transform's transition matrix, from _transition_from_features."""

    def test_uniform_affinity(self):
        t = _transition_from_features(np.ones((2, 3)), 1.0)[2]
        np.testing.assert_array_equal(t, 0.5)

    def test_single_node(self):
        t = _transition_from_features(np.array([[3.7, -1.0]]), 0.1)[2]
        np.testing.assert_array_equal(t, [[1.0]])

    def test_equals_row_softmax_of_scaled_cosines(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(5, 4))
        sigma = 0.1
        unit = x / np.linalg.norm(x, axis=1, keepdims=True)
        logits = (unit @ unit.T) / sigma
        shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
        softmax = shifted / shifted.sum(axis=1, keepdims=True)
        for t in (_transition_from_features(x, sigma)[2], transition(affinity(FeatureMatrix(x), sigma))):
            np.testing.assert_allclose(t, softmax, rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(feature_strategy())
    def test_rows_sum_to_one_and_positive(self, x):
        t = _transition_from_features(x, 0.1)[2]
        assert np.abs(t.sum(axis=1) - 1.0).max() < 1e-9
        assert t.min() > 0


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


def reference_transform_2d(x, sigma):
    """sft_transform_array as it was before it took stacks: 2-d only."""
    unit = x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    trans = unit @ unit.T
    np.clip(trans, -1.0, 1.0, out=trans)
    trans /= sigma
    trans -= trans.max(axis=1, keepdims=True)
    np.exp(trans, out=trans)
    trans /= trans.sum(axis=1, keepdims=True)
    return trans @ x


class TestStacks:
    """An (..., n, d) stack transforms each graph with the bits it has alone."""

    @pytest.mark.parametrize("n,d", [(1, 3), (2, 1), (5, 7), (51, 32), (64, 33)])
    def test_stack_equals_slice_by_slice(self, n, d):
        rng = np.random.default_rng(n * 100 + d)
        x = rng.normal(size=(5, n, d))
        stacked = sft_transform_array(x, 0.1)
        deeper = sft_transform_array(x.reshape(1, 5, n, d), 0.1)[0]
        for b in range(5):
            alone = sft_transform_array(x[b].copy(), 0.1)
            assert np.array_equal(stacked[b], alone)
            assert np.array_equal(deeper[b], alone)
            assert np.array_equal(alone, reference_transform_2d(x[b], 0.1))

    def test_cosines_of_a_stack(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 1, 6)), rng.normal(size=(4, 9, 6))
        stacked = cosine_between(a, b)
        assert stacked.shape == (4, 1, 9)
        for i in range(4):
            assert np.array_equal(stacked[i], cosine_between(a[i].copy(), b[i].copy()))

    @pytest.mark.parametrize("n,d", [(2, 1), (5, 7), (16, 16), (64, 16)])
    def test_backward_kernels_equal_slice_by_slice(self, n, d):
        """The unit-row, cosine and transform backward passes take each
        matrix of a stack with the bits it has alone, sigma one per matrix."""
        rng = np.random.default_rng(n * 100 + d)
        x, grad = rng.normal(size=(2, 5, n, d))
        sigma = np.array([0.05, 0.1, 0.17, 0.5, 2.0])
        forward = _transition_from_features(x, sigma[:, None, None])
        norms, unit, trans = forward
        grad_cos = rng.normal(size=(5, n, n))
        stacked = {
            "unit": _unit_backward(grad, unit, norms),
            "cosine": _cosine_backward(grad_cos, unit, norms),
            "sft": _sft_backward(x, sigma[:, None, None], grad, forward, True),
            "sft_feature_factor": _sft_backward(x, sigma[:, None, None], grad, forward, False),
        }
        for b in range(5):
            alone = _transition_from_features(x[b].copy(), float(sigma[b]))
            assert all(np.array_equal(s[b], a) for s, a in zip(forward, alone))
            copies = x[b].copy(), grad[b].copy(), alone[0], alone[1]
            want = {
                "unit": _unit_backward(copies[1], copies[3], copies[2]),
                "cosine": _cosine_backward(grad_cos[b].copy(), copies[3], copies[2]),
                "sft": sft_backward(copies[0], float(sigma[b]), copies[1]),
                "sft_feature_factor": sft_backward(copies[0], float(sigma[b]), copies[1], False),
            }
            for name, got in stacked.items():
                assert np.array_equal(got[b], want[name]), name

    def test_zero_norm_row_named_within_its_matrix(self):
        x = np.ones((3, 4, 2))
        x[2, 1] = 0.0
        x[1, 3] = 0.0
        with pytest.raises(ZeroNormRowError, match="^row 3 has zero norm"):
            sft_transform_array(x, 0.1)


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
        trans = transition(affinity(FeatureMatrix(x), 0.2))
        np.testing.assert_allclose(detached, trans.T @ grad_out, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sft_backward(np.ones((2, 2)), 1.0, np.ones((3, 2)))
