import math

import numpy as np
import pytest

from conftest import central_diff, rel_error
from sftlab.data import FeatureMatrix, Partition
from sftlab.graphcut import (
    affinity_class_means,
    class_ncut_escape,
    cut,
    escape_probability,
    ncut,
    ncut_escape_identity_check,
    ncut_loss,
    stationary,
    volume,
)
from sftlab.transform import AffinityMatrix, affinity, transition


def random_graph(seed, n, num_classes=2):
    """Symmetric positive weight matrix plus a random full partition."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 2.0, size=(n, n))
    w = AffinityMatrix((raw + raw.T) / 2.0, 1.0)
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)  # every class non-empty
    return w, Partition(labels, num_classes)


def block_diagonal():
    w = np.zeros((4, 4))
    w[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    w[2:, 2:] = [[3.0, 0.5], [0.5, 3.0]]
    return AffinityMatrix(w, 1.0), Partition(np.array([0, 0, 1, 1]))


def two_node_uniform():
    return AffinityMatrix(np.full((2, 2), 0.7), 1.0), Partition(np.array([0, 1]))


def exp_cosine_graph():
    x = np.random.default_rng(11).normal(size=(12, 5))
    return affinity(FeatureMatrix(x), 0.5), Partition(np.arange(12) % 4)


def singleton_class():
    w, _ = random_graph(12, 9)
    return w, Partition(np.array([2, 0, 1, 0, 1, 1, 0, 1, 1]))


def isolated_node():
    """Node 0 (in class 0) has no edge weight at all."""
    w, part = random_graph(13, 6)
    data = w.data.copy()
    data[0, :] = 0.0
    data[:, 0] = 0.0
    return AffinityMatrix(data, 1.0), part


def brute_cut(w, labels, a, b):
    total = 0.0
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i] == a and labels[j] == b:
                total += w[i, j]
    return total


class TestCut:
    def test_single_edge(self):
        w = AffinityMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
        part = Partition(np.array([0, 1]))
        assert cut(w, part, 0, 1) == 1.0

    def test_block_diagonal_is_zero(self):
        w, part = block_diagonal()
        assert cut(w, part, 0, 1) == 0.0

    def test_matches_brute_force(self):
        w, part = random_graph(0, 6)
        expected = brute_cut(w.data, part.labels, 0, 1)
        assert abs(cut(w, part, 0, 1) - expected) < 1e-12 * max(1.0, expected)

    def test_symmetry_exact(self):
        for seed in range(10):
            w, part = random_graph(seed, 7, num_classes=3)
            assert cut(w, part, 0, 2) == cut(w, part, 2, 0)

    def test_same_class_rejected(self):
        w, part = random_graph(1, 5)
        with pytest.raises(ValueError):
            cut(w, part, 1, 1)

    def test_empty_class_rejected(self):
        w = AffinityMatrix(np.ones((3, 3)), 1.0)
        part = Partition(np.array([0, 0, 1]), num_classes=3)
        with pytest.raises(ValueError):
            cut(w, part, 0, 2)


class TestVolume:
    def test_whole_graph(self):
        w, _ = random_graph(2, 5)
        part = Partition(np.zeros(5, dtype=int), num_classes=1)
        assert abs(volume(w, part, 0) - w.data.sum()) < 1e-12 * w.data.sum()

    def test_singleton_is_row_sum(self):
        w, _ = random_graph(3, 5)
        part = Partition(np.array([1, 0, 0, 0, 0]), num_classes=2)
        assert abs(volume(w, part, 1) - w.data[0].sum()) < 1e-12

    def test_matches_brute_force(self):
        w, part = random_graph(4, 8, num_classes=3)
        for label in range(3):
            expected = sum(
                w.data[i, j]
                for i in range(8)
                for j in range(8)
                if part.labels[i] == label
            )
            assert abs(volume(w, part, label) - expected) < 1e-9

    def test_partition_volumes_sum_to_total(self):
        for seed in range(8):
            w, part = random_graph(seed + 50, 9, num_classes=3)
            total = sum(volume(w, part, c) for c in range(3))
            assert abs(total - w.data.sum()) < 1e-9


class TestNcut:
    def test_block_diagonal_is_zero(self):
        w, part = block_diagonal()
        assert ncut(w, part, 0) == 0.0

    def test_two_node_uniform(self):
        w, part = two_node_uniform()
        # cut = c, each volume = 2c, so the two normalized terms sum to 1
        assert abs(ncut(w, part, 0) - 1.0) < 1e-15

    def test_matches_cut_and_volume_composition(self):
        w, part = random_graph(5, 7)
        comp_labels = np.where(part.labels == 0, 0, 1)
        comp = Partition(comp_labels)
        expected = (
            cut(w, comp, 0, 1) / volume(w, comp, 0)
            + cut(w, comp, 0, 1) / volume(w, comp, 1)
        )
        assert abs(ncut(w, part, 0) - expected) < 1e-12

    def test_range(self):
        for seed in range(10):
            w, part = random_graph(seed + 100, 8, num_classes=3)
            for c in range(3):
                assert 0.0 <= ncut(w, part, c) <= 2.0


class TestStationary:
    def test_uniform_graph(self):
        w = AffinityMatrix(np.ones((4, 4)), 1.0)
        np.testing.assert_allclose(stationary(w).stationary, 0.25, atol=1e-15)

    def test_single_node(self):
        w = AffinityMatrix(np.array([[2.0]]), 1.0)
        np.testing.assert_array_equal(stationary(w).stationary, [1.0])

    def test_left_fixed_point(self):
        for seed in range(10):
            w, _ = random_graph(seed + 200, 9)
            pi = stationary(w).stationary
            t = transition(w).data
            assert np.abs(pi @ t - pi).max() < 1e-10

    def test_proportional_to_degrees(self):
        w, _ = random_graph(6, 5)
        stats = stationary(w)
        np.testing.assert_allclose(
            stats.stationary * stats.volume, w.data.sum(axis=1), rtol=1e-12
        )


def brute_escape(w, labels, a):
    """Literal evaluation of the stationary one-step exit probability."""
    n = len(labels)
    degrees = w.sum(axis=1)
    vol = degrees.sum()
    pi = degrees / vol
    numer = sum(
        pi[i] * (w[i, j] / degrees[i])
        for i in range(n)
        for j in range(n)
        if labels[i] == a and labels[j] != a
    )
    return numer / sum(pi[i] for i in range(n) if labels[i] == a)


class TestEscapeProbability:
    def test_block_diagonal_is_zero(self):
        w, part = block_diagonal()
        assert escape_probability(w, part, 0) == 0.0

    def test_two_node_uniform(self):
        w, part = two_node_uniform()
        assert abs(escape_probability(w, part, 0) - 0.5) < 1e-15

    def test_dual_path_oracle(self):
        for seed in range(12):
            w, part = random_graph(seed + 300, 8, num_classes=3)
            for c in range(3):
                got = escape_probability(w, part, c)
                direct = brute_escape(w.data, part.labels, c)
                assert abs(got - direct) < 1e-12
                comp = Partition(np.where(part.labels == c, 0, 1))
                via_cut = cut(w, comp, 0, 1) / volume(w, comp, 0)
                assert abs(got - via_cut) < 1e-12
                assert 0.0 <= got <= 1.0


class TestNcutEscapeIdentity:
    def test_pair_agrees(self):
        w, part = random_graph(7, 6)
        left, right = ncut_escape_identity_check(w, part, 0)
        assert abs(left - right) < 1e-12

    def test_block_diagonal(self):
        w, part = block_diagonal()
        assert ncut_escape_identity_check(w, part, 0) == (0.0, 0.0)

    def test_three_class_loop(self):
        w, part = random_graph(8, 8, num_classes=3)
        for c in range(3):
            left, right = ncut_escape_identity_check(w, part, c)
            assert abs(left - right) < 1e-12


KERNEL_GRAPHS = {
    "exp_cosine": exp_cosine_graph,
    "block_diagonal": block_diagonal,
    "two_node_uniform": two_node_uniform,
    "singleton_class": singleton_class,
}


class TestClassNcutEscape:
    @pytest.mark.parametrize("make", KERNEL_GRAPHS.values(), ids=KERNEL_GRAPHS)
    def test_matches_per_class_oracles(self, make):
        w, part = make()
        ncuts, escapes, escapes_rest = class_ncut_escape(w, part)
        for c in range(part.num_classes):
            rest = np.where(part.labels == c, 1, 0)
            assert abs(ncuts[c] - ncut(w, part, c)) < 1e-12
            assert abs(escapes[c] - brute_escape(w.data, part.labels, c)) < 1e-12
            assert abs(escapes_rest[c] - brute_escape(w.data, rest, 0)) < 1e-12
            assert abs(ncuts[c] - escapes[c] - escapes_rest[c]) < 1e-12
            assert escape_probability(w, part, c) == escapes[c]

    def test_several_row_chunks(self):
        # 600 rows: two full chunks of transition rows and a partial one
        x = np.random.default_rng(15).normal(size=(600, 8))
        w = affinity(FeatureMatrix(x), 0.3)
        part = Partition(np.arange(600) % 5)
        ncuts, escapes, escapes_rest = class_ncut_escape(w, part)
        for c in range(5):
            side = Partition(np.where(part.labels == c, 0, 1))
            across = cut(w, side, 0, 1)
            assert abs(escapes[c] - across / volume(w, side, 0)) < 1e-12
            assert abs(escapes_rest[c] - across / volume(w, side, 1)) < 1e-12
            assert abs(ncuts[c] - ncut(w, part, c)) < 1e-12

    def test_isolated_node_leaves_results_finite(self):
        w, part = isolated_node()
        ncuts, escapes, escapes_rest = class_ncut_escape(w, part)
        for values in (ncuts, escapes, escapes_rest):
            assert np.all(np.isfinite(values))
        assert abs(escapes[1] - brute_escape(w.data, part.labels, 1)) < 1e-12
        assert abs(escape_probability(w, part, 1) - escapes[1]) < 1e-15
        for c in range(2):
            assert abs(ncuts[c] - ncut(w, part, c)) < 1e-12
            assert abs(ncuts[c] - escapes[c] - escapes_rest[c]) < 1e-12

    def test_undefined_classes_are_nan(self):
        w = AffinityMatrix(np.ones((3, 3)), 1.0)
        ncuts, escapes, escapes_rest = class_ncut_escape(w, Partition(np.zeros(3, dtype=int), 2))
        # class 0 covers the graph, class 1 is empty
        assert np.isnan(ncuts).all() and np.isnan(escapes_rest[0]) and np.isnan(escapes[1])

    @pytest.mark.parametrize("func", [escape_probability, ncut_escape_identity_check])
    @pytest.mark.parametrize("case, message", [
        ("out_of_range", "out of range"),
        ("empty", "is empty"),
        ("whole_graph", "covers the whole graph"),
        ("isolated_inside", "zero-degree"),
    ])
    def test_per_class_errors(self, func, case, message):
        w, part = random_graph(14, 5)
        a = 0
        if case == "out_of_range":
            a = part.num_classes
        elif case == "empty":
            part, a = Partition(part.labels, num_classes=3), 2
        elif case == "whole_graph":
            part = Partition(np.zeros(5, dtype=int), num_classes=1)
        else:
            w, part = isolated_node()
        with pytest.raises(ValueError, match=message):
            func(w, part, a)

    def test_identity_check_rejects_isolated_node_in_complement(self):
        w, part = isolated_node()
        with pytest.raises(ValueError, match="zero-degree"):
            ncut_escape_identity_check(w, part, 1)


class TestNcutLoss:
    def test_separated_orthogonal_clusters(self):
        x = np.zeros((6, 8))
        x[:3, 0] = 1.0
        x[3:, 1] = 1.0
        x += 1e-3 * np.random.default_rng(0).normal(size=x.shape)
        loss, _ = ncut_loss(FeatureMatrix(x), Partition(np.array([0, 0, 0, 1, 1, 1])), 0.02)
        assert loss < 1e-6

    def test_identical_samples_balanced_two_classes(self):
        x = np.tile([1.0, 2.0, 3.0], (4, 1))
        loss, _ = ncut_loss(FeatureMatrix(x), Partition(np.array([0, 0, 1, 1])), 0.5)
        # uniform weights: each class escape = (n/2)/n, two classes total 1
        assert abs(loss - 1.0) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 4))
        labels = Partition(np.array([0, 1, 0, 1, 0, 1, 0, 1]))
        _, grad = ncut_loss(FeatureMatrix(x), labels, 0.5)
        numeric = central_diff(
            lambda v: ncut_loss(FeatureMatrix(v), labels, 0.5)[0], x
        )
        assert rel_error(grad.data, numeric) < 1e-5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        loss, grad = ncut_loss(FeatureMatrix(x), Partition(labels), 0.3)
        perm = rng.permutation(6)
        loss_p, grad_p = ncut_loss(FeatureMatrix(x[perm]), Partition(labels[perm]), 0.3)
        assert abs(loss - loss_p) < 1e-12
        np.testing.assert_allclose(grad.data[perm], grad_p.data, atol=1e-12)

    def test_degenerate_partition_rejected(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        with pytest.raises(ValueError):
            ncut_loss(FeatureMatrix(x), Partition(np.zeros(4, dtype=int), num_classes=1), 0.5)

    @pytest.mark.parametrize("layout", ["blocks", "shuffled", "gaps", "uneven"])
    def test_bitwise_equal_to_per_class_masks(self, layout):
        rng = np.random.default_rng(12)
        labels = {
            "blocks": np.repeat([3, 0, 2, 1], 5),    # PK order: contiguous, unsorted
            "shuffled": rng.permutation(np.repeat(np.arange(4), 5)),
            "gaps": np.array([0, 2, 2, 5] * 5),     # absent labels in between
            "uneven": np.array([1] * 13 + [0] * 2 + [2] * 5),
        }[layout]
        x = rng.normal(size=(20, 6))
        loss, grad = ncut_loss(FeatureMatrix(x), Partition(labels), 0.3)
        want_loss, want_grad = masked_ncut_loss(x, labels, 0.3)
        assert loss == want_loss
        assert np.array_equal(grad.data, want_grad)
        # a raw array in gives the same loss and a raw array gradient
        raw_loss, raw_grad = ncut_loss(x, Partition(labels), 0.3)
        assert raw_loss == want_loss
        assert type(raw_grad) is np.ndarray and np.array_equal(raw_grad, want_grad)


def masked_ncut_loss(x, labels, sigma):
    """ncut_loss with one np.ix_ block per class, as first written."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    unit = x / norms[:, None]
    weights = np.exp(np.clip(unit @ unit.T, -1.0, 1.0) / sigma)
    loss = 0.0
    grad_w = np.zeros_like(weights)
    for label in np.unique(labels):
        mask = labels == label
        comp = ~mask
        cross = float(weights[np.ix_(mask, comp)].sum())
        vol = float(weights[mask, :].sum())
        loss += cross / vol
        grad_w[np.ix_(mask, comp)] += 1.0 / vol
        grad_w[mask, :] -= cross / vol**2
    grad_cos = grad_w * weights / sigma
    grad_unit = (grad_cos + grad_cos.T) @ unit
    radial = np.einsum("ij,ij->i", grad_unit, unit)
    return loss, (grad_unit - radial[:, None] * unit) / norms[:, None]


class TestAffinityClassMeans:
    def test_separated_clusters(self):
        x = np.zeros((4, 4))
        x[:2, 0] = 1.0
        x[2:, 1] = 1.0
        w = affinity(FeatureMatrix(x), 0.5)
        intra, inter = affinity_class_means(w, Partition(np.array([0, 0, 1, 1])))
        assert intra == pytest.approx(math.exp(2.0), rel=1e-12)
        assert inter == pytest.approx(1.0, rel=1e-12)
        assert intra > inter
