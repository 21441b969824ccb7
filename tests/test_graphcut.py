import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import central_diff, rel_error
from sftlab.data import FeatureMatrix
from reference import cut, ncut, ordered_ncut_escape, stationary, transition, volume
from sftlab.graphcut import affinity_class_means, class_ncut_escape, ncut_loss
from sftlab.transform import affinity, affinity_tiles


def random_graph(seed, n, num_classes=2):
    """Symmetric positive weight matrix plus the class ids of a random full
    partition."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.1, 2.0, size=(n, n))
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)  # every class non-empty
    return (raw + raw.T) / 2.0, labels


def block_diagonal():
    w = np.zeros((4, 4))
    w[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    w[2:, 2:] = [[3.0, 0.5], [0.5, 3.0]]
    return w, np.array([0, 0, 1, 1])


def two_node_uniform():
    return np.full((2, 2), 0.7), np.array([0, 1])


def exp_cosine_graph():
    x = np.random.default_rng(11).normal(size=(12, 5))
    return affinity(FeatureMatrix(x), 0.5), np.arange(12) % 4


def singleton_class():
    w, _ = random_graph(12, 9)
    return w, np.array([2, 0, 1, 0, 1, 1, 0, 1, 1])


def isolated_node():
    """Node 0 (in class 0) has no edge weight at all."""
    w, labels = random_graph(13, 6)
    w[0, :] = 0.0
    w[:, 0] = 0.0
    return w, labels


def brute_cut(w, labels, a, b):
    total = 0.0
    for i in range(len(labels)):
        for j in range(len(labels)):
            if labels[i] == a and labels[j] == b:
                total += w[i, j]
    return total


class TestCut:
    def test_single_edge(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1])
        assert cut(w, labels, 0, 1) == 1.0

    def test_block_diagonal_is_zero(self):
        w, labels = block_diagonal()
        assert cut(w, labels, 0, 1) == 0.0

    def test_matches_brute_force(self):
        w, labels = random_graph(0, 6)
        expected = brute_cut(w, labels, 0, 1)
        assert abs(cut(w, labels, 0, 1) - expected) < 1e-12 * max(1.0, expected)


class TestVolume:
    def test_whole_graph(self):
        w, _ = random_graph(2, 5)
        labels = np.zeros(5, dtype=int)
        assert abs(volume(w, labels, 0) - w.sum()) < 1e-12 * w.sum()

    def test_singleton_is_row_sum(self):
        w, _ = random_graph(3, 5)
        labels = np.array([1, 0, 0, 0, 0])
        assert abs(volume(w, labels, 1) - w[0].sum()) < 1e-12

    def test_matches_brute_force(self):
        w, labels = random_graph(4, 8, num_classes=3)
        for label in range(3):
            expected = sum(
                w[i, j]
                for i in range(8)
                for j in range(8)
                if labels[i] == label
            )
            assert abs(volume(w, labels, label) - expected) < 1e-9

    def test_partition_volumes_sum_to_total(self):
        for seed in range(8):
            w, labels = random_graph(seed + 50, 9, num_classes=3)
            total = sum(volume(w, labels, c) for c in range(3))
            assert abs(total - w.sum()) < 1e-9


class TestNcut:
    def test_block_diagonal_is_zero(self):
        w, labels = block_diagonal()
        assert ncut(w, labels, 0) == 0.0

    def test_two_node_uniform(self):
        w, labels = two_node_uniform()
        # cut = c, each volume = 2c, so the two normalized terms sum to 1
        assert abs(ncut(w, labels, 0) - 1.0) < 1e-15

    def test_matches_cut_and_volume_composition(self):
        w, labels = random_graph(5, 7)
        comp = np.where(labels == 0, 0, 1)
        expected = (
            cut(w, comp, 0, 1) / volume(w, comp, 0)
            + cut(w, comp, 0, 1) / volume(w, comp, 1)
        )
        assert abs(ncut(w, labels, 0) - expected) < 1e-12

    def test_range(self):
        for seed in range(10):
            w, labels = random_graph(seed + 100, 8, num_classes=3)
            for c in range(3):
                assert 0.0 <= ncut(w, labels, c) <= 2.0


class TestStationary:
    def test_uniform_graph(self):
        w = np.ones((4, 4))
        np.testing.assert_allclose(stationary(w)[0], 0.25, atol=1e-15)

    def test_single_node(self):
        w = np.array([[2.0]])
        np.testing.assert_array_equal(stationary(w)[0], [1.0])

    def test_left_fixed_point(self):
        for seed in range(10):
            w, _ = random_graph(seed + 200, 9)
            pi = stationary(w)[0]
            assert np.abs(pi @ transition(w) - pi).max() < 1e-10

    def test_proportional_to_degrees(self):
        w, _ = random_graph(6, 5)
        pi, total = stationary(w)
        np.testing.assert_allclose(pi * total, w.sum(axis=1), rtol=1e-12)


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
    """The escapes of :func:`class_ncut_escape`, class by class."""

    def test_block_diagonal_is_zero(self):
        w, labels = block_diagonal()
        assert ordered_ncut_escape(w, labels)[1][0] == 0.0

    def test_two_node_uniform(self):
        w, labels = two_node_uniform()
        assert abs(ordered_ncut_escape(w, labels)[1][0] - 0.5) < 1e-15

    def test_dual_path_oracle(self):
        for seed in range(12):
            w, labels = random_graph(seed + 300, 8, num_classes=3)
            escapes = ordered_ncut_escape(w, labels)[1]
            for c in range(3):
                got = escapes[c]
                direct = brute_escape(w, labels, c)
                assert abs(got - direct) < 1e-12
                comp = np.where(labels == c, 0, 1)
                via_cut = cut(w, comp, 0, 1) / volume(w, comp, 0)
                assert abs(got - via_cut) < 1e-12
                assert 0.0 <= got <= 1.0


def identity_pair(w, labels, c):
    """(ncut, escape(c -> rest) + escape(rest -> c)) of class c, both
    from :func:`class_ncut_escape`, along its two arithmetic routes."""
    ncuts, escapes, escapes_rest = ordered_ncut_escape(w, labels)
    return float(ncuts[c]), float(escapes[c] + escapes_rest[c])


class TestNcutEscapeIdentity:
    def test_pair_agrees(self):
        w, labels = random_graph(7, 6)
        left, right = identity_pair(w, labels, 0)
        assert abs(left - right) < 1e-12

    def test_block_diagonal(self):
        w, labels = block_diagonal()
        assert identity_pair(w, labels, 0) == (0.0, 0.0)

    def test_three_class_loop(self):
        w, labels = random_graph(8, 8, num_classes=3)
        for c in range(3):
            left, right = identity_pair(w, labels, c)
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
        w, labels = make()
        ncuts, escapes, escapes_rest = ordered_ncut_escape(w, labels)
        for c in range(labels.max() + 1):
            rest = np.where(labels == c, 1, 0)
            assert abs(ncuts[c] - ncut(w, labels, c)) < 1e-12
            assert abs(escapes[c] - brute_escape(w, labels, c)) < 1e-12
            assert abs(escapes_rest[c] - brute_escape(w, rest, 0)) < 1e-12
            assert abs(ncuts[c] - escapes[c] - escapes_rest[c]) < 1e-12

    def test_several_row_chunks(self):
        # 600 rows: the tiles of the class-ordered rows are two row blocks,
        # of 416 and 184 rows, as ``sftlab diagnose`` reads them
        x = np.random.default_rng(15).normal(size=(600, 8))
        w = affinity(FeatureMatrix(x), 0.3)
        labels = np.arange(600) % 5
        order = np.argsort(labels, kind="stable")
        ncuts, escapes, escapes_rest = class_ncut_escape(affinity_tiles(FeatureMatrix(x[order]), 0.3),
                                                         labels[order])
        for c in range(5):
            side = np.where(labels == c, 0, 1)
            across = cut(w, side, 0, 1)
            assert abs(escapes[c] - across / volume(w, side, 0)) < 1e-12
            assert abs(escapes_rest[c] - across / volume(w, side, 1)) < 1e-12
            assert abs(ncuts[c] - ncut(w, labels, c)) < 1e-12

    def test_isolated_node_leaves_results_finite(self):
        w, labels = isolated_node()
        ncuts, escapes, escapes_rest = ordered_ncut_escape(w, labels)
        for values in (ncuts, escapes, escapes_rest):
            assert np.all(np.isfinite(values))
        assert abs(escapes[1] - brute_escape(w, labels, 1)) < 1e-12
        for c in range(2):
            assert abs(ncuts[c] - ncut(w, labels, c)) < 1e-12
            assert abs(ncuts[c] - escapes[c] - escapes_rest[c]) < 1e-12

    def test_undefined_classes_are_nan(self):
        ncuts, escapes, escapes_rest = ordered_ncut_escape(np.ones((3, 3)), np.array([2, 2, 2]))
        # class 2 covers the graph, classes 0 and 1 are empty
        assert np.isnan(ncuts).all() and np.isnan(escapes_rest[2]) and np.isnan(escapes[:2]).all()

    @pytest.mark.parametrize("case", ["empty", "isolated_class"])
    def test_undefined_class_leaves_the_others_exact(self, case):
        w, labels = random_graph(14, 7, num_classes=3)
        if case == "empty":  # class 2's nodes move to class 3
            labels = np.where(labels == 2, 3, labels)
        else:
            w[labels == 2, :] = 0.0
            w[:, labels == 2] = 0.0
        ncuts, escapes, escapes_rest = ordered_ncut_escape(w, labels)
        # class 2 has no edge weight, so its ncut and escape are undefined
        assert np.isnan(ncuts[2]) and np.isnan(escapes[2])
        for c in range(2):
            assert abs(ncuts[c] - ncut(w, labels, c)) < 1e-12
            assert abs(escapes[c] - brute_escape(w, labels, c)) < 1e-12
            assert abs(ncuts[c] - escapes[c] - escapes_rest[c]) < 1e-12

    def test_complement_sums_do_not_cancel(self):
        # class 0 holds nearly all the volume, so a complement formed as
        # total - vol(0) would lose about 8 of its digits
        w, labels = random_graph(20, 12, num_classes=3)
        w[np.ix_(labels == 0, labels == 0)] *= 1e9
        ncuts, escapes, escapes_rest = ordered_ncut_escape(w, labels)
        for c in range(3):
            side = np.where(labels == c, 0, 1)
            across = cut(w, side, 0, 1)
            assert abs(escapes[c] - across / volume(w, side, 0)) < 1e-12
            assert abs(escapes_rest[c] - across / volume(w, side, 1)) < 1e-12
            assert abs(ncuts[c] - ncut(w, labels, c)) < 1e-12

    def test_two_classes_share_one_ncut(self):
        for seed in range(10):
            w, labels = random_graph(seed, 7)
            ncuts, _, _ = ordered_ncut_escape(w, labels)
            assert abs(ncuts[0] - ncuts[1]) < 1e-12 * ncuts[0]

    def test_row_blocks_give_the_whole_graphs_values(self):
        x = np.random.default_rng(16).normal(size=(40, 6))
        w = affinity(FeatureMatrix(x), 0.3)
        labels = np.sort(np.arange(40) % 3)
        whole = class_ncut_escape([w], labels)
        blocked = class_ncut_escape((w[lo:lo + 7].copy() for lo in range(0, 40, 7)), labels)
        for got, want in zip(blocked, whole):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        with pytest.raises(ValueError, match="^row blocks cover 35 rows of a 40-node graph$"):
            class_ncut_escape((w[lo:lo + 7].copy() for lo in range(0, 35, 7)), labels)

    @pytest.mark.parametrize("form", ["row_blocks", "square", "fortran_square"])
    def test_blocks_are_read_not_written(self, form):
        # read-only blocks give the bits of writable copies of the same
        # layout: seven-row blocks, or the whole square graph as one block,
        # C- or Fortran-ordered
        x = np.random.default_rng(19).normal(size=(40, 6))
        w = affinity(FeatureMatrix(x), 0.3)
        labels = np.repeat(np.arange(3), [13, 14, 13])
        frozen = np.asfortranarray(w) if form == "fortran_square" else w.copy()
        frozen.setflags(write=False)
        if form == "row_blocks":
            writable = [w[lo:lo + 7].copy() for lo in range(0, 40, 7)]
            got = class_ncut_escape((frozen[lo:lo + 7] for lo in range(0, 40, 7)), labels)
        else:
            writable = [frozen.copy(order="K")]
            got = class_ncut_escape([frozen], labels)
        want = class_ncut_escape(iter(writable), labels)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(frozen, w)
        np.testing.assert_array_equal(np.concatenate(writable), w)

    @pytest.mark.parametrize("rows", [40, 7])
    def test_block_layout_leaves_the_bits(self, rows):
        # the whole graph or seven-row blocks, Fortran-ordered or padded row
        # views, give the bits of the same values C-ordered
        x = np.random.default_rng(19).normal(size=(40, 6))
        w = affinity(FeatureMatrix(x), 0.3)
        labels = np.repeat(np.arange(3), [13, 14, 13])
        padded = np.zeros((40, 48))
        padded[:, :40] = w
        spans = [slice(lo, lo + rows) for lo in range(0, 40, rows)]
        want = class_ncut_escape([w[span].copy() for span in spans], labels)
        for got in (class_ncut_escape([np.asfortranarray(w[span]) for span in spans], labels),
                    class_ncut_escape([padded[span, :40] for span in spans], labels)):
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_partition_must_cover_the_graph(self):
        w, _ = random_graph(15, 6)
        with pytest.raises(ValueError, match=r"^row block of shape \(6, 6\) in a 4-node graph$"):
            class_ncut_escape([w], np.array([0, 0, 1, 1]))

    def test_row_blocks_must_span_the_graph(self):
        w, labels = random_graph(17, 6)
        with pytest.raises(ValueError, match=r"^row block of shape \(6, 5\) in a 6-node graph$"):
            class_ncut_escape(iter([w[:, :5].copy()]), np.sort(labels))

    @pytest.mark.parametrize("labels", [[0, 0, 1, 1, 0, 1], [1, 1, 1, 0, 0, 0]],
                             ids=["interleaved", "grouped_descending"])
    def test_labels_must_be_in_class_order(self, labels):
        # grouped runs are not enough: the classes must come in increasing order
        w, _ = random_graph(18, 6)
        with pytest.raises(ValueError, match=r"^partition labels must be in class order \(non-decreasing\)$"):
            class_ncut_escape([w], np.array(labels))

    def test_a_square_array_is_read_as_its_rows(self):
        # iterating a square array gives 1-d rows, not row blocks
        w, _ = random_graph(18, 6)
        with pytest.raises(ValueError, match=r"^row block of shape \(6,\) in a 6-node graph$"):
            class_ncut_escape(w, np.array([0, 0, 0, 1, 1, 1]))


@st.composite
def partitioned_graphs(draw):
    """A symmetric non-negative graph with some zero edges and one
    zero-degree node, class ids in class order with gaps below the largest
    (classes with no nodes), and random consecutive row blocks."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 40))
    raw = rng.uniform(0.0, 2.0, size=(n, n)) * (rng.random((n, n)) < 0.8)
    w = (raw + raw.T) / 2.0
    isolated = draw(st.integers(0, n - 1))
    w[isolated, :] = 0.0
    w[:, isolated] = 0.0
    ids = draw(st.integers(2, 8))
    present = np.sort(rng.choice(ids, size=draw(st.integers(2, min(ids, n))), replace=False))
    labels = np.sort(np.concatenate([present, rng.choice(present, size=n - present.size)]))
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=4)))
    return w, labels, [0, *cuts, n]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(partitioned_graphs())
def test_array_blocks_and_oracles_agree(graph):
    w, labels, bounds = graph
    whole = class_ncut_escape([w], labels)
    blocked = class_ncut_escape((w[lo:hi].copy() for lo, hi in zip(bounds, bounds[1:])), labels)
    for got, want in zip(blocked, whole):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    ncuts, escapes, escapes_rest = whole
    for c in range(labels.max() + 1):
        side = np.where(labels == c, 0, 1)
        vol, vol_rest = w[side == 0].sum(), w[side == 1].sum()
        # an undefined ratio is NaN, and only that: empty classes, and
        # classes or complements with no edge weight
        assert np.isnan(ncuts[c]) == (vol == 0 or vol_rest == 0)
        assert np.isnan(escapes[c]) == (vol == 0)
        assert np.isnan(escapes_rest[c]) == (vol_rest == 0)
        across = cut(w, side, 0, 1)
        if vol > 0:
            assert abs(escapes[c] - across / vol) < 1e-12
            if w[side == 0].sum(axis=1).all():  # brute_escape divides by each degree in c
                assert abs(escapes[c] - brute_escape(w, labels, c)) < 1e-12
        if vol_rest > 0:
            assert abs(escapes_rest[c] - across / vol_rest) < 1e-12
        if vol > 0 and vol_rest > 0:
            assert abs(ncuts[c] - ncut(w, labels, c)) < 1e-12
            assert abs(ncuts[c] - escapes[c] - escapes_rest[c]) < 1e-12


BAD_GRAPHS = {
    "non_square": (np.ones((2, 3)), np.array([0, 1]), r"affinity matrix must be square, got \(2, 3\)"),
    "labels_2d": (np.ones((2, 2)), np.array([[0, 1]]), "partition labels must be a non-empty 1-d vector"),
    "labels_empty": (np.ones((0, 0)), np.array([], dtype=int),
                     "partition labels must be a non-empty 1-d vector"),
    "labels_negative": (np.ones((2, 2)), np.array([0, -1]), "partition labels must be non-negative"),
    "too_many_labels": (np.ones((2, 2)), np.array([0, 1, 1]), "partition covers 3 nodes, graph has 2"),
}


# class_ncut_escape reads each graph as one row block, whose shape it
# checks against the labels' node count
BLOCK_MESSAGES = {
    "non_square": r"row block of shape \(2, 3\) in a 2-node graph",
    "too_many_labels": r"row block of shape \(2, 2\) in a 3-node graph",
}


@pytest.mark.parametrize("diagnostic", [class_ncut_escape, affinity_class_means],
                         ids=["class_ncut_escape", "affinity_class_means"])
@pytest.mark.parametrize("case", sorted(BAD_GRAPHS))
def test_shape_and_label_checks(diagnostic, case):
    w, labels, message = BAD_GRAPHS[case]
    if diagnostic is class_ncut_escape:
        w, message = [w], BLOCK_MESSAGES.get(case, message)
    with pytest.raises(ValueError, match=f"^{message}$"):
        diagnostic(w, labels)


class TestNcutLoss:
    def test_separated_orthogonal_clusters(self):
        x = np.zeros((6, 8))
        x[:3, 0] = 1.0
        x[3:, 1] = 1.0
        x += 1e-3 * np.random.default_rng(0).normal(size=x.shape)
        loss, _ = ncut_loss(x, np.array([0, 0, 0, 1, 1, 1]), 0.02)
        assert loss < 1e-6

    def test_identical_samples_balanced_two_classes(self):
        x = np.tile([1.0, 2.0, 3.0], (4, 1))
        loss, _ = ncut_loss(x, np.array([0, 0, 1, 1]), 0.5)
        # uniform weights: each class escape = (n/2)/n, two classes total 1
        assert abs(loss - 1.0) < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(8, 4))
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        _, grad = ncut_loss(x, labels, 0.5)
        numeric = central_diff(
            lambda v: ncut_loss(v, labels, 0.5)[0], x
        )
        assert rel_error(grad, numeric) < 1e-5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        loss, grad = ncut_loss(x, labels, 0.3)
        perm = rng.permutation(6)
        loss_p, grad_p = ncut_loss(x[perm], labels[perm], 0.3)
        assert abs(loss - loss_p) < 1e-12
        np.testing.assert_allclose(grad[perm], grad_p, atol=1e-12)

    @pytest.mark.parametrize("sigma", [1e-19, 1e-300])
    def test_underflowing_class_volume_names_sigma(self, sigma):
        # a class whose rows all have self-cosines that round below 1: at
        # these sigmas all its weights, the diagonal too, underflow to 0
        x = np.random.default_rng(1).normal(size=(6, 4))
        with pytest.raises(ValueError, match=f"^sigma {sigma} too small for the ncut loss: "):
            ncut_loss(x, np.array([0, 0, 1, 1, 2, 2]), sigma)

    def test_finite_above_the_underflow(self):
        x = np.random.default_rng(1).normal(size=(6, 4))
        loss, grad = ncut_loss(x, np.array([0, 0, 1, 1, 2, 2]), 1e-18)
        assert math.isfinite(loss) and np.isfinite(grad).all()

    def test_degenerate_partition_rejected(self):
        x = np.random.default_rng(1).normal(size=(4, 3))
        with pytest.raises(ValueError):
            ncut_loss(x, np.zeros(4, dtype=int), 0.5)

    @pytest.mark.parametrize("n_labels", [3, 5])
    def test_label_count_must_match_rows(self, n_labels):
        x = np.random.default_rng(2).normal(size=(4, 3))
        with pytest.raises(ValueError, match=rf"\({n_labels},\) does not match 4 feature rows"):
            ncut_loss(x, np.arange(n_labels) % 2, 0.5)

    @pytest.mark.parametrize("layout,sigma", [
        pytest.param(layout, sigma, id=layout + suffix)
        for sigma, suffix in ((0.3, ""), (1e-3, "-sigma1e-3"))
        for layout in ("blocks", "shuffled", "gaps", "uneven")
    ])
    def test_within_rounding_of_per_class_masks(self, layout, sigma):
        rng = np.random.default_rng(12)
        labels = {
            "blocks": np.repeat([3, 0, 2, 1], 5),    # PK order: contiguous, unsorted
            "shuffled": rng.permutation(np.repeat(np.arange(4), 5)),
            "gaps": np.array([0, 2, 2, 5] * 5),     # absent labels in between
            "uneven": np.array([1] * 13 + [0] * 2 + [2] * 5),
        }[layout]
        x = rng.normal(size=(20, 6))
        loss, grad = ncut_loss(x, labels, sigma)
        assert math.isfinite(loss)
        assert_near_masks(x, labels, sigma, loss, grad)

    @pytest.mark.parametrize("sigmas", [(0.5, 1e-300), (1e-300, 0.5), (0.5, 1e-301, 1e-300)])
    def test_stack_names_the_first_underflowing_sigma(self, sigmas):
        # the matrix of test_underflowing_class_volume_names_sigma in every slot
        x = np.tile(np.random.default_rng(1).normal(size=(6, 4)), (len(sigmas), 1, 1))
        labels = np.tile([0, 0, 1, 1, 2, 2], (len(sigmas), 1))
        first = next(s for s in sigmas if s < 1e-19)
        with pytest.raises(ValueError, match=f"^sigma {first} too small for the ncut loss: "):
            ncut_loss(x, labels, np.reshape(sigmas, (-1, 1, 1)))

    @pytest.mark.parametrize("bad,message", [
        (math.nan, "sigma must be positive and finite, got nan"),
        (0.0, "sigma must be positive and finite, got 0.0"),
        (1e-309, "sigma 1e-309 too small: 2/sigma overflows float64"),
    ])
    def test_stacked_sigmas_checked_one_by_one(self, bad, message):
        x = np.random.default_rng(1).normal(size=(3, 6, 4))
        labels = np.tile([0, 0, 1, 1, 2, 2], (3, 1))
        with pytest.raises(ValueError, match=f"^{message}$"):
            ncut_loss(x, labels, np.reshape([0.5, bad, -1.0], (-1, 1, 1)))

    def test_stacked_labels_must_match_rows(self):
        x = np.random.default_rng(2).normal(size=(2, 4, 3))
        with pytest.raises(ValueError, match=r"\(2, 5\) does not match 2 x 4 feature rows"):
            ncut_loss(x, np.arange(10).reshape(2, 5) % 2, 0.5)


def assert_near_masks(x, labels, sigma, loss, grad):
    """ncut_loss's class sums round differently from the masks', so the
    loss may differ in its last bits and the gradient a little more, where
    its terms cancel."""
    want_loss, want_grad = masked_ncut_loss(x, labels, sigma)
    assert abs(loss - want_loss) <= 1e-14 * abs(want_loss)
    assert np.abs(grad - want_grad).max() <= 1e-14 * np.abs(want_grad).max()


def masked_ncut_loss(x, labels, sigma):
    """ncut_loss with one np.ix_ block per class, as first written, on the
    shifted weights exp((cos - 1) / sigma)."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    unit = x / norms[:, None]
    weights = np.exp((np.clip(unit @ unit.T, -1.0, 1.0) - 1.0) / sigma)
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


LAYOUTS = {
    # contiguous classes of 2 to 4 rows in unsorted order, as PK batches
    "blocks": lambda rng, n: np.repeat(rng.permutation(n), rng.integers(2, 5))[:n],
    "shuffled": lambda rng, n: rng.permutation(np.arange(n) % 3),
    # distinct ids, negative ones too, far apart with absent ones between
    "gaps": lambda rng, n: rng.choice([-40, -3, 7, 1000], size=n),
    "uneven": lambda rng, n: np.where(np.arange(n) < n - 3, 5, np.arange(n) % 2),
    "singletons": lambda rng, n: rng.permutation(np.maximum(np.arange(n) - n // 2, 0)),
}


@st.composite
def ncut_stacks(draw, sizes=st.integers(1, 4), sigmas=st.sampled_from([1e-3, 0.05, 0.3, 2.0])):
    """(x, labels, sigma): a stack of matrices, each with a label layout
    of LAYOUTS and a sigma of its own, shaped (S, 1, 1)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size, n = draw(sizes), draw(st.integers(4, 16))
    labels = []
    for layout in draw(st.lists(st.sampled_from(sorted(LAYOUTS)), min_size=size, max_size=size)):
        row = LAYOUTS[layout](rng, n)
        labels.append(row if np.unique(row).size > 1 else np.arange(n) % 2)
    sigma = np.reshape(draw(st.lists(sigmas, min_size=size, max_size=size)), (-1, 1, 1))
    return rng.normal(size=(size, n, draw(st.integers(2, 5)))), np.array(labels), sigma


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(ncut_stacks())
def test_stacked_ncut_loss_is_each_lone_call(stack):
    x, labels, sigma = stack
    loss, grad = ncut_loss(x, labels, sigma)
    assert loss.shape == (len(x),) and grad.shape == x.shape
    for s in range(len(x)):
        lone_loss, lone_grad = ncut_loss(x[s], labels[s], float(sigma[s, 0, 0]))
        assert lone_loss == loss[s] and np.array_equal(lone_grad, grad[s])
        assert_near_masks(x[s], labels[s], float(sigma[s, 0, 0]), lone_loss, lone_grad)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ncut_stacks(sizes=st.just(2), sigmas=st.sampled_from([0.2, 0.5, 2.0])))
def test_stacked_gradient_matches_finite_differences(stack):
    x, labels, sigma = stack
    _, grad = ncut_loss(x, labels, sigma)
    numeric = central_diff(lambda v: ncut_loss(v, labels, sigma)[0].sum(), x)
    assert rel_error(grad, numeric) < 1e-5


class TestAffinityClassMeans:
    def test_separated_clusters(self):
        x = np.zeros((4, 4))
        x[:2, 0] = 1.0
        x[2:, 1] = 1.0
        w = affinity(FeatureMatrix(x), 0.5)
        intra, inter = affinity_class_means(w, np.array([0, 0, 1, 1]))
        assert intra == pytest.approx(1.0, rel=1e-12)
        assert inter == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert intra > inter
