"""Invariants of the graph kernels at the sizes where their code branches.

512 rows is the largest graph built as one symmetric product, 513 the
smallest whose transform and diagnostics stream upper trapezoids, 1,237 is
no multiple of the trapezoids' 16-row padding, and 2,400 rows is the
benchmark's graph.  A pinned digest shows only that bytes moved; these
checks hold to a tolerance, so they stay valid when a change moves the
last bits of a product on purpose.
"""

import numpy as np
import pytest

from sftlab.data import FeatureMatrix
from sftlab.graphcut import class_ncut_escape, ncut_loss
from sftlab.transform import affinity, affinity_tiles, sft_transform_array

SIGMA = 0.1
CLASSES = 8


def blobs(n, d=32):
    """(rows, class ids in class order): n rows around CLASSES random
    centres, in runs of n / CLASSES rows per class."""
    rng = np.random.default_rng(n)
    labels = np.arange(n) * CLASSES // n
    return rng.normal(size=(CLASSES, d))[labels] + 0.7 * rng.normal(size=(n, d)), labels


@pytest.mark.parametrize("n", [512, 513, 1237, 2400])
def test_transform_commutes_with_permutation_rotation_and_scaling(n):
    x, _ = blobs(n)
    rng = np.random.default_rng(n + 1)
    out = sft_transform_array(x, SIGMA)
    order = rng.permutation(n)
    rotation = np.linalg.qr(rng.normal(size=(x.shape[1],) * 2))[0]
    np.testing.assert_allclose(sft_transform_array(x[order], SIGMA), out[order], rtol=0, atol=1e-12)
    np.testing.assert_allclose(sft_transform_array(x @ rotation, SIGMA), out @ rotation, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sft_transform_array(3.0 * x, SIGMA), 3.0 * out, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [513, 1237])
def test_affinity_and_ncut_loss_follow_a_row_permutation(n):
    x, labels = blobs(n)
    order = np.random.default_rng(n + 2).permutation(n)
    w = affinity(FeatureMatrix(x), SIGMA)
    np.testing.assert_allclose(affinity(FeatureMatrix(x[order]), SIGMA), w[np.ix_(order, order)],
                               rtol=1e-12, atol=0)
    loss, grad = ncut_loss(x, labels, SIGMA)
    moved_loss, moved_grad = ncut_loss(x[order], labels[order], SIGMA)
    np.testing.assert_allclose(moved_loss, loss, rtol=1e-12, atol=0)
    np.testing.assert_allclose(moved_grad, grad[order], rtol=0, atol=1e-12 * np.abs(grad).max())


@pytest.mark.parametrize("n", [512, 513, 1237, 2400])
def test_diagnose_values_follow_rows_within_classes_and_class_ids(n):
    # diagnose's escape and ncut values: class_ncut_escape on the streamed
    # trapezoids of rows in class order, indexed by class id
    x, labels = blobs(n)
    rng = np.random.default_rng(n + 3)
    values = np.array(class_ncut_escape(affinity_tiles(FeatureMatrix(x), SIGMA), labels))
    within = np.lexsort((rng.random(n), labels))  # a shuffle inside each class run
    np.testing.assert_allclose(class_ncut_escape(affinity_tiles(FeatureMatrix(x[within]), SIGMA), labels),
                               values, rtol=1e-12, atol=0)
    ids = rng.permutation(CLASSES)  # class c is renamed ids[c], its rows put in the new class order
    order = np.argsort(ids[labels], kind="stable")
    relabelled = class_ncut_escape(affinity_tiles(FeatureMatrix(x[order]), SIGMA), ids[labels][order])
    np.testing.assert_allclose(np.array(relabelled)[:, ids], values, rtol=1e-12, atol=0)
