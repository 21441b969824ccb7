"""Graph-cut and random-walk diagnostics over affinity graphs.

A graph is a square float64 array of edge weights, a partition a vector
of class ids 0..max, one per node.  The graphs the package builds are
finite, non-negative and exactly symmetric by construction, so only shapes
and labels are checked here.

For a class c of a partition, the normalized cut is cut(c, rest) / vol(c)
+ cut(c, rest) / vol(rest); in the random-walk view the two terms are the
one-step probabilities of escaping c and of escaping its complement at
stationarity.  ``class_ncut_escape`` computes both sides of that identity
for every class in one pass, ``affinity_class_means`` the mean edge
weights within and across classes, and ``ncut_loss`` turns the multiclass
sum of escape probabilities into a differentiable training objective, used
as a comparator for spectral-transform training.
"""

from __future__ import annotations

import numpy as np

from .transform import _check_sigma, _cosine_backward, _exp_cosines, _unit_rows


def _class_count(w: np.ndarray, labels: np.ndarray) -> int:
    """The class count of labels, one class id per node of the square graph w."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"affinity matrix must be square, got {w.shape}")
    if labels.ndim != 1 or labels.size < 1:
        raise ValueError("partition labels must be a non-empty 1-d vector")
    if labels.min() < 0:
        raise ValueError("partition labels must be non-negative")
    if labels.size != w.shape[0]:
        raise ValueError(f"partition covers {labels.size} nodes, graph has {w.shape[0]}")
    return int(labels.max()) + 1


_CHUNK_ROWS = 256


def class_ncut_escape(w: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ncut, escape(c -> rest), escape(rest -> c)) for every class c at once.

    The two sides of the identity ncut = escape + escape_rest are computed
    along different arithmetic routes, so their difference is a genuine
    floating-point consistency diagnostic:

    * ncut from the class block sums of raw W (one ``W @ onehot``):
      cross(c) / vol(c) + cross(c) / vol(rest);
    * the escapes literally as sum(pi_i T_ij) over exits divided by the
      subset's stationary mass, with T = D^-1 W built ``_CHUNK_ROWS`` rows
      at a time, never as a full n x n array.

    One pass over W for the degrees plus two n x C products.  A class that
    is empty, covers the whole graph or has no edge weight on one side
    gets NaN; zero-degree nodes elsewhere leave its values finite.
    """
    num_classes = _class_count(w, labels)
    onehot = (labels[:, None] == np.arange(num_classes)).astype(np.float64)
    outside = 1.0 - onehot
    degrees = w.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # row i's weight into classes other than its own, summed without
        # the cancellation of degree - inside
        exits = ((w @ onehot) * outside).sum(axis=1)
        cross = exits @ onehot
        ncut_all = cross / (degrees @ onehot) + cross / (degrees @ outside)

        pi = degrees / degrees.sum()
        divisor = np.where(degrees > 0, degrees, 1.0)  # zero-degree rows stay zero
        leaving = np.empty(len(w))
        entering = np.zeros(num_classes)
        for lo in range(0, len(w), _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            mass = ((w[rows] / divisor[rows, None]) @ onehot) * outside[rows]
            leaving[rows] = mass.sum(axis=1)
            entering += pi[rows] @ mass
        escape = ((pi * leaving) @ onehot) / (pi @ onehot)
        escape_rest = entering / (pi @ outside)
    return ncut_all, escape, escape_rest


def ncut_loss(x: np.ndarray, labels: np.ndarray, sigma: float) -> tuple[float, np.ndarray]:
    """Sum of one-vs-rest escape probabilities and its feature gradient.

    For each class c, the term is cut(c, rest) / volume(c) on the
    exponentiated-cosine graph, built with weights exp((cos - 1) / sigma)
    <= 1 so that no sum overflows at any sigma > 0 (the ratios ignore that
    common factor); the gradient runs through the edge
    weights, the cosines and the row normalization.  ``labels`` holds one
    integer class id per row of ``x``; any distinct values name classes.
    """
    sigma = _check_sigma(sigma)
    if labels.shape != (x.shape[0],):
        raise ValueError(f"labels shape {labels.shape} does not match {x.shape[0]} feature rows")
    present, row_class = np.unique(labels, return_inverse=True)
    if present.size < 2:
        raise ValueError("ncut loss needs at least 2 non-empty classes")

    norms, unit = _unit_rows(x)
    weights = _exp_cosines(unit, sigma)

    loss = 0.0
    inv_vol = np.empty(present.size)
    penalty = np.empty(present.size)
    for c in range(present.size):
        # both arrays are C-contiguous in np.ix_ order, so each sum runs
        # over the same values in the same order as on an np.ix_ block
        block = weights[row_class == c]
        cross = float(block.compress(row_class != c, axis=1).sum())
        vol = float(block.sum())
        # at a tiny sigma every weight of a class can underflow, its diagonal
        # too where a self-cosine rounds below 1, and then vol**2 is 0
        if vol**2 == 0.0:
            raise ValueError(f"sigma {sigma} too small for the ncut loss: a class volume underflows float64")
        loss += cross / vol
        inv_vol[c] = 1.0 / vol
        penalty[c] = cross / vol**2

    # d(cross/vol)/dw_ij = [i in c][j not in c]/vol - cross*[i in c]/vol^2;
    # every row lies in exactly one class c
    outside = row_class[:, None] != row_class[None, :]
    grad_w = np.where(outside, inv_vol[row_class][:, None], 0.0) - penalty[row_class][:, None]
    return loss, _cosine_backward(grad_w * weights / sigma, unit, norms)


def affinity_class_means(w: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean off-diagonal edge weight inside classes and across classes."""
    _class_count(w, labels)
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(w), dtype=bool)
    intra = same & off_diag
    inter = ~same
    if not intra.any() or not inter.any():
        raise ValueError("need both intra-class and inter-class pairs")
    return float(w[intra].mean()), float(w[inter].mean())
