"""Graph-cut and random-walk diagnostics over affinity graphs.

A graph is a square float64 array of edge weights, or for
``class_ncut_escape`` its consecutive row blocks, and a partition a vector
of class ids 0..max, one per node.  The graphs the package builds are
finite, non-negative and exactly symmetric by construction, whole or in
row tiles, so only shapes and labels are checked here.

For a class c of a partition, the normalized cut is cut(c, rest) / vol(c)
+ cut(c, rest) / vol(rest); in the random-walk view the two terms are the
one-step probabilities of escaping c and of escaping its complement at
stationarity.  ``class_ncut_escape`` computes both sides of that identity
for every class in one pass; it sums each row's weight per class as a run
of columns in class order, and ``sftlab diagnose`` orders its nodes by
class once so that its tiles need no gather.  ``affinity_class_means``
gives the mean edge weights within and across classes, and ``ncut_loss``
turns the multiclass sum of escape probabilities into a differentiable
training objective, used as a comparator for spectral-transform training.
"""

from __future__ import annotations

import numpy as np

from .transform import _check_sigma, _cosine_backward, _exp_cosines, _joined, _tile_rows, _unit_rows


def _nodes(w: np.ndarray) -> int:
    """The node count of the square graph w."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"affinity matrix must be square, got {w.shape}")
    return len(w)


def _class_count(labels: np.ndarray, nodes: int) -> int:
    """The class count of labels, one class id per node of a graph."""
    if labels.ndim != 1 or labels.size < 1:
        raise ValueError("partition labels must be a non-empty 1-d vector")
    if labels.min() < 0:
        raise ValueError("partition labels must be non-negative")
    if labels.size != nodes:
        raise ValueError(f"partition covers {labels.size} nodes, graph has {nodes}")
    return int(labels.max()) + 1


_CHUNK_ROWS = 256


def class_ncut_escape(w, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ncut, escape(c -> rest), escape(rest -> c)) for every class c at once.

    ``w`` is the square graph, or an iterable of its consecutive row blocks
    such as :func:`~sftlab.transform.affinity_tiles` yields, so that no
    n x n array need exist.  Every class sum of a row is a segment sum
    (``np.add.reduceat``) over that class's run of columns, so each block
    is read with its columns in class order (stable, by class id): as it
    is if the labels already are, else as one column-gathered copy.
    Blocks read as they are get overwritten.  A square array is
    read as gathered copies of the row blocks that its tiles would have,
    never as a whole permuted copy, so both forms of one graph give the
    same bits.

    The two sides of the identity ncut = escape + escape_rest are computed
    along different arithmetic routes, so their difference is a genuine
    floating-point consistency diagnostic:

    * ncut from the class run sums of raw W:
      cross(c) / vol(c) + cross(c) / vol(rest);
    * the escapes literally as sum(pi_i T_ij) over exits divided by the
      subset's stationary mass, with the class runs of each block's rows
      of T = D^-1 W summed, then weighted by pi ``_CHUNK_ROWS`` rows at a
      time once the degrees of all rows give pi.

    One pass over the blocks keeps each row's degree, exits and per-class
    transition mass: O(n^2) additions and O(n * C) sums.  A class that is
    empty, covers the whole graph or has no edge weight on one side gets
    NaN; zero-degree nodes elsewhere leave its values finite.
    """
    if isinstance(w, np.ndarray):
        num_classes = _class_count(labels, _nodes(w))
        step = _tile_rows(len(w))
        blocks = (w[lo:lo + step] for lo in range(0, len(w), step))
    else:
        num_classes = _class_count(labels, labels.size)
        blocks = w
    n = labels.size
    order = np.argsort(labels, kind="stable")
    # a square array's blocks are gathered even in class order: the gather
    # is the copy that leaves the caller's graph whole
    gather = isinstance(w, np.ndarray) or bool((np.diff(labels) < 0).any())
    counts = np.bincount(labels, minlength=num_classes)
    present = np.flatnonzero(counts)
    # the first column of each non-empty class's run; a class with no nodes
    # has no run, since reduceat over an empty run returns the next column
    starts = (np.cumsum(counts) - counts)[present]
    onehot = (labels[:, None] == np.arange(num_classes)).astype(np.float64)
    outside = 1.0 - onehot
    degrees = np.empty(n)
    exits = np.empty(n)
    mass = np.zeros((n, num_classes))
    lo = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for block in blocks:
            if block.shape[1:] != (n,):
                raise ValueError(f"row block of shape {block.shape} in a {n}-node graph")
            if gather:
                # take's result is in C order, unlike block[:, order]'s, so
                # its rows add up as those of a block read as it is
                block = block.take(order, axis=1)
            rows = slice(lo, lo + len(block))
            away = labels[rows, None] != present  # the runs of the other classes
            degrees[rows] = block.sum(axis=1)
            # row i's weight into classes other than its own, summed without
            # the cancellation of degree - inside
            exits[rows] = (np.add.reduceat(block, starts, axis=1) * away).sum(axis=1)
            # the block's transition rows, in place; zero-degree rows stay zero
            block /= np.where(degrees[rows] > 0, degrees[rows], 1.0)[:, None]
            mass[rows, present] = np.add.reduceat(block, starts, axis=1) * away
            lo = rows.stop
        if lo != n:
            raise ValueError(f"row blocks cover {lo} rows of a {n}-node graph")
        cross = exits @ onehot
        ncut_all = cross / (degrees @ onehot) + cross / (degrees @ outside)

        pi = degrees / degrees.sum()
        entering = np.zeros(num_classes)
        for lo in range(0, n, _CHUNK_ROWS):
            entering += pi[lo:lo + _CHUNK_ROWS] @ mass[lo:lo + _CHUNK_ROWS]
        escape = ((pi * mass.sum(axis=1)) @ onehot) / (pi @ onehot)
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
    weights = _joined(_exp_cosines(unit, sigma), len(unit))

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
    _class_count(labels, _nodes(w))
    same = labels[:, None] == labels[None, :]
    off_diag = ~np.eye(len(w), dtype=bool)
    intra = same & off_diag
    inter = ~same
    if not intra.any() or not inter.any():
        raise ValueError("need both intra-class and inter-class pairs")
    return float(w[intra].mean()), float(w[inter].mean())
