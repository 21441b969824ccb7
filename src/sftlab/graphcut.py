"""Graph-cut and random-walk diagnostics over affinity graphs.

A graph is a square float64 array of edge weights, or for
``class_ncut_escape`` the consecutive upper trapezoids of one whose nodes
are in class order, and a partition a vector of class ids 0..max, one per
node.  The graphs the package builds are finite, non-negative and exactly
symmetric by construction, whole or in trapezoids, so only shapes and
labels are checked here.

For a class c of a partition, the normalized cut is cut(c, rest) / vol(c)
+ cut(c, rest) / vol(rest); in the random-walk view the two terms are the
one-step probabilities of escaping c and of escaping its complement at
stationarity.  ``class_ncut_escape`` computes both sides of that identity
for every class in one read-only pass over the class run sums of W (a
run is a class's columns or rows; ``sftlab diagnose`` orders its nodes by
class once), reading each pair of nodes once, in O(n + C) memory beside
one block.
``affinity_class_means`` gives the mean edge weights within and across
classes, and ``ncut_loss`` turns the multiclass sum of escape
probabilities into a differentiable training objective, used as a
comparator for spectral-transform training.
"""

from __future__ import annotations

import numpy as np

from .transform import _check_sigma, _cosine_backward, _exp_cosines, _unit_rows


def _class_count(labels: np.ndarray, nodes: int) -> int:
    """The class count of labels, one class id per node of a graph."""
    if labels.ndim != 1 or labels.size < 1:
        raise ValueError("partition labels must be a non-empty 1-d vector")
    if labels.min() < 0:
        raise ValueError("partition labels must be non-negative")
    if labels.size != nodes:
        raise ValueError(f"partition covers {labels.size} nodes, graph has {nodes}")
    return int(labels.max()) + 1


def _others(per_class: np.ndarray) -> np.ndarray:
    """Each class's rest: exclusive prefix plus suffix sums of the other
    classes' values, never total - own, which cancels if one holds nearly all."""
    return np.cumsum(np.r_[0.0, per_class[:-1]]) + np.cumsum(np.r_[0.0, per_class[:0:-1]])[::-1]


def class_ncut_escape(blocks, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ncut, escape(c -> rest), escape(rest -> c)) for every class c at once.

    ``blocks`` are the consecutive upper trapezoids of a symmetric graph
    whose nodes are in class order (``labels`` non-decreasing): the one
    starting at row lo holds rows lo:hi in columns lo:n, as
    :func:`~sftlab.transform.affinity_tiles` yields them for class-ordered
    rows, so that no n x n array need exist and each pair is read once; the
    whole square graph is one such block.  Each class's columns are then
    one run of every block, and each class sum of a row is a segment sum
    (``np.add.reduceat``) over that run.  No block is written to, so
    read-only blocks are fine, and a block whose rows are not unit-stride
    is read through a C-ordered copy, since the row sums add in memory
    order: any layout gives the bits of C order.

    One ``reduceat`` per block gives its rows' run sums of raw W over the
    columns from lo on.  Their row sums are the rows' degrees there; with
    each row's own class left out, their row sums are the rows' exits, the
    cut out of their class, and their column sums the cut into each class.
    The columns past hi hold the cells of the rows below: summed over each
    class run of the block's rows (one ``sum`` per run), they add the same
    to those rows' degrees and exits and to the cut into the block's
    classes.  ``np.bincount`` then sums rows per class, and each class's
    rest is the sum of the other classes, never a total less its own:

    * ncut = cross(c) / vol(c) + cross(c) / vol(rest), cross from exits;
    * escape(c -> rest) = sum over c of pi_i exits_i / d_i, over pi(c);
    * escape(rest -> c) = cut into c / sum(d) (pi_i T_ic = w_ic / sum(d)),
      over pi(rest).

    As the cut out of c equals the cut into c, the identity's residual
    checks the run sums too.  The work is O(n^2) additions, the memory
    O(n + C) beside one block and its run sums.  A class that is empty,
    covers the whole graph or has no edge weight on one side gets NaN;
    zero-degree nodes elsewhere leave its values finite.
    """
    n = labels.size
    num_classes = _class_count(labels, n)
    if (np.diff(labels) < 0).any():
        raise ValueError("partition labels must be in class order (non-decreasing)")
    counts = np.bincount(labels, minlength=num_classes)
    present = np.flatnonzero(counts)
    # the first column of each non-empty class's run; a class with no nodes
    # has no run, since reduceat over an empty run returns the next column
    starts = (np.cumsum(counts) - counts)[present]
    degrees = np.zeros(n)
    exits = np.zeros(n)
    entering = np.zeros(num_classes)
    lo = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for block in blocks:
            if block.shape[1:] != (n - lo,) or not 0 < len(block) <= n - lo:
                raise ValueError(f"row block of shape {block.shape} in a {n}-node graph")
            if block.strides[1] != block.itemsize:
                block = np.ascontiguousarray(block)
            rows = slice(lo, lo + len(block))
            # the classes with columns from lo on, and where their runs start
            first = np.searchsorted(present, labels[lo])
            classes = present[first:]
            # row i's weight into each class other than its own
            runs = np.add.reduceat(block, np.maximum(starts[first:] - lo, 0), axis=1)
            degrees[rows] += runs.sum(axis=1)
            runs *= labels[rows, None] != classes
            # summed without the cancellation of degree - inside
            exits[rows] += runs.sum(axis=1)
            entering[classes] += runs.sum(axis=0)
            # the rows below, from their cells in the columns past hi,
            # summed over the block's own class runs of rows
            below = block[:, len(block):]
            own = classes[:np.searchsorted(classes, labels[rows.stop - 1], side="right")]
            ends = np.minimum(starts[first:first + own.size] + counts[own] - lo, len(block))
            sums = np.empty((own.size, below.shape[1]))
            for run, (start, end) in enumerate(zip(np.r_[0, ends[:-1]], ends)):
                below[start:end].sum(axis=0, out=sums[run])
            degrees[rows.stop:] += sums.sum(axis=0)
            sums *= own[:, None] != labels[rows.stop:]
            exits[rows.stop:] += sums.sum(axis=0)
            entering[own] += sums.sum(axis=1)
            lo = rows.stop
        if lo != n:
            raise ValueError(f"row blocks cover {lo} rows of a {n}-node graph")
        total = degrees.sum()
        pi = degrees / total
        # zero-degree rows have no exits and leave no mass
        leaving = pi * exits / np.where(degrees > 0, degrees, 1.0)
        vol, cross, pi_in, pi_out = (np.bincount(labels, v, num_classes)
                                     for v in (degrees, exits, pi, leaving))
        ncut_all = cross / vol + cross / _others(vol)
        escape = pi_out / pi_in
        escape_rest = entering / total / _others(pi_in)
    return ncut_all, escape, escape_rest


def ncut_loss(x: np.ndarray, labels: np.ndarray, sigma) -> tuple[float | np.ndarray, np.ndarray]:
    """Sum of one-vs-rest escape probabilities and its feature gradient.

    For each class c, the term is cut(c, rest) / volume(c) on the
    exponentiated-cosine graph, built with weights exp((cos - 1) / sigma)
    <= 1 so that no sum overflows at any sigma > 0 (the ratios ignore that
    common factor); the gradient runs through the edge weights, the cosines
    and the row normalization.  ``labels`` holds one integer class id per
    row of ``x``; any distinct values name classes.  An (S, n, d) stack with
    (S, n) labels and a scalar or (S, 1, 1) sigma gives (S,) losses, each
    with the bits of its matrix alone: row sums and one bincount over the
    stack's classes give every class's volume and cut.
    """
    sigma = np.reshape([*map(_check_sigma, np.ravel(sigma))], np.shape(sigma))
    if labels.shape != x.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} does not match "
                         f"{' x '.join(map(str, x.shape[:-1]))} feature rows")
    # each class's first row in label order; the matrices number their classes in turn
    order = np.argsort(labels, axis=-1, kind="stable")
    ranked = np.take_along_axis(labels, order, axis=-1)
    first = np.ones(labels.shape, dtype=bool)
    first[..., 1:] = ranked[..., 1:] != ranked[..., :-1]
    if (first.sum(axis=-1) < 2).any():
        raise ValueError("ncut loss needs at least 2 non-empty classes")
    row_class = np.empty_like(order)
    np.put_along_axis(row_class, order, np.cumsum(first).reshape(labels.shape) - 1, axis=-1)
    owner = np.nonzero(first.reshape(-1, labels.shape[-1]))[0]  # the matrix of each class
    norms, unit = _unit_rows(x)
    weights, = _exp_cosines(unit, sigma, whole=True)
    outside = row_class[..., :, None] != row_class[..., None, :]
    cross = np.bincount(row_class.ravel(), (weights * outside).sum(axis=-1).ravel())
    vol = np.bincount(row_class.ravel(), weights.sum(axis=-1).ravel())
    # at a tiny sigma every weight of a class can underflow, its diagonal
    # too where a self-cosine rounds below 1, and then vol**2 is 0
    if (underflow := vol**2 == 0.0).any():
        sigma = np.broadcast_to(sigma, x.shape[:-2] + (1, 1)).flat[owner[underflow.argmax()]]
        raise ValueError(f"sigma {sigma} too small for the ncut loss: a class volume underflows float64")
    loss = np.bincount(owner, cross / vol)  # each matrix's terms in class order
    # d(cross/vol)/dw_ij = [i in c][j not in c]/vol - cross*[i in c]/vol^2;
    # every row lies in exactly one class c
    grad_w = np.where(outside, (1.0 / vol)[row_class, None], 0.0) - (cross / vol**2)[row_class, None]
    return (float(loss[0]) if x.ndim == 2 else loss), _cosine_backward(grad_w * weights / sigma, unit, norms)


def affinity_class_means(w: np.ndarray, labels: np.ndarray) -> tuple[float, float]:
    """Mean off-diagonal edge weight inside classes and across classes."""
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"affinity matrix must be square, got {w.shape}")
    _class_count(labels, len(w))
    same = labels[:, None] == labels[None, :]
    inter = ~same
    np.fill_diagonal(same, False)  # now the intra-class pairs
    if not same.any() or not inter.any():
        raise ValueError("need both intra-class and inter-class pairs")
    return float(w[same].mean()), float(w[inter].mean())
