"""Graph-cut and random-walk diagnostics over affinity graphs.

cut/volume/ncut are the classical graph-partition quantities; the
random-walk view gives the stationary distribution and the one-step
escape probability from a node subset, whose sum over both sides equals
the normalized cut.  ``ncut_loss`` turns the multiclass sum of escape
probabilities into a differentiable training objective, used as a
comparator for spectral-transform training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Partition, freeze_array
from .transform import AffinityMatrix, _check_sigma, _cosine_backward, _exp_cosines, _unit_rows


@dataclass(frozen=True)
class RandomWalkStats:
    """Stationary distribution and total volume of the walk's graph."""

    stationary: np.ndarray
    volume: float

    def __post_init__(self):
        pi = np.asarray(self.stationary, dtype=np.float64)
        if pi.ndim != 1 or pi.min() < 0 or abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError("stationary vector must be a probability distribution")
        object.__setattr__(self, "stationary", freeze_array(pi))


def _check_covers(part: Partition, n: int) -> None:
    if part.n != n:
        raise ValueError(f"partition covers {part.n} nodes, graph has {n}")


def _class_mask(w: AffinityMatrix, part: Partition, label: int) -> np.ndarray:
    _check_covers(part, w.n)
    if not 0 <= label < part.num_classes:
        raise ValueError(f"class {label} out of range")
    mask = part.labels == label
    if not mask.any():
        raise ValueError(f"class {label} is empty")
    return mask


def _class_with_complement(w: AffinityMatrix, part: Partition, a: int) -> np.ndarray:
    mask = _class_mask(w, part, a)
    if mask.all():
        raise ValueError(f"class {a} covers the whole graph, complement empty")
    return mask


def cut(w: AffinityMatrix, part: Partition, a: int, b: int) -> float:
    """Total edge weight between two classes of the partition."""
    if a == b:
        raise ValueError("cut requires two distinct classes")
    if a > b:  # canonical order makes cut(a, b) == cut(b, a) bit-exact
        a, b = b, a
    ma = _class_mask(w, part, a)
    mb = _class_mask(w, part, b)
    return float(w.data[np.ix_(ma, mb)].sum())


def volume(w: AffinityMatrix, part: Partition, a: int) -> float:
    """Total edge weight from a class to the whole graph."""
    mask = _class_mask(w, part, a)
    return float(w.data[mask, :].sum())


def ncut(w: AffinityMatrix, part: Partition, a: int) -> float:
    """Normalized cut of class `a` against its complement."""
    mask = _class_with_complement(w, part, a)
    comp = ~mask
    cross = float(w.data[np.ix_(mask, comp)].sum())
    vol_a = float(w.data[mask, :].sum())
    vol_comp = float(w.data[comp, :].sum())
    return cross / vol_a + cross / vol_comp


def stationary(w: AffinityMatrix) -> RandomWalkStats:
    """pi_i = degree_i / total volume; left fixed point of the walk."""
    degrees = w.data.sum(axis=1)
    total = float(degrees.sum())
    if total <= 0:
        raise ValueError("graph has no edge weight")
    return RandomWalkStats(degrees / total, total)


_CHUNK_ROWS = 256


def class_ncut_escape(w: AffinityMatrix, part: Partition) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
    _check_covers(part, w.n)
    onehot = (part.labels[:, None] == np.arange(part.num_classes)).astype(np.float64)
    outside = 1.0 - onehot
    degrees = w.data.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        # row i's weight into classes other than its own, summed without
        # the cancellation of degree - inside
        exits = ((w.data @ onehot) * outside).sum(axis=1)
        cross = exits @ onehot
        ncut_all = cross / (degrees @ onehot) + cross / (degrees @ outside)

        pi = degrees / degrees.sum()
        divisor = np.where(degrees > 0, degrees, 1.0)  # zero-degree rows stay zero
        leaving = np.empty(w.n)
        entering = np.zeros(part.num_classes)
        for lo in range(0, w.n, _CHUNK_ROWS):
            rows = slice(lo, lo + _CHUNK_ROWS)
            mass = ((w.data[rows] / divisor[rows, None]) @ onehot) * outside[rows]
            leaving[rows] = mass.sum(axis=1)
            entering += pi[rows] @ mass
        escape = ((pi * leaving) @ onehot) / (pi @ onehot)
        escape_rest = entering / (pi @ outside)
    return ncut_all, escape, escape_rest


def _require_positive_degrees(rows: np.ndarray) -> None:
    if rows.sum(axis=1).min() <= 0:
        raise ValueError("subset contains an isolated zero-degree node")


def escape_probability(w: AffinityMatrix, part: Partition, a: int) -> float:
    """One-step probability of leaving class `a` at stationarity."""
    mask = _class_with_complement(w, part, a)
    _require_positive_degrees(w.data[mask])
    return float(class_ncut_escape(w, part)[1][a])


def ncut_escape_identity_check(w: AffinityMatrix, part: Partition, a: int) -> tuple[float, float]:
    """(ncut value, escape(A->comp) + escape(comp->A)); must agree.

    Both sides come from :func:`class_ncut_escape`, whose two arithmetic
    routes make the returned pair a genuine consistency diagnostic.
    """
    _class_with_complement(w, part, a)
    _require_positive_degrees(w.data)  # A and its complement together
    value, escape, escape_rest = (float(v[a]) for v in class_ncut_escape(w, part))
    return value, escape + escape_rest


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
    weights = _exp_cosines(unit, sigma, shift=1.0)

    loss = 0.0
    inv_vol = np.empty(present.size)
    penalty = np.empty(present.size)
    for c in range(present.size):
        # both arrays are C-contiguous in np.ix_ order, so each sum runs
        # over the same values in the same order as on an np.ix_ block
        block = weights[row_class == c]
        cross = float(block.compress(row_class != c, axis=1).sum())
        vol = float(block.sum())
        loss += cross / vol
        inv_vol[c] = 1.0 / vol
        penalty[c] = cross / vol**2

    # d(cross/vol)/dw_ij = [i in c][j not in c]/vol - cross*[i in c]/vol^2;
    # every row lies in exactly one class c
    outside = row_class[:, None] != row_class[None, :]
    grad_w = np.where(outside, inv_vol[row_class][:, None], 0.0) - penalty[row_class][:, None]
    return loss, _cosine_backward(grad_w * weights / sigma, unit, norms)


def affinity_class_means(w: AffinityMatrix, labels: Partition) -> tuple[float, float]:
    """Mean off-diagonal edge weight inside classes and across classes."""
    _check_covers(labels, w.n)
    same = labels.labels[:, None] == labels.labels[None, :]
    off_diag = ~np.eye(w.n, dtype=bool)
    intra = same & off_diag
    inter = ~same
    if not intra.any() or not inter.any():
        raise ValueError("need both intra-class and inter-class pairs")
    return float(w.data[intra].mean()), float(w.data[inter].mean())
