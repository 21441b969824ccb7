"""Affinity graph construction and the spectral feature transform.

A batch of embeddings defines a fully connected graph whose edge weights
are exponentiated cosine similarities with temperature ``sigma``.  Row
normalization of that affinity matrix gives a random-walk transition
matrix, and multiplying it onto the original features pulls every row
toward its similarity-weighted neighborhood mean.  The transform is
non-parametric; its gradient (through both the transition matrix and the
feature factor) is computed in closed form and checked against finite
differences in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

from .data import FeatureMatrix


class ZeroNormRowError(ValueError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has zero norm, cosine undefined")


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row norms |x|, unit rows x / |x|) of a matrix or an (..., n, d) stack
    of them; a zero-norm row raises, naming its row within its own matrix
    (the first such matrix in C order).  :func:`_unit_backward` is its
    backward pass."""
    norms = np.sqrt(np.einsum("...ij,...ij->...i", x, x))
    if not norms.all():
        raise ZeroNormRowError(int(np.argwhere(norms == 0.0)[0, -1]))
    return norms, x / norms[..., None]


# A graph of at most this many cells is one symmetric product; a larger one is
# one padded product where its caller needs it whole, else upper trapezoids of
# at most this many cells and at least 32 rows (32 x n cells above 8,192 rows).
_TILE_CELLS = 2**18


def _clipped_products(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b.T`` clipped in place to [-1, 1]: cosines of unit rows,
    guarded against rounding; stacks of matrices multiply pairwise, into
    ``out`` when it is given.

    Pass one array twice for the cosines within one set of rows: numpy then
    takes a symmetric-product path whose last bits can differ from those of
    two equal but separate arrays, so each caller keeps its operand form.
    A stack takes the same path per matrix as the matrix alone.  Above 512
    rows :func:`_cosine_tiles` passes two arrays of padded rows, a slice and
    the rows from its first on, or all rows and a copy: one array twice gave
    the same bits there but ran slower at 2,400 rows.
    """
    products = np.matmul(a, b.swapaxes(-1, -2), out=out)
    return np.clip(products, -1.0, 1.0, out=products)


def _cosine_tiles(unit: np.ndarray, whole: bool = False):
    """The cosines of n unit rows with themselves as upper trapezoids, or
    as one n x n block with ``whole``, for a matrix or for each matrix of
    an (..., n, d) stack with the bits it has alone.

    A trapezoid holds rows lo:hi of the graph in columns lo:n, so its
    shape gives its place: it starts at row ``lo = n - columns``, and its
    columns past ``rows`` are the transpose of the cells below it.  The
    trapezoids cover the upper triangle, each unordered pair once; the
    graph is symmetric, so the rest is their mirror.

    A graph of at most ``_TILE_CELLS`` cells is one trapezoid, numpy's
    symmetric product of the rows with themselves.  A larger graph pads the
    rows with zeros to a multiple of 16.  With ``whole`` it is the trapezoid
    of all rows, an n x n view of the padded rows times a copy, with the
    bits of the trapezoids and their mirror.  Else each trapezoid
    multiplies a slice of a multiple of 32 padded rows, starting at a
    multiple of 32 (as many as the cell budget holds, at least 32), with
    the padded rows from its first on, and the padding is sliced off.
    Every product then has multiple-of-16 shapes, which keeps the diagonal
    blocks exactly symmetric where plain row slices were not (OpenBLAS,
    x86-64).  Where n is a multiple of 32, so is each trapezoid's width,
    the inner dimension of its product with the features in
    :func:`sft_transform_array`: on two OpenBLAS threads an odd multiple of
    16 there gave other bits than one thread.  The trapezoids share one
    buffer: each is valid until the next.
    """
    n = unit.shape[-2]
    if n * n <= _TILE_CELLS:
        yield _clipped_products(unit, unit)
        return
    size = -(-n // 16) * 16
    padded = np.zeros(unit.shape[:-2] + (size, unit.shape[-1]), dtype=unit.dtype)
    padded[..., :n, :] = unit
    if whole:
        yield _clipped_products(padded, padded.copy())[..., :n, :n]
        return
    buffer = np.empty(unit.shape[:-2] + (max(_TILE_CELLS, 32 * size),), dtype=unit.dtype)
    lo = 0
    while lo < n:
        columns = padded[..., lo:, :]
        rows = columns[..., :max(32, _TILE_CELLS // (size - lo) // 32 * 32), :]
        shape = rows.shape[-2], size - lo
        tile = _clipped_products(rows, columns, out=buffer[..., :shape[0] * shape[1]].reshape(
            unit.shape[:-2] + shape))
        yield tile[..., :n - lo, :n - lo]
        lo += shape[0]


def cosine_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines between rows of two matrices, shape (len(a), len(b)), or
    between the matching matrices of two stacks, shape (..., na, nb)."""
    return _clipped_products(_unit_rows(a)[1], _unit_rows(b)[1])


def _check_sigma(sigma: float) -> float:
    """A positive, finite sigma for which 2 / sigma, the widest span of
    cos / sigma, is finite too (sigma above ~1.1e-308)."""
    sigma = float(sigma)
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    if 2.0 / sigma == math.inf:
        raise ValueError(f"sigma {sigma} too small: 2/sigma overflows float64")
    return sigma


def _exp_cosines(unit: np.ndarray, sigma: float, whole: bool = False):
    """Edge weights exp((cos - 1) / sigma) <= 1 of unit rows, built in place
    on the cosine blocks of :func:`_cosine_tiles` (trapezoids share a buffer);
    ratios of edge sums ignore the common factor exp(-1 / sigma)."""
    for weights in _cosine_tiles(unit, whole):
        weights -= 1.0
        weights /= sigma
        np.exp(weights, out=weights)
        yield weights


def affinity_tiles(x: FeatureMatrix, sigma: float):
    """The graph of :func:`affinity` as consecutive upper trapezoids (see
    :func:`_cosine_tiles`), each valid until the next: the whole graph up
    to 512 rows, else trapezoids of at most 2**18 cells and at least 32
    rows, so that no n x n array need exist and each pair of rows is built
    once."""
    return _exp_cosines(_unit_rows(x.data)[1], _check_sigma(sigma))


def affinity(x: FeatureMatrix, sigma: float) -> np.ndarray:
    """Edge weights w_ij = exp((cos(x_i, x_j) - 1) / sigma) in (0, 1], finite
    at every valid sigma: exp(cos / sigma) scaled by exp(-1 / sigma); above
    512 rows an n x n view of the padded product (:func:`_cosine_tiles`)."""
    weights, = _exp_cosines(_unit_rows(x.data)[1], _check_sigma(sigma), whole=True)
    return weights


def _transition_from_features(x: np.ndarray, sigma: float | np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(norms, unit rows, transition matrix) for raw feature rows, or for
    each matrix of an (..., n, d) stack with the bits it has alone; sigma
    may be an array that broadcasts against the stack, one value per matrix.
    The transition matrix is the row softmax of cos / sigma (max
    subtraction per row), in place on the whole cosine graph of
    :func:`_cosine_tiles`, so it is the only graph alive.
    """
    norms, unit = _unit_rows(x)
    trans, = _cosine_tiles(unit, whole=True)
    trans /= sigma
    trans -= trans.max(axis=-1, keepdims=True)
    np.exp(trans, out=trans)
    trans /= trans.sum(axis=-1, keepdims=True)
    return norms, unit, trans


def _unit_backward(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. raw rows x of a loss given its gradient w.r.t. the
    unit rows x / |x|: the tangential part of grad_unit, divided by |x|;
    an (..., n, d) stack takes each matrix with the bits it has alone."""
    radial = np.einsum("...ij,...ij->...i", grad_unit, unit)
    grad = radial[..., None] * unit
    np.subtract(grad_unit, grad, out=grad)
    grad /= norms[..., None]
    return grad


def _cosine_backward(grad_cos: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. raw rows x given it w.r.t. the cosines of x with
    itself, for a matrix or each matrix of a stack."""
    return _unit_backward((grad_cos + grad_cos.swapaxes(-1, -2)) @ unit, unit, norms)


def sft_transform(x: FeatureMatrix, sigma: float) -> FeatureMatrix:
    """Replace each feature row by its transition-weighted batch average."""
    return FeatureMatrix(sft_transform_array(x.data, sigma))


def sft_transform_array(x: np.ndarray, sigma: float) -> np.ndarray:
    """Array-in/array-out variant of :func:`sft_transform` for inner loops;
    an (..., n, d) stack transforms each n-row graph on its own.

    A graph of more than 2**18 cells never exists whole: each upper
    trapezoid of edge weights multiplies onto ``x`` as soon as it is built,
    once for its rows and once, transposed, for the rows below it, and the
    sums are divided by the degrees at the end.  Its rows are shifted by
    1 / sigma in place of their max, which every row reaches as each
    self-cosine is set to exactly 1: an exponent of 0, so no row's weights
    all underflow at any valid sigma.
    """
    sigma = _check_sigma(sigma)
    n = x.shape[-2]
    if n * n <= _TILE_CELLS:
        return _transition_from_features(x, sigma)[2] @ x
    out = np.zeros(x.shape)
    degrees = np.zeros(x.shape[:-1])
    for weights in _cosine_tiles(_unit_rows(x)[1]):
        rows, lo = weights.shape[-2], n - weights.shape[-1]
        hi = lo + rows
        diagonal = np.arange(rows)
        weights[..., diagonal, diagonal] = 1.0
        weights /= sigma
        weights -= 1.0 / sigma
        np.exp(weights, out=weights)
        below = weights[..., rows:]
        out[..., lo:hi, :] += weights @ x[..., lo:, :]
        out[..., hi:, :] += below.swapaxes(-1, -2) @ x[..., lo:hi, :]
        degrees[..., lo:hi] += weights.sum(axis=-1)
        degrees[..., hi:] += below.sum(axis=-2)
    out /= degrees[..., None]
    return out


def sft_backward(x: np.ndarray, sigma: float, grad_out: np.ndarray,
                 through_transition: bool = True) -> np.ndarray:
    """Gradient of any scalar loss through the spectral transform.

    Given d(loss)/d(output) for output = T(x) @ x, returns d(loss)/dx.
    The transition matrix depends on x via the cosine graph, so the chain
    rule runs through the softmax, the cosine products and the row
    normalization; ``through_transition=False`` treats the transition
    matrix as a constant (feature-factor path only), which exists as a
    trainer ablation.
    """
    sigma = _check_sigma(sigma)
    if grad_out.shape != x.shape:
        raise ValueError(f"grad_out shape {grad_out.shape} != input shape {x.shape}")
    forward = _transition_from_features(x, sigma)
    return _sft_backward(x, sigma, grad_out, forward, through_transition)


def _sft_backward(x: np.ndarray, sigma: float | np.ndarray, grad_out: np.ndarray,
                  forward: tuple[np.ndarray, np.ndarray, np.ndarray],
                  through_transition: bool) -> np.ndarray:
    """:func:`sft_backward` on arrays, given the forward pass's
    ``(norms, unit, trans)`` of ``x`` from :func:`_transition_from_features`.
    An (..., n, d) stack takes each matrix with the bits it has alone, and
    sigma may be an array that broadcasts against it, one value per matrix."""
    norms, unit, trans = forward
    grad_x = trans.swapaxes(-1, -2) @ grad_out
    if through_transition:
        grad_trans = grad_out @ x.swapaxes(-1, -2)
        # softmax backward per row, then undo the 1/sigma scaling of logits
        grad_logits = trans * (grad_trans - np.einsum("...ij,...ij->...i", grad_trans, trans)[..., None])
        grad_x = grad_x + _cosine_backward(grad_logits / sigma, unit, norms)
    return grad_x
