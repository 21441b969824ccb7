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


# A graph of at most this many cells is built whole, as one symmetric product;
# a larger one is built in row tiles of at most this many cells, so none of
# its n x n cells need exist at once.
_TILE_CELLS = 2**18


def _clipped_products(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b.T`` clipped in place to [-1, 1]: cosines of unit rows,
    guarded against rounding; stacks of matrices multiply pairwise, into
    ``out`` when it is given.

    Pass one array twice for the cosines within one set of rows: numpy then
    takes a symmetric-product path whose last bits can differ from those of
    two equal but separate arrays, so each caller keeps its operand form.
    A stack takes the same path per matrix as the matrix alone.  A row
    tile of :func:`_cosine_tiles` is a plain product of a slice of the rows
    with all of them.
    """
    products = np.matmul(a, b.swapaxes(-1, -2), out=out)
    return np.clip(products, -1.0, 1.0, out=products)


def _tile_rows(n: int) -> int:
    """Rows per tile of an n-node graph: all n up to ``_TILE_CELLS`` cells,
    else the most multiple-of-16 rows whose products with the n rows padded
    to a multiple of 16 fit in that many cells, and at least 16."""
    if n * n <= _TILE_CELLS:
        return n
    return max(16, _TILE_CELLS // (-(-n // 16) * 16) // 16 * 16)


def _cosine_tiles(unit: np.ndarray):
    """The cosines of n unit rows with themselves as consecutive row tiles,
    for a matrix or for each matrix of an (..., n, d) stack with the bits
    it has alone.

    A graph of at most ``_TILE_CELLS`` cells is one tile, numpy's symmetric
    product of the rows with themselves.  A larger graph is never whole:
    the rows are zero-padded to a multiple of 16, each tile multiplies a
    slice of a multiple of 16 padded rows (as many as the cell budget
    holds, at least 16) with all padded rows, and the padding is sliced
    off.  Every product then has the same multiple-of-16 shape, which keeps
    the tiled graph exactly symmetric where plain row slices were not
    (OpenBLAS, x86-64); at 2400 x 32 the tiles equal the whole product bit
    for bit.  The tiles share one buffer: each is valid until the next.
    """
    n = unit.shape[-2]
    step = _tile_rows(n)
    if step == n:
        yield _clipped_products(unit, unit)
        return
    padded = np.zeros(unit.shape[:-2] + (-(-n // 16) * 16, unit.shape[-1]), dtype=unit.dtype)
    padded[..., :n, :] = unit
    buffer = np.empty(unit.shape[:-2] + (step, padded.shape[-2]), dtype=unit.dtype)
    for lo in range(0, n, step):
        rows = padded[..., lo:lo + step, :]
        tile = _clipped_products(rows, padded, out=buffer[..., :rows.shape[-2], :])
        yield tile[..., :n - lo, :n]


def _joined(blocks, n: int) -> np.ndarray:
    """The (..., n, m) array whose consecutive row blocks these are; a lone
    block of all n rows is returned as it is."""
    whole, lo = None, 0
    for block in blocks:
        rows = block.shape[-2]
        if rows == n:
            return block
        if whole is None:
            whole = np.empty(block.shape[:-2] + (n, block.shape[-1]), dtype=block.dtype)
        whole[..., lo:lo + rows, :] = block
        lo += rows
    return whole


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


def _exp_cosines(unit: np.ndarray, sigma: float):
    """Edge weights exp((cos - 1) / sigma) <= 1 of unit rows, built in place
    on the cosine tiles of :func:`_cosine_tiles`, whose buffer they share;
    ratios of edge sums ignore the common factor exp(-1 / sigma)."""
    for weights in _cosine_tiles(unit):
        weights -= 1.0
        weights /= sigma
        np.exp(weights, out=weights)
        yield weights


def affinity_tiles(x: FeatureMatrix, sigma: float):
    """The graph of :func:`affinity` as consecutive row tiles, each valid
    until the next: one tile up to 512 rows, else tiles of at most 2**18
    cells, so that no n x n array need exist."""
    return _exp_cosines(_unit_rows(x.data)[1], _check_sigma(sigma))


def affinity(x: FeatureMatrix, sigma: float) -> np.ndarray:
    """Edge weights w_ij = exp((cos(x_i, x_j) - 1) / sigma) in (0, 1], finite
    at every valid sigma: exp(cos / sigma) scaled by exp(-1 / sigma)."""
    return _joined(affinity_tiles(x, sigma), x.n)


def _transition_tiles(unit: np.ndarray, sigma: float | np.ndarray):
    """Rows of the transition matrix of unit rows: the row softmax of
    cos / sigma (max subtraction per row), in place on the cosine tiles of
    :func:`_cosine_tiles`, whose buffer they share."""
    for trans in _cosine_tiles(unit):
        trans /= sigma
        trans -= trans.max(axis=-1, keepdims=True)
        np.exp(trans, out=trans)
        trans /= trans.sum(axis=-1, keepdims=True)
        yield trans


def _transition_from_features(x: np.ndarray, sigma: float | np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(norms, unit rows, transition matrix) for raw feature rows, or for
    each matrix of an (..., n, d) stack with the bits it has alone; sigma
    may be an array that broadcasts against the stack, one value per matrix.
    The row softmax runs in place on each cosine tile, so the matrix it
    returns is the only n x n array alive.
    """
    norms, unit = _unit_rows(x)
    return norms, unit, _joined(_transition_tiles(unit, sigma), unit.shape[-2])


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

    Each row tile of transition rows multiplies onto ``x`` as soon as it is
    built, so a graph of more than 2**18 cells never exists whole.
    """
    sigma = _check_sigma(sigma)
    trans = _transition_tiles(_unit_rows(x)[1], sigma)
    return _joined((tile @ x for tile in trans), x.shape[-2])


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
