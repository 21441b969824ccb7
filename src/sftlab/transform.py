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


def _clipped_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` clipped in place to [-1, 1]: cosines of unit rows,
    guarded against rounding; stacks of matrices multiply pairwise.

    Pass one array twice for the cosines within one set of rows: numpy then
    takes a symmetric-product path whose last bits can differ from those of
    two equal but separate arrays, so each caller keeps its operand form.
    A stack takes the same path per matrix as the matrix alone.
    """
    products = a @ b.swapaxes(-1, -2)
    np.minimum(products, 1.0, out=products)  # np.clip's values, without its Python layers
    np.maximum(products, -1.0, out=products)
    return products


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


def _exp_cosines(unit: np.ndarray, sigma: float) -> np.ndarray:
    """Edge weights exp((cos - 1) / sigma) <= 1 of unit rows, built in place on
    their cosines; ratios of edge sums ignore the common factor exp(-1 / sigma).
    The cosines are numpy's symmetric product, so the weights are exactly
    symmetric."""
    weights = _clipped_products(unit, unit)
    weights -= 1.0
    weights /= sigma
    np.exp(weights, out=weights)
    return weights


def affinity(x: FeatureMatrix, sigma: float) -> np.ndarray:
    """Edge weights w_ij = exp((cos(x_i, x_j) - 1) / sigma) in (0, 1], finite
    at every valid sigma: exp(cos / sigma) scaled by exp(-1 / sigma)."""
    return _exp_cosines(_unit_rows(x.data)[1], _check_sigma(sigma))


def _transition_from_features(x: np.ndarray, sigma: float | np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(norms, unit rows, transition matrix) for raw feature rows, or for
    each matrix of an (..., n, d) stack with the bits it has alone; sigma
    may be an array that broadcasts against the stack, one value per matrix.

    The row softmax of cos / sigma (max subtraction per row) runs in place
    on the cosine matrix, so it is the only n x n array alive.
    """
    norms, unit = _unit_rows(x)
    trans = _clipped_products(unit, unit)
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
    an (..., n, d) stack transforms each n-row graph on its own."""
    sigma = _check_sigma(sigma)
    _, _, trans = _transition_from_features(x, sigma)
    return trans @ x


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
