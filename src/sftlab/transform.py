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
from dataclasses import dataclass

import numpy as np

from .data import FeatureMatrix, freeze_array


class ZeroNormRowError(ValueError):
    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has zero norm, cosine undefined")


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(row norms |x|, unit rows x / |x|); raises on any zero-norm row.
    :func:`_unit_backward` is its backward pass."""
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    if not norms.all():
        raise ZeroNormRowError(int(np.flatnonzero(norms == 0.0)[0]))
    return norms, x / norms[:, None]


def _clipped_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b.T`` clipped in place to [-1, 1]: cosines of unit rows,
    guarded against rounding.

    Pass one array twice for the cosines within one set of rows: numpy then
    takes a symmetric-product path whose last bits can differ from those of
    two equal but separate arrays, so each caller keeps its operand form.
    """
    products = a @ b.T
    np.clip(products, -1.0, 1.0, out=products)
    return products


def cosine_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cosines between rows of two matrices, shape (len(a), len(b))."""
    return _clipped_products(_unit_rows(a)[1], _unit_rows(b)[1])


def _as_array(x: FeatureMatrix | np.ndarray) -> np.ndarray:
    return x.data if isinstance(x, FeatureMatrix) else np.asarray(x, dtype=np.float64)


def _check_sigma(sigma: float) -> float:
    sigma = float(sigma)
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be positive and finite, got {sigma}")
    return sigma


@dataclass(frozen=True)
class _SquareMatrix:
    """Square, finite, non-negative float64 matrix, named ``_name`` in errors
    and frozen as a copy once the subclass's own ``_check`` passes too."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"{self._name} must be square, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{self._name} contains non-finite values")
        if arr.min() < 0:
            raise ValueError(f"{self._name} entries must be non-negative")
        self._check(arr)
        object.__setattr__(self, "data", freeze_array(arr))

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class AffinityMatrix(_SquareMatrix):
    """Symmetric non-negative edge weights plus the temperature used.

    Outputs of :func:`affinity` additionally have strictly positive
    entries bounded by exp(1/sigma); the type stays permissive so that
    hand-built graphs (e.g. block-diagonal ones) can use the same
    diagnostics.
    """

    sigma: float

    _name = "affinity matrix"

    def _check(self, arr: np.ndarray) -> None:
        if arr.size and np.abs(arr - arr.T).max() > 1e-12 * max(1.0, arr.max()):
            raise ValueError("affinity matrix must be symmetric")
        _check_sigma(self.sigma)


@dataclass(frozen=True)
class StochasticMatrix(_SquareMatrix):
    """Row-stochastic transition matrix of the random walk."""

    _name = "transition matrix"

    def _check(self, arr: np.ndarray) -> None:
        if np.abs(arr.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("transition matrix rows must sum to 1")


def _exp_cosines(unit: np.ndarray, sigma: float, shift: float = 0.0) -> np.ndarray:
    """Edge weights exp((cos - shift) / sigma) of unit rows, built in place on
    their cosines; ratios of edge sums ignore the shift, and 1 keeps w <= 1."""
    weights = _clipped_products(unit, unit)
    weights -= shift
    weights /= sigma
    np.exp(weights, out=weights)
    return weights


def affinity(x: FeatureMatrix, sigma: float) -> AffinityMatrix:
    """Edge weights w_ij = exp(cos(x_i, x_j) / sigma)."""
    sigma = _check_sigma(sigma)
    return AffinityMatrix(_exp_cosines(_unit_rows(x.data)[1], sigma), sigma)


def transition(w: AffinityMatrix) -> StochasticMatrix:
    """Row-normalize affinities into transition probabilities."""
    degrees = w.data.sum(axis=1)
    if degrees.min() <= 0:
        raise ValueError("cannot normalize a row with zero total weight")
    return StochasticMatrix(w.data / degrees[:, None])


def _transition_from_features(x: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(norms, unit rows, transition matrix) for raw feature rows.

    The row softmax of cos / sigma (max subtraction per row) runs in place
    on the cosine matrix, so it is the only n x n array alive.
    """
    norms, unit = _unit_rows(x)
    trans = _clipped_products(unit, unit)
    trans /= sigma
    trans -= trans.max(axis=1, keepdims=True)
    np.exp(trans, out=trans)
    trans /= trans.sum(axis=1, keepdims=True)
    return norms, unit, trans


def _unit_backward(grad_unit: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. raw rows x of a loss given its gradient w.r.t. the
    unit rows x / |x|: the tangential part of grad_unit, divided by |x|."""
    radial = np.einsum("ij,ij->i", grad_unit, unit)
    return (grad_unit - radial[:, None] * unit) / norms[:, None]


def _cosine_backward(grad_cos: np.ndarray, unit: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. raw rows x given it w.r.t. the cosines of x with itself."""
    return _unit_backward((grad_cos + grad_cos.T) @ unit, unit, norms)


def sft_transform(x: FeatureMatrix, sigma: float) -> FeatureMatrix:
    """Replace each feature row by its transition-weighted batch average."""
    return FeatureMatrix(sft_transform_array(x.data, sigma))


def sft_transform_array(x: np.ndarray, sigma: float) -> np.ndarray:
    """Array-in/array-out variant of :func:`sft_transform` for inner loops."""
    sigma = _check_sigma(sigma)
    _, _, trans = _transition_from_features(x, sigma)
    return trans @ x


def sft_backward(
    x: FeatureMatrix | np.ndarray,
    sigma: float,
    grad_out: FeatureMatrix | np.ndarray,
    through_transition: bool = True,
) -> FeatureMatrix | np.ndarray:
    """Gradient of any scalar loss through the spectral transform.

    Given d(loss)/d(output) for output = T(x) @ x, returns d(loss)/dx.
    The transition matrix depends on x via the cosine graph, so the chain
    rule runs through the softmax, the cosine products and the row
    normalization; ``through_transition=False`` treats the transition
    matrix as a constant (feature-factor path only), which exists as a
    trainer ablation.
    """
    sigma = _check_sigma(sigma)
    xa, ga = _as_array(x), _as_array(grad_out)
    if ga.shape != xa.shape:
        raise ValueError(f"grad_out shape {ga.shape} != input shape {xa.shape}")

    forward = _transition_from_features(xa, sigma)
    grad_x = _sft_backward(xa, sigma, ga, forward, through_transition)
    return FeatureMatrix(grad_x) if isinstance(x, FeatureMatrix) else grad_x


def _sft_backward(x: np.ndarray, sigma: float, grad_out: np.ndarray,
                  forward: tuple[np.ndarray, np.ndarray, np.ndarray],
                  through_transition: bool) -> np.ndarray:
    """:func:`sft_backward` on arrays, given the forward pass's
    ``(norms, unit, trans)`` of ``x`` from :func:`_transition_from_features`."""
    norms, unit, trans = forward
    grad_x = trans.T @ grad_out
    if through_transition:
        grad_trans = grad_out @ x.T
        # softmax backward per row, then undo the 1/sigma scaling of logits
        grad_logits = trans * (grad_trans - np.einsum("ij,ij->i", grad_trans, trans)[:, None])
        grad_x = grad_x + _cosine_backward(grad_logits / sigma, unit, norms)
    return grad_x
