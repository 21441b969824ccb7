"""References and one-call helpers that only the tests use.

The graph-cut quantities (cut, volume, ncut, the stationary distribution
and the random walk's D^-1 W) are written out from their definitions on
the raw edge weights, a float64 array, and a class-id vector, apart from
``sftlab.graphcut.class_ncut_escape``, which computes every class's ncut
and escape probabilities in one pass and is checked against them.

The margin-softmax helpers, :func:`forward_backward` and :func:`refine_one`
are thin forms of the package's own kernels, so a finite-difference or
refinement check runs the code the trainer and ``refine_ranking`` run.
Both margin-softmax helpers call the trainer's one margin-softmax kernel,
``sftlab.training._am_softmax_grad``: :func:`am_softmax_value` keeps the
loss it returns first, which it computes before and apart from the
gradients.

The per-query ranking checks (``LoopedQueryRanking``, ``LoopedRankingList``
and :func:`looped_check_indices`) are the package's former checks, kept
verbatim but for their names as the oracle of the whole-array ones.

:func:`normal` is the generator's former scalar Box-Muller deviate, the
oracle of ``Xoshiro256StarStar.normals``.
"""

import math
from dataclasses import dataclass

import numpy as np

from sftlab.data import FeatureMatrix
from sftlab.ranking import QueryRanking, RankingList, refine_ranking
from sftlab.training import EmbedModel, _am_softmax_grad, _plan, _step
from sftlab.transform import _unit_rows


def cut(w, labels, a, b):
    """Total edge weight between classes a and b of the partition."""
    return float(w[np.ix_(labels == a, labels == b)].sum())


def volume(w, labels, a):
    """Total edge weight from class a to the whole graph."""
    return float(w[labels == a, :].sum())


def ncut(w, labels, a):
    """Normalized cut of class a against its complement."""
    mask = labels == a
    cross = float(w[np.ix_(mask, ~mask)].sum())
    return cross / float(w[mask, :].sum()) + cross / float(w[~mask, :].sum())


def stationary(w):
    """(pi, total volume): pi_i = degree_i / total volume, the left fixed
    point of the random walk."""
    degrees = w.sum(axis=1)
    total = float(degrees.sum())
    return degrees / total, total


def transition(w):
    """D^-1 W: the affinities row-normalized into transition probabilities."""
    return w / w.sum(axis=1)[:, None]


def check_labels(y, n, clf):
    """Reject labels that are not n class ids of the classifier."""
    num_classes = clf.shape[0]
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} samples")
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(
            f"label {int(y.max() if y.max() >= num_classes else y.min())} "
            f"out of range for {num_classes} classes"
        )


def am_softmax_value(x, labels, clf):
    """The trainer's mean margin-softmax loss of feature rows x: element 0
    of its kernel."""
    check_labels(labels, x.shape[0], clf)
    return float(_am_softmax_grad(x, labels, *_unit_rows(clf))[0])


def am_softmax_loss(x, labels, clf):
    """(loss, d loss / d x, d loss / d clf) from the trainer's kernel,
    the gradients taken w.r.t. the raw (unnormalized) rows."""
    check_labels(labels, x.shape[0], clf)
    loss, grad_x, grad_w = _am_softmax_grad(x, labels, *_unit_rows(clf))
    return float(loss), grad_x, grad_w


def forward_backward(x, labels, model, clf, cfg, clf_orig=None):
    """One training step's losses and parameter gradients under cfg.method:
    the trainer's step kernel ``sftlab.training._step`` on a stack of one.

    Returns (loss_orig, loss_sft, grads) as ``_step`` describes them, the
    losses as floats and each gradient without the slot axis: those of
    model.parameters() + [clf], then of clf_orig under sft+ds_unshared.
    Other methods step with an empty stack of second classifiers, whose
    empty gradient is left out.
    """
    check_labels(labels, x.shape[0], clf)
    stacked_orig = np.empty((0,) + clf.shape)
    if cfg.method == "sft+ds_unshared":
        if clf_orig is None:
            raise ValueError("unshared deep supervision needs the second classifier")
        check_labels(labels, x.shape[0], clf_orig)
        stacked_orig = clf_orig[None]
    stacked = EmbedModel([w[None] for w in model.weights], [b[None] for b in model.biases])
    loss_orig, loss_sft, grads = _step(x[None], labels[None], stacked, clf[None], stacked_orig,
                                       _plan((cfg.method,), (cfg.sigma,), cfg))
    return float(loss_orig[0]), float(loss_sft[0]), [g[0] for g in grads if len(g)]


def ranking_of(rows):
    """The checked RankingList of rows given as (query index, gallery
    indices, scores), such as QueryRanking views, in row order."""
    rows = list(rows)
    offsets = np.cumsum([0] + [len(indices) for _, indices, _ in rows])
    return RankingList(
        [query_index for query_index, _, _ in rows], offsets,
        np.concatenate([np.zeros(0, np.int64)] + [np.asarray(r[1], np.int64) for r in rows]),
        np.concatenate([np.zeros(0)] + [np.asarray(r[2], np.float64) for r in rows]),
    )


def refine_one(query_feat, ranking, gallery, top_n, sigma):
    """``refine_ranking`` of one query's ranking, given that query's feature
    vector; the result keeps the ranking's query index."""
    query = FeatureMatrix(np.asarray(query_feat, dtype=np.float64).reshape(1, -1))
    alone = ranking_of([(0, ranking.gallery_indices, ranking.scores)])
    refined = refine_ranking(query, alone, gallery, top_n, sigma).queries[0]
    return QueryRanking(ranking.query_index, refined.gallery_indices, refined.scores)


def freeze_array(arr: np.ndarray) -> np.ndarray:
    """A read-only copy of arr; the caller's array stays writeable."""
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LoopedQueryRanking:
    """One query's gallery ordering: indices into the gallery rows."""

    query_index: int
    gallery_indices: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.gallery_indices, dtype=np.int64)
        sc = np.asarray(self.scores, dtype=np.float64)
        if idx.ndim != 1 or idx.shape != sc.shape:
            raise ValueError("indices and scores must be matching 1-d vectors")
        if not np.isfinite(sc).all():
            raise ValueError("ranking scores must be finite")
        ordered = np.sort(idx)
        if (ordered[1:] == ordered[:-1]).any():
            raise ValueError("duplicate gallery index in ranking")
        object.__setattr__(self, "gallery_indices", freeze_array(idx))
        object.__setattr__(self, "scores", freeze_array(sc))


@dataclass(frozen=True)
class LoopedRankingList:
    queries: tuple[LoopedQueryRanking, ...]

    def __len__(self) -> int:
        return len(self.queries)


def looped_check_indices(ranking: LoopedRankingList, num_queries: int, num_gallery: int) -> None:
    """Every query and gallery index of ranking lies in [0, n) of its split,
    and every query is listed exactly once."""
    seen = set()
    for qr in ranking.queries:
        if not 0 <= qr.query_index < num_queries:
            raise ValueError(f"query index {qr.query_index} out of range for {num_queries} queries")
        if qr.query_index in seen:
            raise ValueError(f"query index {qr.query_index} listed twice")
        seen.add(qr.query_index)
        bad = qr.gallery_indices[(qr.gallery_indices < 0) | (qr.gallery_indices >= num_gallery)]
        if bad.size:
            raise ValueError(f"gallery index {bad[0]} out of range for {num_gallery} gallery rows")
    if len(seen) != num_queries:
        raise ValueError(f"ranking lists {len(seen)} of {num_queries} queries")


def normal(rng) -> float:
    """One standard normal deviate from two next_u64 words (Box-Muller,
    cosine branch; u1 in (0, 1] keeps the log finite)."""
    u1 = ((rng.next_u64() >> 11) + 1) * 2.0**-53
    u2 = (rng.next_u64() >> 11) * 2.0**-53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
