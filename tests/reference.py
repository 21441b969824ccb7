"""References and one-call helpers that only the tests use.

The graph-cut quantities (cut, volume, ncut, the stationary distribution
and the random walk's D^-1 W) are written out from their definitions on
the raw edge weights, apart from ``sftlab.graphcut.class_ncut_escape``,
which computes every class's ncut and escape probabilities in one pass
and is checked against them.

The margin-softmax helpers and :func:`refine_one` are thin forms of the
package's own kernels, so a finite-difference or refinement check runs
the code the trainer and ``refine_ranking`` run.
"""

import numpy as np

from sftlab.data import FeatureMatrix
from sftlab.ranking import QueryRanking, RankingList, refine_ranking
from sftlab.training import _am_softmax_grad, _am_softmax_parts, _check_labels
from sftlab.transform import _unit_rows


def cut(w, part, a, b):
    """Total edge weight between classes a and b of the partition."""
    return float(w.data[np.ix_(part.labels == a, part.labels == b)].sum())


def volume(w, part, a):
    """Total edge weight from class a to the whole graph."""
    return float(w.data[part.labels == a, :].sum())


def ncut(w, part, a):
    """Normalized cut of class a against its complement."""
    mask = part.labels == a
    cross = float(w.data[np.ix_(mask, ~mask)].sum())
    return cross / float(w.data[mask, :].sum()) + cross / float(w.data[~mask, :].sum())


def stationary(w):
    """(pi, total volume): pi_i = degree_i / total volume, the left fixed
    point of the random walk."""
    degrees = w.data.sum(axis=1)
    total = float(degrees.sum())
    return degrees / total, total


def transition(w):
    """D^-1 W: the affinities row-normalized into transition probabilities."""
    return w.data / w.data.sum(axis=1)[:, None]


def am_softmax_value(x, labels, clf):
    """The trainer's mean margin-softmax loss of feature rows x, forward only."""
    _check_labels(labels, x.shape[0], clf.num_classes)
    return float(_am_softmax_parts(x, labels, _unit_rows(clf.weight)[1], clf)[4])


def am_softmax_loss(x, labels, clf):
    """(loss, d loss / d x, d loss / d clf.weight) from the trainer's kernel,
    the gradients taken w.r.t. the raw (unnormalized) rows."""
    _check_labels(labels, x.shape[0], clf.num_classes)
    loss, grad_x, grad_w = _am_softmax_grad(x, labels, *_unit_rows(clf.weight), clf)
    return float(loss), grad_x, grad_w


def refine_one(query_feat, ranking, gallery, top_n, sigma):
    """``refine_ranking`` of one query's ranking, given that query's feature
    vector; the result keeps the ranking's query index."""
    query = FeatureMatrix(np.asarray(query_feat, dtype=np.float64).reshape(1, -1))
    alone = RankingList((QueryRanking(0, ranking.gallery_indices, ranking.scores),))
    refined = refine_ranking(query, alone, gallery, top_n, sigma).queries[0]
    return QueryRanking(ranking.query_index, refined.gallery_indices, refined.scores)
