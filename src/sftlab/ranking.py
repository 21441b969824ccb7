"""Retrieval: ranking, CMC/mAP evaluation and re-ranking.

The protocol is the standard single-query one: gallery items sharing
both identity and camera with the query are junk and never appear in its
ranking; a correct match is a same-identity item from a different
camera.  Ordering is always deterministic, ties break by ascending
gallery index.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .data import DatasetManifest, FeatureMatrix
from .transform import ZeroNormRowError, _check_sigma, cosine_between, sft_transform_array

log = logging.getLogger(__name__)

CMC_RANKS = (1, 5, 10)
# rows of dense work per block and postings per Jaccard block in k-reciprocal
# re-ranking, and graphs and transition entries per refinement stack: each
# bounds a temporary, not the result; the last three keep a ranking's peak
# memory near where the query-by-query code had it, and a head too long for
# two graphs within _REFINE_CELLS is refined one graph at a time
_ROW_BLOCK = 128
_HITS = 1 << 13
_REFINE_BLOCK = 8
_REFINE_CELLS = 1 << 15


class QueryRanking(NamedTuple):
    """A row of a RankingList: read-only views of one query's list."""

    query_index: int
    gallery_indices: np.ndarray
    scores: np.ndarray


@dataclass(frozen=True, eq=False)
class RankingList:
    """Per query, a gallery ordering as four read-only arrays: row r ranks
    query ``query_index[r]``, and ``gallery`` and ``scores`` at
    ``offsets[r]:offsets[r + 1]`` are its gallery indices and their scores.

    The constructor checks whole arrays once and freezes copies of them;
    the package freezes its own lists unchecked (``_trusted``).  Whether an
    index is in range depends on the splits (:func:`_check_indices`).
    """

    query_index: np.ndarray
    offsets: np.ndarray
    gallery: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        qi, offsets, idx = (np.array(a, np.int64) for a in (self.query_index, self.offsets, self.gallery))
        sc = np.array(self.scores, dtype=np.float64)
        if idx.ndim != 1 or idx.shape != sc.shape:
            raise ValueError("indices and scores must be matching 1-d vectors")
        if (qi.ndim != 1 or offsets.shape != (qi.size + 1,) or offsets[0] != 0
                or offsets[-1] != idx.size or (offsets[1:] < offsets[:-1]).any()):
            raise ValueError(f"offsets must be {qi.size + 1} bounds rising from 0 to {idx.size}")
        row = np.repeat(np.arange(qi.size), np.diff(offsets))
        order = np.lexsort((idx, row))
        row_sorted, idx_sorted = row[order], idx[order]
        again = (row_sorted[1:] == row_sorted[:-1]) & (idx_sorted[1:] == idx_sorted[:-1])
        _raise_first((row[~np.isfinite(sc)], lambda: "ranking scores must be finite"),
                     (row_sorted[1:][again], lambda: "duplicate gallery index in ranking"))
        self._freeze(qi, offsets, idx, sc)

    @classmethod
    def _trusted(cls, *arrays: np.ndarray) -> RankingList:
        """The list of arrays that the package built to the constructor's rules."""
        self = object.__new__(cls)
        self._freeze(*arrays)
        return self

    def _freeze(self, *arrays: np.ndarray) -> None:
        """Make the four arrays read-only in place and set them as the fields."""
        for name, arr in zip(("query_index", "offsets", "gallery", "scores"), arrays):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return self.query_index.size

    @cached_property
    def queries(self) -> tuple[QueryRanking, ...]:
        """One row view per query, in row order, built on first use."""
        bounds = self.offsets[1:-1]
        return tuple(map(QueryRanking, self.query_index.tolist(), np.split(self.gallery, bounds),
                         np.split(self.scores, bounds)))


def _raise_first(*faults) -> None:
    """Raise the fault that a row-by-row check meets first.  Each fault is
    (the rows that have it, ascending; its message), listed in the order in
    which one row's checks run."""
    found = [(rows[0], pos, message) for pos, (rows, message) in enumerate(faults) if rows.size]
    if found:
        raise ValueError(min(found)[2]())


@dataclass(frozen=True)
class EvalReport:
    map_score: float
    cmc: dict[int, float]
    per_query_ap: tuple[float, ...]
    num_queries: int


def _eval_records(manifest: DatasetManifest, queries=None, gallery=None):
    """The manifest's query and gallery records; given query and gallery
    features, also checks their row counts against them and their dimension."""
    records = []
    for split, feats in (("query", queries), ("gallery", gallery)):
        recs = manifest.subset(split)
        if not recs:
            raise ValueError(f"manifest has no {split} records")
        if feats is not None and len(recs) != feats.n:
            raise ValueError(f"{feats.n} {split} rows but manifest lists {len(recs)} {split} records")
        records.append(recs)
    if queries is not None and queries.d != gallery.d:
        raise ValueError(f"dimension mismatch: {queries.d} vs {gallery.d}")
    return records


def _check_indices(ranking: RankingList, num_queries: int, num_gallery: int) -> None:
    """Every query and gallery index of ranking lies in [0, n) of its split,
    and every query is listed exactly once."""
    qi, gallery = ranking.query_index, ranking.gallery
    out = np.flatnonzero((qi < 0) | (qi >= num_queries))
    order = np.argsort(qi, kind="stable")
    again = np.sort(order[1:][qi[order[1:]] == qi[order[:-1]]])
    bad = np.flatnonzero((gallery < 0) | (gallery >= num_gallery))
    _raise_first(
        (out, lambda: f"query index {qi[out[0]]} out of range for {num_queries} queries"),
        (again, lambda: f"query index {qi[again[0]]} listed twice"),
        (np.searchsorted(ranking.offsets, bad, "right") - 1,
         lambda: f"gallery index {gallery[bad[0]]} out of range for {num_gallery} gallery rows"),
    )
    if qi.size != num_queries:
        raise ValueError(f"ranking lists {qi.size} of {num_queries} queries")


def rank(queries: FeatureMatrix, gallery: FeatureMatrix, manifest: DatasetManifest) -> RankingList:
    """Per query, gallery sorted by cosine (descending), junk removed."""
    query_recs, gallery_recs = _eval_records(manifest, queries, gallery)
    return _ranked(-cosine_between(queries.data, gallery.data), query_recs, gallery_recs)


def _ranked(dist: np.ndarray, query_recs, gallery_recs) -> RankingList:
    """Per query row of ``dist``, the non-junk gallery by distance ascending,
    ties by gallery index ascending, each scored by its negated distance."""
    g_ident = np.array([r.identity for r in gallery_recs])
    g_cam = np.array([r.camera for r in gallery_recs])
    q_ident = np.array([r.identity for r in query_recs])
    q_cam = np.array([r.camera for r in query_recs])
    junk = (q_ident[:, None] == g_ident) & (q_cam[:, None] == g_cam)
    no_valid = np.flatnonzero(junk.all(axis=1))
    if no_valid.size:
        raise ValueError(f"query {query_recs[no_valid[0]].sample_id!r} has no valid gallery")
    # the default sort leaves equal distances (and NaNs, which sort last) in
    # any order, so the rows holding one are sorted again stably, which keeps
    # them in index order, and their scores are gathered again (0.0 and -0.0
    # are equal but differ in bits); dropping junk columns afterwards leaves
    # the order of the others unchanged
    orders = np.argsort(dist, axis=1)
    ordered = np.take_along_axis(dist, orders, axis=1)
    tied = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1) | np.isnan(ordered[:, -1])
    orders[tied] = np.argsort(dist[tied], axis=1, kind="stable")
    ordered[tied] = np.take_along_axis(dist[tied], orders[tied], axis=1)
    keep = np.take_along_axis(junk, orders, axis=1)
    del junk
    np.logical_not(keep, out=keep)
    scores = ordered[keep]
    del ordered
    np.negative(scores, out=scores)
    kept = orders[keep]
    del orders
    offsets = np.zeros(len(query_recs) + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=offsets[1:])
    return RankingList._trusted(np.arange(len(query_recs)), offsets, kept, scores)


def evaluate(ranking: RankingList, manifest: DatasetManifest) -> EvalReport:
    """Average precision per query, mAP and CMC at the standard ranks.

    All lists are scored as one flat array; each query's AP is the mean of
    its precisions at its hits, with the bits of that query's own mean.
    """
    query_recs, gallery_recs = _eval_records(manifest)
    _check_indices(ranking, len(query_recs), len(gallery_recs))
    g_ident = np.array([r.identity for r in gallery_recs])
    q_ident = np.array([r.identity for r in query_recs])
    owner = np.repeat(np.arange(len(ranking)), np.diff(ranking.offsets))
    hit = np.flatnonzero(g_ident[ranking.gallery] == q_ident[ranking.query_index][owner])
    num_rel = np.bincount(owner[hit], minlength=len(ranking))
    missing = np.flatnonzero(num_rel == 0)
    if missing.size:
        rec = query_recs[ranking.query_index[missing[0]]]
        raise ValueError(f"query {rec.sample_id!r} has no relevant gallery items")
    # 0-based rank of each hit in its list, and 1-based count of hits so far
    positions = hit - ranking.offsets[owner[hit]]
    first = np.cumsum(num_rel) - num_rel
    hits = np.arange(1, hit.size + 1) - np.repeat(first, num_rel)
    aps = _row_sums(hits / (positions + 1), num_rel) / num_rel
    first_hit = positions[first] + 1
    cmc = {r: float((first_hit <= r).mean()) for r in CMC_RANKS}
    return EvalReport(
        map_score=float(np.mean(aps)),
        cmc=cmc,
        per_query_ap=tuple(aps.tolist()),
        num_queries=len(ranking),
    )


def _check_top_n(top_n: int, sizes) -> None:
    """Reject top_n < 1; warn once if any of the ranking lengths is shorter."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if len(sizes) and top_n > np.min(sizes):
        log.warning("top_n=%d exceeds ranking length %d, clamping", top_n, np.min(sizes))


def _refine_heads(query_feats: np.ndarray, heads: np.ndarray, gallery: FeatureMatrix,
                  sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """(gallery indices, scores) of each row of ``heads`` (the first top-n
    items of a ranking, or the whole list if shorter) re-ranked in the
    spectrally transformed space, each with its row of query_feats: one
    stack of graphs, each with the bits it has alone.

    The query joins its head's gallery features as an (n+1)-th graph node
    so both sides of the recomputed cosine live in the same transformed
    space.
    """
    nodes = np.concatenate([query_feats[:, None, :], gallery.data[heads]], axis=1)
    transformed = sft_transform_array(nodes, sigma)
    new_scores = cosine_between(transformed[:, :1], transformed[:, 1:])[:, 0]
    order = np.argsort(-new_scores, axis=1, kind="stable")  # ties keep current order
    return np.take_along_axis(heads, order, axis=1), np.take_along_axis(new_scores, order, axis=1)


def refine_ranking(queries: FeatureMatrix, ranking: RankingList, gallery: FeatureMatrix,
                   top_n: int, sigma: float) -> RankingList:
    """Re-rank the top-n prefix of every query's list in the spectrally
    transformed space (see :func:`_refine_heads`), with at most one
    clamping warning for the whole ranking.  Items beyond the prefix keep
    their order and scores.

    Queries whose heads have one length are refined as one stack of up to
    _REFINE_BLOCK graphs and _REFINE_CELLS transition entries; the output
    is the same as query by query.
    """
    _check_indices(ranking, queries.n, gallery.n)
    _check_sigma(sigma)
    if queries.d != gallery.d:
        raise ValueError(f"query feature has dim {queries.d}, gallery {gallery.d}")
    sizes = np.diff(ranking.offsets)
    _check_top_n(top_n, sizes)
    heads = np.minimum(sizes, top_n)
    starts = ranking.offsets[:-1]
    indices, scores = ranking.gallery.copy(), ranking.scores.copy()
    try:
        for size in np.flatnonzero(np.bincount(heads)):
            group = np.flatnonzero(heads == size)
            step = max(1, min(_REFINE_BLOCK, _REFINE_CELLS // (int(size) + 1) ** 2))
            for lo in range(0, group.size, step):
                block = group[lo:lo + step]
                at = starts[block, None] + np.arange(size)
                feats = queries.data[ranking.query_index[block]]
                indices[at], scores[at] = _refine_heads(feats, indices[at], gallery, sigma)
    except ZeroNormRowError:
        # name the row of the first query in ranking order that has one, as
        # a query-by-query pass does
        for row, (start, size) in enumerate(zip(starts, heads)):
            _refine_heads(queries.data[ranking.query_index[row:row + 1]],
                          ranking.gallery[None, start:start + size], gallery, sigma)
        raise
    return RankingList._trusted(ranking.query_index, ranking.offsets, indices, scores)


def _stable_top(dist: np.ndarray, k: int) -> np.ndarray:
    """First k+1 columns of each row's neighbour order: distance ascending,
    index ascending on ties."""
    n = dist.shape[0]
    top = np.empty((n, k + 1), dtype=np.int64)
    for lo in range(0, n, _ROW_BLOCK):
        rows = dist[lo:lo + _ROW_BLOCK]
        near = np.argpartition(rows, k, axis=1)[:, :k + 1]
        near_dist = np.take_along_axis(rows, near, axis=1)
        top[lo:lo + _ROW_BLOCK] = np.take_along_axis(near, np.lexsort((near, near_dist)), axis=1)
        # a row with more columns than these at or below its (k+1)-th
        # smallest distance has a tie at the boundary, which the index
        # tie-break settles among all the tied columns
        kth = near_dist.max(axis=1, keepdims=True)
        tied = np.flatnonzero(np.count_nonzero(rows <= kth, axis=1) > k + 1)
        if tied.size:
            top[lo + tied] = _tied_top(rows[tied], kth[tied], k)
    return top


def _tied_top(dist: np.ndarray, kth: np.ndarray, k: int) -> np.ndarray:
    """:func:`_stable_top` of rows whose (k+1)-th smallest distances are
    ``kth``, from every column up to that distance, ties included."""
    rows, cols = np.nonzero(dist <= kth)
    pick = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[pick], cols[pick]
    rank_in_row = np.arange(rows.size) - np.searchsorted(rows, rows)
    return cols[rank_in_row <= k].reshape(-1, k + 1)


def _within(dist: np.ndarray, top: np.ndarray, k: int, rows: np.ndarray,
            cols: np.ndarray) -> np.ndarray:
    """Whether each of ``cols`` is among the k+1 nearest of its row in
    ``rows``: at or before that row's (k+1)-th neighbour in (distance,
    index) order."""
    n = dist.shape[0]
    flat = dist.ravel()
    last = top[rows, k]
    edge = flat[rows * n + last]
    d = flat[rows * n + cols]
    return (d < edge) | ((d == edge) & (cols <= last))


def _expanded_supports(dist: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols), row-major, of the expanded k-reciprocal sets, given each
    row's k+1 nearest ``top``: R(i, k), and each R(j, k/2) of a j in R(i, k)
    that has at least 2/3 of its members in R(i, k).  A column is in R(i, k)
    when each of the two is among the other's k+1 nearest."""
    n, k = top.shape[0], top.shape[1] - 1
    half_near = top[:, :int(round(k / 2.0)) + 1]
    rows = np.arange(n)[:, None]
    recip = _within(dist, top, k, top, rows)
    half = _within(dist, top, half_near.shape[1] - 1, half_near, rows)
    members = np.zeros(_ROW_BLOCK * n, dtype=bool)  # cleared after each use
    out_rows, out_cols = [], []
    for lo in range(0, n, _ROW_BLOCK):
        # R(i, k) of a block of rows as a dense mask, then their expansions
        block = recip[lo:lo + _ROW_BLOCK]
        flat = members[:block.shape[0] * n]
        at, pos = np.nonzero(block)
        flat[at * n + top[lo + at, pos]] = True
        near = top[lo + at, pos]
        candidates = at[:, None] * n + half_near[near]
        in_half = half[near]
        shared = np.count_nonzero(in_half & flat[candidates], axis=1)
        grow = shared >= (2.0 / 3.0) * np.count_nonzero(in_half, axis=1)
        flat[candidates[grow][in_half[grow]]] = True
        at = np.flatnonzero(flat)
        flat[at] = False
        out_rows.append(at // n + lo)
        out_cols.append(at % n)
    return np.concatenate(out_rows), np.concatenate(out_cols)


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges ``starts[s] : starts[s] + lengths[s]``."""
    ends = np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)


def _row_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of each row of a ragged row-major array, with the bits of the
    row's own 1-d ``sum()``: rows of one length are summed as one 2-d block
    (``np.add.reduceat`` sums in another order)."""
    starts = np.cumsum(sizes) - sizes
    sums = np.empty(sizes.size)
    for size in np.flatnonzero(np.bincount(sizes)):
        rows = np.flatnonzero(sizes == size)
        sums[rows] = values[starts[rows, None] + np.arange(size)].sum(axis=1)
    return sums


def _neighbour_means(near: np.ndarray, cols: np.ndarray, weights: np.ndarray,
                     sizes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cols, weights, sizes) of each row's mean over the sparse rows of its
    neighbours ``near``, added up in neighbour order in a dense block of
    rows (adding to 0.0 moves no bit); weights are positive, so the
    non-zeros of a sum are its support."""
    starts = np.cumsum(sizes) - sizes
    acc = np.zeros(_ROW_BLOCK * n)  # cleared after each use
    parts = []
    for lo in range(0, near.shape[0], _ROW_BLOCK):
        for rows in near[lo:lo + _ROW_BLOCK].T:
            counts = sizes[rows]
            src = _segments(starts[rows], counts)
            acc[np.repeat(np.arange(rows.size) * n, counts) + cols[src]] += weights[src]
        at = np.flatnonzero(acc != 0.0)
        parts.append((at // n + lo, at % n, acc[at] / near.shape[1]))
        acc[at] = 0.0
    rows, cols, weights = (np.concatenate(p) for p in zip(*parts))
    return cols, weights, np.bincount(rows, minlength=near.shape[0])


def _jaccard(cols: np.ndarray, weights: np.ndarray, sizes: np.ndarray, n_q: int) -> np.ndarray:
    """Jaccard distance 1 - sum(min) / sum(max) of each of the first n_q
    sparse rows (queries) to each later one (gallery).

    sum(min) runs through an inverted index from column to (gallery row,
    weight), for blocks of queries with about _HITS postings each, and
    sum(max) = |a| + |b| - sum(min).
    """
    n = sizes.size
    n_g = n - n_q
    mass = _row_sums(weights, sizes)
    ptr = np.concatenate([[0], np.cumsum(sizes)])
    post_col = cols[ptr[n_q]:]
    by_col = np.argsort(post_col, kind="stable")
    post_row = np.repeat(np.arange(n_g), sizes[n_q:])[by_col]
    post_w = weights[ptr[n_q]:][by_col]
    col_ptr = np.searchsorted(post_col[by_col], np.arange(n + 1))
    counts = col_ptr[cols[:ptr[n_q]] + 1] - col_ptr[cols[:ptr[n_q]]]
    hits_before = np.concatenate([[0], np.cumsum(counts)])[ptr[:n_q + 1]]
    jaccard = np.empty((n_q, n_g))
    lo = 0
    while lo < n_q:
        hi = max(lo + 1, int(np.searchsorted(hits_before, hits_before[lo] + _HITS, "right")) - 1)
        q_cols = cols[ptr[lo]:ptr[hi]]
        q_counts = counts[ptr[lo]:ptr[hi]]
        hits = _segments(col_ptr[q_cols], q_counts)
        # one bin per (query, gallery row), each summed in column order
        bins = post_row[hits]
        bins += np.repeat(np.repeat(np.arange(hi - lo) * n_g, sizes[lo:hi]), q_counts)
        mins = post_w[hits]
        np.minimum(mins, np.repeat(weights[ptr[lo]:ptr[hi]], q_counts), out=mins)
        overlap = np.bincount(bins, mins, minlength=(hi - lo) * n_g).reshape(hi - lo, n_g)
        jaccard[lo:hi] = 1.0 - overlap / (mass[lo:hi, None] + mass[n_q:] - overlap)
        lo = hi
    return jaccard


def _check_kr(k1: int, k2: int, lam: float) -> None:
    if not k1 > k2 >= 1:
        raise ValueError(f"need k1 > k2 >= 1, got k1={k1}, k2={k2}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")


def k_reciprocal_rerank(queries: FeatureMatrix, gallery: FeatureMatrix,
                        manifest: DatasetManifest, k1: int, k2: int, lam: float) -> RankingList:
    """Re-rank with Jaccard distance over expanded k-reciprocal encodings.

    Distances are computed on the union of query and gallery rows.  The
    final per-pair distance is ``lam * (1 - cosine) + (1 - lam) *
    jaccard``; with lam=1 the ordering reduces to the plain cosine
    ranking.  Junk items are removed per query exactly as in
    :func:`rank`.

    Encodings are sparse rows (Zhong et al., CVPR 2017) and the Jaccard
    overlap runs through an inverted index over their columns, so beyond
    the n x n distance matrix, which is freed once the encoding weights
    are taken, the cost is about O(n * k1**2) time and memory.
    """
    _check_kr(k1, k2, lam)
    query_recs, gallery_recs = _eval_records(manifest, queries, gallery)
    n_q = queries.n
    union = np.vstack([queries.data, gallery.data])
    n = union.shape[0]
    dist = cosine_between(union, union)
    np.subtract(1.0, dist, out=dist)
    k1 = min(k1, n - 1)
    k2 = min(k2, k1)
    top = _stable_top(dist, k1)

    # sparse encodings, row-major: row i has weights[i] at its sorted columns
    rows, cols = _expanded_supports(dist, top)
    weights = np.exp(-dist[rows, cols])
    cosine_dist = dist[:n_q, n_q:].copy()
    del dist
    sizes = np.bincount(rows, minlength=n)
    weights /= np.repeat(_row_sums(weights, sizes), sizes)
    if k2 > 1:
        cols, weights, sizes = _neighbour_means(top[:, :k2], cols, weights, sizes, n)

    # final = lam * cosine_dist + (1 - lam) * jaccard, in place
    final = _jaccard(cols, weights, sizes, n_q)
    final *= 1.0 - lam
    cosine_dist *= lam
    final += cosine_dist
    del cosine_dist
    return _ranked(final, query_recs, gallery_recs)
