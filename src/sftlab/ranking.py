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

import numpy as np

from .data import DatasetManifest, FeatureMatrix, freeze_array
from .transform import ZeroNormRowError, cosine_between, sft_transform_array

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


@dataclass(frozen=True)
class QueryRanking:
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
class RankingList:
    queries: tuple[QueryRanking, ...]

    def __len__(self) -> int:
        return len(self.queries)


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
    bounds = np.cumsum(keep.sum(axis=1))[:-1]
    return RankingList(tuple(
        QueryRanking(qi, order, score)
        for qi, (order, score) in enumerate(zip(np.split(kept, bounds), np.split(scores, bounds)))
    ))


def evaluate(ranking: RankingList, manifest: DatasetManifest) -> EvalReport:
    """Average precision per query, mAP and CMC at the standard ranks.

    All lists are scored as one flat array; each query's AP is the mean of
    its precisions at its hits, with the bits of that query's own mean.
    """
    query_recs, gallery_recs = _eval_records(manifest)
    _check_indices(ranking, len(query_recs), len(gallery_recs))
    g_ident = np.array([r.identity for r in gallery_recs])
    q_ident = np.array([r.identity for r in query_recs])
    queries = ranking.queries
    sizes = np.array([qr.gallery_indices.size for qr in queries], dtype=np.int64)
    owner = np.repeat(np.arange(len(queries)), sizes)
    listed = np.concatenate([qr.gallery_indices for qr in queries])
    wanted = q_ident[[qr.query_index for qr in queries]]
    hit = np.flatnonzero(g_ident[listed] == wanted[owner])
    num_rel = np.bincount(owner[hit], minlength=len(queries))
    missing = np.flatnonzero(num_rel == 0)
    if missing.size:
        rec = query_recs[queries[missing[0]].query_index]
        raise ValueError(f"query {rec.sample_id!r} has no relevant gallery items")
    # 0-based rank of each hit in its list, and 1-based count of hits so far
    positions = hit - (np.cumsum(sizes) - sizes)[owner[hit]]
    first = np.cumsum(num_rel) - num_rel
    hits = np.arange(1, hit.size + 1) - np.repeat(first, num_rel)
    aps = _row_sums(hits / (positions + 1), num_rel) / num_rel
    first_hit = positions[first] + 1
    cmc = {r: float((first_hit <= r).mean()) for r in CMC_RANKS}
    return EvalReport(
        map_score=float(np.mean(aps)),
        cmc=cmc,
        per_query_ap=tuple(aps.tolist()),
        num_queries=len(queries),
    )


def _check_top_n(top_n: int, sizes: list[int]) -> None:
    """Reject top_n < 1; warn once if any of the ranking lengths is shorter."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if sizes and top_n > min(sizes):
        log.warning("top_n=%d exceeds ranking length %d, clamping", top_n, min(sizes))


def _refine_heads(query_feats: np.ndarray, rankings: list[QueryRanking], gallery: FeatureMatrix,
                  top_n: int, sigma: float) -> list[QueryRanking]:
    """Re-rank the top-n prefix of each ranking in the spectrally
    transformed space, for rankings whose heads (first top_n items, or the
    whole list if shorter) have one length, each with its row of
    query_feats: one stack of graphs, each with the bits it has alone.

    The query joins its head's gallery features as an (n+1)-th graph node
    so both sides of the recomputed cosine live in the same transformed
    space.  Items beyond the prefix keep their order and scores.
    """
    heads = np.array([qr.gallery_indices[:top_n] for qr in rankings])
    nodes = np.concatenate([query_feats[:, None, :], gallery.data[heads]], axis=1)
    transformed = sft_transform_array(nodes, sigma)
    new_scores = cosine_between(transformed[:, :1], transformed[:, 1:])[:, 0]
    order = np.argsort(-new_scores, axis=1, kind="stable")  # ties keep current order
    heads = np.take_along_axis(heads, order, axis=1)
    new_scores = np.take_along_axis(new_scores, order, axis=1)
    return [
        QueryRanking(qr.query_index, np.concatenate([head, qr.gallery_indices[top_n:]]),
                     np.concatenate([scores, qr.scores[top_n:]]))
        for qr, head, scores in zip(rankings, heads, new_scores)
    ]


def refine_ranking(queries: FeatureMatrix, ranking: RankingList, gallery: FeatureMatrix,
                   top_n: int, sigma: float) -> RankingList:
    """Re-rank the top-n prefix of every query's list in the spectrally
    transformed space (see :func:`_refine_heads`), with at most one
    clamping warning for the whole ranking.

    Queries whose heads have one length are refined as one stack of up to
    _REFINE_BLOCK graphs and _REFINE_CELLS transition entries; the output
    is the same as query by query.
    """
    _check_indices(ranking, queries.n, gallery.n)
    sizes = [qr.gallery_indices.size for qr in ranking.queries]
    _check_top_n(top_n, sizes)
    if queries.d != gallery.d:
        raise ValueError(f"query feature has dim {queries.d}, gallery {gallery.d}")
    heads = np.array([min(size, top_n) for size in sizes], dtype=np.int64)
    refined = [None] * len(sizes)
    try:
        for size in np.flatnonzero(np.bincount(heads)):
            group = np.flatnonzero(heads == size)
            step = max(1, min(_REFINE_BLOCK, _REFINE_CELLS // (int(size) + 1) ** 2))
            for lo in range(0, group.size, step):
                block = group[lo:lo + step]
                qrs = [ranking.queries[i] for i in block]
                feats = queries.data[[qr.query_index for qr in qrs]]
                for i, qr in zip(block, _refine_heads(feats, qrs, gallery, top_n, sigma)):
                    refined[i] = qr
    except ZeroNormRowError:
        # name the row of the first query in ranking order that has one, as
        # a query-by-query pass does
        for qr in ranking.queries:
            _refine_heads(queries.data[qr.query_index][None, :], [qr], gallery, top_n, sigma)
        raise
    return RankingList(tuple(refined))


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
                        manifest: DatasetManifest, k1: int = 20, k2: int = 6,
                        lam: float = 0.3) -> RankingList:
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
