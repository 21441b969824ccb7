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
from .transform import _check_sigma, cosine_between, sft_transform_array

log = logging.getLogger(__name__)

CMC_RANKS = (1, 5, 10)


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
    # a stable sort keeps equal distances in index order; dropping junk
    # columns afterwards leaves the order of the others unchanged
    orders = np.argsort(dist, axis=1, kind="stable")
    out = []
    for qi, rec in enumerate(query_recs):
        junk = (g_ident == rec.identity) & (g_cam == rec.camera)
        if junk.all():
            raise ValueError(f"query {rec.sample_id!r} has no valid gallery")
        order = orders[qi][~junk[orders[qi]]]
        out.append(QueryRanking(qi, order, -dist[qi, order]))
    return RankingList(tuple(out))


def evaluate(ranking: RankingList, manifest: DatasetManifest) -> EvalReport:
    """Average precision per query, mAP and CMC at the standard ranks."""
    query_recs, gallery_recs = _eval_records(manifest)
    _check_indices(ranking, len(query_recs), len(gallery_recs))
    g_ident = np.array([r.identity for r in gallery_recs])
    aps = []
    first_hit = []
    for qr in ranking.queries:
        rec = query_recs[qr.query_index]
        relevant = g_ident[qr.gallery_indices] == rec.identity
        num_rel = int(relevant.sum())
        if num_rel == 0:
            raise ValueError(f"query {rec.sample_id!r} has no relevant gallery items")
        hits = np.cumsum(relevant)
        positions = np.flatnonzero(relevant)
        precision_at_hits = hits[positions] / (positions + 1)
        aps.append(float(precision_at_hits.mean()))
        first_hit.append(int(positions[0]) + 1)
    first_hit = np.array(first_hit)
    cmc = {r: float((first_hit <= r).mean()) for r in CMC_RANKS}
    return EvalReport(
        map_score=float(np.mean(aps)),
        cmc=cmc,
        per_query_ap=tuple(aps),
        num_queries=len(ranking.queries),
    )


def _check_top_n(top_n: int, sizes: list[int]) -> None:
    """Reject top_n < 1; warn once if any of the ranking lengths is shorter."""
    if top_n < 1:
        raise ValueError(f"top_n must be >= 1, got {top_n}")
    if sizes and top_n > min(sizes):
        log.warning("top_n=%d exceeds ranking length %d, clamping", top_n, min(sizes))


def sft_refine(query_feat: np.ndarray, ranking: QueryRanking, gallery: FeatureMatrix,
               top_n: int, sigma: float) -> QueryRanking:
    """Re-rank the top-n prefix in the spectrally transformed space.

    The query joins the top-n gallery features as an (n+1)-th graph node
    so both sides of the recomputed cosine live in the same transformed
    space.  Items beyond the prefix keep their order and scores.
    """
    sigma = _check_sigma(sigma)
    _check_top_n(top_n, [ranking.gallery_indices.size])
    query_feat = np.asarray(query_feat, dtype=np.float64).reshape(-1)
    if query_feat.size != gallery.d:
        raise ValueError(f"query feature has dim {query_feat.size}, gallery {gallery.d}")
    return _refine_head(query_feat, ranking, gallery, top_n, sigma)


def _refine_head(query_feat: np.ndarray, ranking: QueryRanking, gallery: FeatureMatrix,
                 top_n: int, sigma: float) -> QueryRanking:
    """sft_refine after its checks; a list shorter than top_n is refined whole."""
    head = ranking.gallery_indices[:top_n]
    nodes = np.vstack([query_feat[None, :], gallery.data[head]])
    transformed = sft_transform_array(nodes, sigma)
    new_scores = cosine_between(transformed[:1], transformed[1:])[0]
    order = np.argsort(-new_scores, kind="stable")  # ties keep current order
    indices = np.concatenate([head[order], ranking.gallery_indices[top_n:]])
    scores = np.concatenate([new_scores[order], ranking.scores[top_n:]])
    return QueryRanking(ranking.query_index, indices, scores)


def refine_ranking(queries: FeatureMatrix, ranking: RankingList, gallery: FeatureMatrix,
                   top_n: int, sigma: float) -> RankingList:
    """Apply :func:`sft_refine` to every query of a ranking, with at most
    one clamping warning for the whole ranking."""
    _check_indices(ranking, queries.n, gallery.n)
    _check_top_n(top_n, [qr.gallery_indices.size for qr in ranking.queries])
    if queries.d != gallery.d:
        raise ValueError(f"query feature has dim {queries.d}, gallery {gallery.d}")
    refined = tuple(
        _refine_head(queries.data[qr.query_index], qr, gallery, top_n, sigma)
        for qr in ranking.queries
    )
    return RankingList(refined)


def _stable_top(dist: np.ndarray, k: int) -> np.ndarray:
    """First k+1 columns of each row's neighbour order: distance ascending,
    index ascending on ties."""
    n = dist.shape[0]
    kth = np.partition(dist, k, axis=1)[:, k:k + 1]
    # every column up to the (k+1)-th smallest distance, ties included, so
    # that the index tie-break at the boundary is exact
    rows, cols = np.nonzero(dist <= kth)
    pick = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[pick], cols[pick]
    rank_in_row = np.arange(rows.size) - np.searchsorted(rows, rows)
    return cols[rank_in_row <= k].reshape(n, k + 1)


def _k_reciprocal_sets(order: np.ndarray, k: int) -> list[set[int]]:
    """R(i, k): i's k-nearest neighbors j (self included) with i among j's."""
    n = order.shape[0]
    forward = [set(order[i, : k + 1].tolist()) for i in range(n)]
    return [{j for j in forward[i] if i in forward[j]} for i in range(n)]


def _segments(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenation of the ranges ``starts[s] : starts[s] + lengths[s]``."""
    ends = np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)


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
    the n x n distance matrix the cost is about O(n * k1**2) time and
    memory.
    """
    _check_kr(k1, k2, lam)
    query_recs, gallery_recs = _eval_records(manifest, queries, gallery)
    n_q = queries.n
    union = np.vstack([queries.data, gallery.data])
    n = union.shape[0]
    dist = 1.0 - cosine_between(union, union)
    k1 = min(k1, n - 1)
    k2 = min(k2, k1)
    top = _stable_top(dist, k1)

    # sparse encodings: row i has weights[i] at its sorted columns members[i]
    recip = _k_reciprocal_sets(top, k1)
    half = _k_reciprocal_sets(top, int(round(k1 / 2.0)))
    members, weights = [], []
    for i in range(n):
        expanded = set(recip[i])
        for j in recip[i]:
            if len(half[j] & recip[i]) >= (2.0 / 3.0) * len(half[j]):
                expanded |= half[j]
        cols = np.array(sorted(expanded), dtype=np.int64)
        w = np.exp(-dist[i, cols])
        members.append(cols)
        weights.append(w / w.sum())
    if k2 > 1:
        # mean of the k2 nearest rows' encodings, added up in neighbour
        # order in one dense row that is cleared after each use; weights
        # are positive, so the non-zeros of the sum are its support
        acc = np.zeros(n)
        means = []
        for near in top[:, :k2]:
            for j in near:
                acc[members[j]] += weights[j]
            cols = np.flatnonzero(acc)
            means.append((cols, acc[cols] / k2))
            acc[cols] = 0.0
        members, weights = zip(*means)
    mass = np.array([w.sum() for w in weights])

    # inverted index over the gallery encodings: column -> (gallery row, weight)
    post_col = np.concatenate(members[n_q:])
    by_col = np.argsort(post_col, kind="stable")
    post_row = np.repeat(np.arange(n - n_q), [c.size for c in members[n_q:]])[by_col]
    post_w = np.concatenate(weights[n_q:])[by_col]
    col_ptr = np.searchsorted(post_col[by_col], np.arange(n + 1))
    jaccard = np.empty((n_q, n - n_q))
    for qi in range(n_q):
        cols = members[qi]
        counts = col_ptr[cols + 1] - col_ptr[cols]
        hits = _segments(col_ptr[cols], counts)
        w = np.repeat(weights[qi], counts)
        overlap = np.bincount(post_row[hits], np.minimum(w, post_w[hits]), minlength=n - n_q)
        # sum(max) = |a| + |b| - sum(min)
        jaccard[qi] = 1.0 - overlap / (mass[qi] + mass[n_q:] - overlap)

    final = lam * dist[:n_q, n_q:] + (1.0 - lam) * jaccard
    return _ranked(final, query_recs, gallery_recs)
