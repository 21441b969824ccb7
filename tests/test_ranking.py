import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sftlab.data import (
    DatasetManifest,
    FeatureMatrix,
    ManifestError,
    SampleRecord,
    SyntheticSpec,
    generate_synthetic,
    hold_out_eval_split,
    split_features,
)
from sftlab.ranking import (
    QueryRanking,
    RankingList,
    _eval_records,
    evaluate,
    k_reciprocal_rerank,
    rank,
    refine_ranking,
    sft_refine,
)
from sftlab.transform import cosine_between


def eval_manifest(query_specs, gallery_specs):
    """Manifest whose query/gallery records appear in the given order."""
    recs = [SampleRecord(f"q{i}", ident, cam, "query")
            for i, (ident, cam) in enumerate(query_specs)]
    recs += [SampleRecord(f"g{i}", ident, cam, "gallery")
             for i, (ident, cam) in enumerate(gallery_specs)]
    return DatasetManifest(tuple(recs))


class TestQueryRanking:
    @pytest.mark.parametrize("indices", [[1, 1], [3, 0, 2, 0], [4, 1, 2, 3, 0, 1]])
    def test_duplicate_index_rejected(self, indices):
        with pytest.raises(ValueError, match="duplicate gallery index"):
            QueryRanking(0, np.array(indices), np.zeros(len(indices)))

    @pytest.mark.parametrize("indices", [[], [7], [3, 0, 2, 1]])
    def test_distinct_indices_accepted(self, indices):
        qr = QueryRanking(0, np.array(indices, dtype=np.int64), np.zeros(len(indices)))
        assert qr.gallery_indices.tolist() == indices

    def test_freezes_a_copy_of_the_callers_arrays(self):
        indices, scores = np.array([2, 0, 1], dtype=np.int64), np.zeros(3)
        qr = QueryRanking(0, indices, scores)
        assert indices.flags.writeable and scores.flags.writeable
        assert not qr.gallery_indices.flags.writeable and not qr.scores.flags.writeable
        indices[0] = 5
        assert qr.gallery_indices.tolist() == [2, 0, 1]


class TestRank:
    def test_exact_copy_ranks_first(self):
        rng = np.random.default_rng(0)
        gallery = rng.normal(size=(6, 4))
        query = rng.normal(size=(1, 4))
        gallery[5] = query[0]  # exact copy, different camera than the query
        manifest = eval_manifest([(9, 0)], [(i, 1) for i in range(5)] + [(9, 1)])
        ranking = rank(FeatureMatrix(query), FeatureMatrix(gallery), manifest)
        assert ranking.queries[0].gallery_indices[0] == 5
        assert ranking.queries[0].scores[0] == pytest.approx(1.0, abs=1e-12)

    def test_all_junk_gallery_caught_by_manifest_validation(self):
        # a gallery consisting only of same-identity same-camera items can
        # never pass manifest validation in the first place
        with pytest.raises(ManifestError, match="cross-camera"):
            DatasetManifest((
                SampleRecord("q0", 1, 0, "query"),
                SampleRecord("g0", 1, 0, "gallery"),
                SampleRecord("g1", 1, 0, "gallery"),
            ))

    def test_all_junk_gallery_defensive_error(self):
        # belt and braces: rank() still refuses if validation were bypassed
        bad = object.__new__(DatasetManifest)
        object.__setattr__(bad, "records", (
            SampleRecord("q0", 1, 0, "query"),
            SampleRecord("g0", 1, 0, "gallery"),
        ))
        with pytest.raises(ValueError, match="no valid gallery"):
            rank(FeatureMatrix([[1.0, 0.0]]), FeatureMatrix([[1.0, 0.1]]), bad)

    def test_matches_brute_force_order(self):
        rng = np.random.default_rng(1)
        queries = rng.normal(size=(3, 5))
        gallery = rng.normal(size=(6, 5))
        manifest = eval_manifest([(0, 0), (1, 0), (2, 0)],
                                 [(0, 1), (1, 1), (2, 1), (3, 0), (4, 0), (5, 0)])
        ranking = rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest)
        for qi in range(3):
            cosines = []
            for g in range(6):
                num = float(queries[qi] @ gallery[g])
                cosines.append(num / (np.linalg.norm(queries[qi]) * np.linalg.norm(gallery[g])))
            expected = sorted(range(6), key=lambda g: (-cosines[g], g))
            assert ranking.queries[qi].gallery_indices.tolist() == expected
            assert all(np.diff(ranking.queries[qi].scores) <= 0)

    def test_junk_rule_excludes_same_identity_same_camera(self):
        rng = np.random.default_rng(2)
        queries = rng.normal(size=(2, 4))
        gallery = rng.normal(size=(8, 4))
        q_specs = [(0, 0), (1, 1)]
        g_specs = [(0, 0), (0, 1), (1, 1), (1, 0), (2, 0), (2, 1), (0, 0), (1, 1)]
        manifest = eval_manifest(q_specs, g_specs)
        ranking = rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest)
        for qr, (ident, cam) in zip(ranking.queries, q_specs):
            for g in qr.gallery_indices:
                g_ident, g_cam = g_specs[g]
                assert not (g_ident == ident and g_cam == cam)

    # k_reciprocal_rerank shares rank's input checks and messages
    @pytest.mark.parametrize("retrieve", [rank, k_reciprocal_rerank])
    def test_dim_mismatch(self, retrieve):
        manifest = eval_manifest([(0, 0)], [(0, 1)])
        rng = np.random.default_rng(3)
        queries, gallery = FeatureMatrix(rng.normal(size=(1, 32))), FeatureMatrix(rng.normal(size=(1, 31)))
        with pytest.raises(ValueError, match="^dimension mismatch: 32 vs 31$"):
            retrieve(queries, gallery, manifest)

    @pytest.mark.parametrize("retrieve", [rank, k_reciprocal_rerank])
    @pytest.mark.parametrize("n_q,n_g,message", [
        (2, 2, "2 query rows but manifest lists 1 query records"),
        (1, 3, "3 gallery rows but manifest lists 2 gallery records"),
    ])
    def test_row_count_mismatch(self, retrieve, n_q, n_g, message):
        manifest = eval_manifest([(0, 0)], [(0, 1), (1, 1)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            retrieve(FeatureMatrix(np.ones((n_q, 4))), FeatureMatrix(np.ones((n_g, 4))), manifest)


def brute_force_ap(relevance):
    """Average precision straight from the definition, in exact arithmetic."""
    hits = 0
    precisions = []
    for k, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            precisions.append(Fraction(hits, k))
    return float(sum(precisions) / len(precisions))


class TestEvaluate:
    def make_single_query(self, relevance):
        """Single query whose ranked gallery has the given relevance flags."""
        gallery_specs = [(0 if rel else 5 + i, 1) for i, rel in enumerate(relevance)]
        manifest = eval_manifest([(0, 0)], gallery_specs)
        qr = QueryRanking(0, np.arange(len(relevance)),
                          np.linspace(1.0, 0.1, len(relevance)))
        return RankingList((qr,)), manifest

    def test_hand_computed_ap(self):
        ranking, manifest = self.make_single_query([1, 0, 1])
        report = evaluate(ranking, manifest)
        assert report.map_score == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-15)
        assert report.map_score == pytest.approx(0.833333333, abs=1e-9)

    def test_exhaustive_against_definition(self):
        for size in range(1, 11):
            for pattern in itertools.product([0, 1], repeat=size):
                if not any(pattern):
                    continue
                ranking, manifest = self.make_single_query(list(pattern))
                report = evaluate(ranking, manifest)
                assert report.map_score == pytest.approx(
                    brute_force_ap(pattern), abs=1e-12
                ), pattern

    def test_top1_all_correct_gives_cmc1(self):
        ranking, manifest = self.make_single_query([1, 0, 1])
        assert evaluate(ranking, manifest).cmc[1] == 1.0

    def test_perfect_ranking_gives_full_map(self):
        ranking, manifest = self.make_single_query([1, 1, 0, 0])
        report = evaluate(ranking, manifest)
        assert report.map_score == 1.0
        assert report.cmc == {1: 1.0, 5: 1.0, 10: 1.0}

    def test_cmc_non_decreasing(self):
        ranking, manifest = self.make_single_query([0, 0, 0, 0, 0, 1])
        report = evaluate(ranking, manifest)
        assert report.cmc[1] <= report.cmc[5] <= report.cmc[10]
        assert report.cmc[1] == 0.0 and report.cmc[10] == 1.0

    def test_map_is_mean_of_per_query_ap(self):
        rng = np.random.default_rng(3)
        queries = rng.normal(size=(3, 4))
        gallery = rng.normal(size=(8, 4))
        manifest = eval_manifest([(0, 0), (1, 0), (2, 0)],
                                 [(0, 1), (0, 1), (1, 1), (1, 1), (2, 1), (2, 1), (3, 0), (4, 0)])
        ranking = rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest)
        report = evaluate(ranking, manifest)
        assert report.map_score == pytest.approx(np.mean(report.per_query_ap), abs=1e-15)

    def test_query_without_relevant_items_rejected(self):
        gallery_specs = [(7, 1), (8, 1)]
        manifest_ok = DatasetManifest((
            SampleRecord("q0", 0, 0, "query"),
            SampleRecord("g0", 0, 1, "gallery"),
            SampleRecord("g1", 8, 1, "gallery"),
        ))
        qr = QueryRanking(0, np.array([1]), np.array([0.5]))  # only irrelevant item
        with pytest.raises(ValueError, match="relevant"):
            evaluate(RankingList((qr,)), manifest_ok)

    @pytest.mark.parametrize("query_index,gallery_indices,message", [
        (-1, [0, 1, 2], "query index -1 out of range for 1 queries"),
        (1, [0, 1, 2], "query index 1 out of range for 1 queries"),
        (0, [0, -1, 2], "gallery index -1 out of range for 3 gallery rows"),
        (0, [0, 3, 2], "gallery index 3 out of range for 3 gallery rows"),
    ])
    def test_out_of_range_index_rejected(self, query_index, gallery_indices, message):
        """No index wraps around or fails inside numpy: evaluate and
        refine_ranking name the first one outside its split."""
        _, manifest = self.make_single_query([1, 0, 1])
        ranking = RankingList((QueryRanking(query_index, np.array(gallery_indices), np.ones(3)),))
        with pytest.raises(ValueError, match=message):
            evaluate(ranking, manifest)
        with pytest.raises(ValueError, match=message):
            refine_ranking(FeatureMatrix(np.ones((1, 2))), ranking, FeatureMatrix(np.eye(3, 2) + 1), 2, 0.1)



# Geometry where two mutually-symmetric outliers outscore the query's true
# neighbor, but their off-plane components cancel in the transformed query
# while the neighbor's in-plane component accumulates, flipping the order.
ADVERSARIAL_QUERY = np.array([1.0, 0.0, 0.0])
ADVERSARIAL_GALLERY = np.array([
    [0.914, 0.0, 0.4057],   # outlier, rank 1 before refinement
    [0.914, 0.0, -0.4057],  # outlier, rank 2
    [0.906, 0.423, 0.0],    # same-cluster item, rank 3
    [-1.0, 0.05, 0.0],      # far suffix item, must stay untouched
])


def oracle_refine_scores(query, items, sigma):
    """Independent reimplementation: explicit loops over the edge weights,
    row normalization, feature mixing and final cosines."""
    nodes = [query] + list(items)
    n = len(nodes)
    weights = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            ni = math.sqrt(sum(v * v for v in nodes[i]))
            nj = math.sqrt(sum(v * v for v in nodes[j]))
            cos = sum(a * b for a, b in zip(nodes[i], nodes[j])) / (ni * nj)
            weights[i][j] = math.exp(min(1.0, max(-1.0, cos)) / sigma)
    mixed = []
    for i in range(n):
        degree = sum(weights[i])
        row = [0.0] * len(query)
        for j in range(n):
            for k in range(len(query)):
                row[k] += weights[i][j] / degree * nodes[j][k]
        mixed.append(row)
    out = []
    q = mixed[0]
    qn = math.sqrt(sum(v * v for v in q))
    for i in range(1, n):
        g = mixed[i]
        gn = math.sqrt(sum(v * v for v in g))
        out.append(sum(a * b for a, b in zip(q, g)) / (qn * gn))
    return out


class TestSftRefine:
    def base_ranking(self):
        manifest = eval_manifest([(0, 0)], [(1, 1), (2, 1), (0, 1), (3, 1)])
        ranking = rank(FeatureMatrix(ADVERSARIAL_QUERY[None, :]),
                       FeatureMatrix(ADVERSARIAL_GALLERY), manifest)
        return ranking.queries[0], manifest

    def test_adversarial_promotion_to_rank_one(self):
        qr, _ = self.base_ranking()
        assert qr.gallery_indices.tolist() == [0, 1, 2, 3]
        refined = sft_refine(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                             top_n=3, sigma=0.1)
        assert refined.gallery_indices[0] == 2  # same-cluster item promoted
        assert refined.gallery_indices[3] == 3  # suffix untouched

    def test_adversarial_scores_match_independent_oracle(self):
        qr, _ = self.base_ranking()
        refined = sft_refine(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                             top_n=3, sigma=0.1)
        oracle = oracle_refine_scores(ADVERSARIAL_QUERY,
                                      ADVERSARIAL_GALLERY[qr.gallery_indices[:3]], 0.1)
        by_index = {int(g): s for g, s in zip(refined.gallery_indices[:3], refined.scores[:3])}
        for pos, gallery_index in enumerate(qr.gallery_indices[:3]):
            assert abs(by_index[int(gallery_index)] - oracle[pos]) < 1e-12

    def test_top_n_one_keeps_order(self):
        qr, _ = self.base_ranking()
        refined = sft_refine(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                             top_n=1, sigma=0.1)
        assert refined.gallery_indices.tolist() == qr.gallery_indices.tolist()
        np.testing.assert_array_equal(refined.scores[1:], qr.scores[1:])

    def test_identical_top_features_keep_order(self):
        gallery = np.array([[1.0, 0.2], [1.0, 0.2], [1.0, 0.2], [0.0, 1.0]])
        manifest = eval_manifest([(0, 0)], [(0, 1), (1, 1), (2, 1), (3, 1)])
        ranking = rank(FeatureMatrix(np.array([[1.0, 0.0]])), FeatureMatrix(gallery), manifest)
        qr = ranking.queries[0]
        refined = sft_refine(np.array([1.0, 0.0]), qr, FeatureMatrix(gallery), 3, 0.5)
        assert refined.gallery_indices.tolist() == qr.gallery_indices.tolist()

    def test_suffix_untouched_exactly(self):
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(2, 6))
        gallery = rng.normal(size=(10, 6))
        manifest = eval_manifest([(0, 0), (1, 0)],
                                 [(i % 4, 1) for i in range(10)])
        ranking = rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest)
        refined = refine_ranking(FeatureMatrix(queries), ranking, FeatureMatrix(gallery), 4, 0.2)
        for before, after in zip(ranking.queries, refined.queries):
            np.testing.assert_array_equal(before.gallery_indices[4:], after.gallery_indices[4:])
            np.testing.assert_array_equal(before.scores[4:], after.scores[4:])
            assert sorted(after.gallery_indices[:4]) == sorted(before.gallery_indices[:4])

    def test_top_n_clamped_with_warning(self, caplog):
        qr, _ = self.base_ranking()
        with caplog.at_level("WARNING", logger="sftlab.ranking"):
            refined = sft_refine(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                                 top_n=50, sigma=0.1)
        assert "clamping" in caplog.text
        assert len(refined.gallery_indices) == len(qr.gallery_indices)

    def test_bad_top_n(self):
        qr, _ = self.base_ranking()
        with pytest.raises(ValueError):
            sft_refine(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY), 0, 0.1)


def oracle_k_reciprocal_jaccard(features, n_q, k1, k2):
    """Set-based reimplementation of the reciprocal-neighbor encoding."""
    n = len(features)
    unit = features / np.linalg.norm(features, axis=1, keepdims=True)
    dist = 1.0 - np.clip(unit @ unit.T, -1.0, 1.0)
    order = [sorted(range(n), key=lambda j: (dist[i][j], j)) for i in range(n)]

    def reciprocal(i, k):
        forward = set(order[i][: k + 1])
        return {j for j in forward if i in set(order[j][: k + 1])}

    encodings = []
    for i in range(n):
        base = reciprocal(i, k1)
        expanded = set(base)
        for j in sorted(base):
            candidate = reciprocal(j, int(round(k1 / 2.0)))
            if len(candidate & base) >= (2.0 / 3.0) * len(candidate):
                expanded |= candidate
        vec = np.zeros(n)
        members = sorted(expanded)
        w = np.exp(-dist[i, members])
        vec[members] = w / w.sum()
        encodings.append(vec)
    encodings = np.stack(encodings)
    if k2 > 1:
        encodings = np.stack([encodings[order[i][:k2]].mean(axis=0) for i in range(n)])
    jac = np.zeros((n_q, n - n_q))
    for qi in range(n_q):
        for gj in range(n_q, n):
            mins = np.minimum(encodings[qi], encodings[gj]).sum()
            maxs = np.maximum(encodings[qi], encodings[gj]).sum()
            jac[qi, gj - n_q] = 1.0 - mins / maxs
    return jac


class TestKReciprocal:
    def setup_instance(self, seed=7, n_q=2, n_g=6, d=4):
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(n_q, d))
        gallery = rng.normal(size=(n_g, d))
        manifest = eval_manifest([(i, 0) for i in range(n_q)],
                                 [(i % n_q, 1) for i in range(n_g)])
        return FeatureMatrix(queries), FeatureMatrix(gallery), manifest

    def test_lambda_one_reproduces_plain_ranking(self):
        queries, gallery, manifest = self.setup_instance()
        plain = rank(queries, gallery, manifest)
        rr = k_reciprocal_rerank(queries, gallery, manifest, k1=4, k2=2, lam=1.0)
        for a, b in zip(plain.queries, rr.queries):
            assert a.gallery_indices.tolist() == b.gallery_indices.tolist()

    def test_duplicate_gallery_items_tie(self):
        rng = np.random.default_rng(8)
        queries = rng.normal(size=(1, 4))
        gallery = rng.normal(size=(5, 4))
        gallery[3] = gallery[1]  # exact duplicate
        manifest = eval_manifest([(0, 0)], [(i, 1) for i in range(5)])
        rr = k_reciprocal_rerank(FeatureMatrix(queries), FeatureMatrix(gallery),
                                 manifest, k1=3, k2=2, lam=0.3)
        qr = rr.queries[0]
        score_of = {int(g): s for g, s in zip(qr.gallery_indices, qr.scores)}
        assert score_of[1] == pytest.approx(score_of[3], abs=1e-12)

    def test_jaccard_matches_set_based_oracle(self):
        queries, gallery, manifest = self.setup_instance(seed=9, n_q=2, n_g=6)
        rr = k_reciprocal_rerank(queries, gallery, manifest, k1=4, k2=2, lam=0.0)
        oracle = oracle_k_reciprocal_jaccard(
            np.vstack([queries.data, gallery.data]), 2, 4, 2
        )
        for qi, qr in enumerate(rr.queries):
            for g, score in zip(qr.gallery_indices, qr.scores):
                assert abs(-score - oracle[qi, int(g)]) < 1e-12

    def test_parameter_validation(self):
        queries, gallery, manifest = self.setup_instance()
        with pytest.raises(ValueError):
            k_reciprocal_rerank(queries, gallery, manifest, k1=2, k2=2)
        with pytest.raises(ValueError):
            k_reciprocal_rerank(queries, gallery, manifest, k1=4, k2=2, lam=1.5)

    def test_deterministic(self):
        queries, gallery, manifest = self.setup_instance(seed=11)
        r1 = k_reciprocal_rerank(queries, gallery, manifest, k1=4, k2=2, lam=0.3)
        r2 = k_reciprocal_rerank(queries, gallery, manifest, k1=4, k2=2, lam=0.3)
        for a, b in zip(r1.queries, r2.queries):
            np.testing.assert_array_equal(a.gallery_indices, b.gallery_indices)
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_junk_rule_applies(self):
        rng = np.random.default_rng(12)
        queries = FeatureMatrix(rng.normal(size=(1, 4)))
        gallery = FeatureMatrix(rng.normal(size=(5, 4)))
        manifest = eval_manifest([(0, 0)], [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)])
        rr = k_reciprocal_rerank(queries, gallery, manifest, k1=3, k2=2, lam=0.3)
        assert 0 not in rr.queries[0].gallery_indices  # same id, same camera


# The dense implementation that the sparse one replaced, kept verbatim but for
# its names as the reference: n x n encodings, per-row lexsort neighbour order
# and a dense Jaccard loop.
def reference_k_reciprocal_sets(order: np.ndarray, k: int) -> list[set[int]]:
    """R(i, k): i's k-nearest neighbors j (self included) with i among j's."""
    n = order.shape[0]
    forward = [set(order[i, : k + 1].tolist()) for i in range(n)]
    return [{j for j in forward[i] if i in forward[j]} for i in range(n)]


def reference_k_reciprocal_rerank(queries: FeatureMatrix, gallery: FeatureMatrix,
                                  manifest: DatasetManifest, k1: int = 20, k2: int = 6,
                                  lam: float = 0.3) -> RankingList:
    """Re-rank with Jaccard distance over expanded k-reciprocal encodings.

    Distances are computed on the union of query and gallery rows.  The
    final per-pair distance is ``lam * (1 - cosine) + (1 - lam) *
    jaccard``; with lam=1 the ordering reduces to the plain cosine
    ranking.  Junk items are removed per query exactly as in
    :func:`rank`.
    """
    if not k1 > k2 >= 1:
        raise ValueError(f"need k1 > k2 >= 1, got k1={k1}, k2={k2}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    query_recs, gallery_recs = _eval_records(manifest)
    if len(query_recs) != queries.n or len(gallery_recs) != gallery.n:
        raise ValueError("feature row counts do not match manifest query/gallery records")
    n_q = queries.n
    union = np.vstack([queries.data, gallery.data])
    n = union.shape[0]
    dist = 1.0 - cosine_between(union, union)
    k1 = min(k1, n - 1)
    k2 = min(k2, k1)
    # stable neighbor order: distance ascending, index ascending on ties
    order = np.stack([np.lexsort((np.arange(n), dist[i])) for i in range(n)])

    recip = reference_k_reciprocal_sets(order, k1)
    half = reference_k_reciprocal_sets(order, int(round(k1 / 2.0)))
    encodings = np.zeros((n, n))
    for i in range(n):
        expanded = set(recip[i])
        for j in sorted(recip[i]):
            if len(half[j] & recip[i]) >= (2.0 / 3.0) * len(half[j]):
                expanded |= half[j]
        members = np.array(sorted(expanded))
        weights = np.exp(-dist[i, members])
        encodings[i, members] = weights / weights.sum()
    if k2 > 1:
        encodings = np.stack([encodings[order[i, :k2]].mean(axis=0) for i in range(n)])

    jaccard = np.zeros((n_q, n - n_q))
    for qi in range(n_q):
        minimum = np.minimum(encodings[qi][None, :], encodings[n_q:]).sum(axis=1)
        maximum = np.maximum(encodings[qi][None, :], encodings[n_q:]).sum(axis=1)
        jaccard[qi] = 1.0 - minimum / maximum

    final = lam * dist[:n_q, n_q:] + (1.0 - lam) * jaccard
    g_ident = np.array([r.identity for r in gallery_recs])
    g_cam = np.array([r.camera for r in gallery_recs])
    out = []
    for qi, rec in enumerate(query_recs):
        junk = (g_ident == rec.identity) & (g_cam == rec.camera)
        valid = np.flatnonzero(~junk)
        if valid.size == 0:
            raise ValueError(f"query {rec.sample_id!r} has no valid gallery")
        ordered = valid[np.lexsort((valid, final[qi, valid]))]
        out.append(QueryRanking(qi, ordered, -final[qi, ordered]))
    return RankingList(tuple(out))


class TestKReciprocalMatchesDenseReference:
    def assert_same(self, queries, gallery, manifest, **params):
        got = k_reciprocal_rerank(queries, gallery, manifest, **params)
        want = reference_k_reciprocal_rerank(queries, gallery, manifest, **params)
        assert len(got) == len(want)
        for a, b in zip(got.queries, want.queries):
            assert a.query_index == b.query_index
            np.testing.assert_array_equal(a.gallery_indices, b.gallery_indices)
            np.testing.assert_allclose(a.scores, b.scores, rtol=0.0, atol=1e-12)

    def test_gaussian_blobs(self):
        spec = SyntheticSpec(num_identities=30, samples_per_identity=10, dim=32,
                             intra_class_spread=0.15, topology="gaussian_blobs", seed=3)
        features, manifest = generate_synthetic(spec)
        manifest = hold_out_eval_split(manifest, 2, 8)
        queries = split_features(features, manifest, "query")
        gallery = split_features(features, manifest, "gallery")
        assert queries.n + gallery.n == 300
        self.assert_same(queries, gallery, manifest)

    @staticmethod
    def duplicate_rows():
        rng = np.random.default_rng(21)
        distinct = rng.normal(size=(8, 4))
        gallery = np.repeat(distinct, 3, axis=0)  # every gallery row three times
        return distinct[:4] + 0.3 * rng.normal(size=(4, 4)), gallery

    @staticmethod
    def mirror_images():
        # queries on the plane z=0 are exactly as far from (x, y, z) as from
        # (x, y, -z); the unmirrored rows make the two distinguishable, which
        # exact duplicates never are, so the index tie-break decides the result
        rng = np.random.default_rng(28)
        pairs = rng.normal(size=(8, 3))
        gallery = np.vstack([pairs, pairs * [1, 1, -1], rng.normal(size=(6, 3))])
        return rng.normal(size=(4, 3)) * [1, 1, 0], gallery

    @pytest.mark.parametrize("instance", ["duplicate_rows", "mirror_images"])
    def test_distance_ties_at_neighbour_boundary(self, instance):
        queries, gallery = getattr(self, instance)()
        manifest = eval_manifest([(i, 0) for i in range(len(queries))],
                                 [(i % len(queries), 1) for i in range(len(gallery))])
        k1 = 4
        union = np.vstack([queries, gallery])
        dist = np.sort(1.0 - cosine_between(union, union), axis=1)
        # the (k1+1)-th and (k1+2)-th nearest neighbours tie for some rows
        assert np.any(dist[:, k1] == dist[:, k1 + 1])
        for lam in (0.0, 0.3):
            self.assert_same(FeatureMatrix(queries), FeatureMatrix(gallery), manifest,
                             k1=k1, k2=2, lam=lam)

    def test_k1_clamped_to_union_size(self):
        rng = np.random.default_rng(22)
        manifest = eval_manifest([(0, 0)], [(0, 1), (1, 1)])
        self.assert_same(FeatureMatrix(rng.normal(size=(1, 3))),
                         FeatureMatrix(rng.normal(size=(2, 3))), manifest, k1=5, k2=3)
