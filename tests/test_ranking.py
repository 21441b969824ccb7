import itertools
import math
import re
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from reference import (LoopedQueryRanking, LoopedRankingList, looped_check_indices, ranking_of,
                       refine_one)
from sftlab.cli import load_ranking, main, save_ranking
from sftlab.data import (
    DatasetManifest,
    FeatureMatrix,
    ManifestError,
    SampleRecord,
    SyntheticSpec,
    generate_synthetic,
    hold_out_eval_split,
    load_features,
    save_features,
    save_manifest,
    split_features,
    write_json,
)
from sftlab.ranking import (
    QueryRanking,
    RankingList,
    _check_indices,
    _eval_records,
    _ranked,
    evaluate,
    k_reciprocal_rerank,
    rank,
    refine_ranking,
)
from sftlab.transform import cosine_between, sft_transform_array


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
            ranking_of([(0, np.array(indices), np.zeros(len(indices)))])

    @pytest.mark.parametrize("indices", [[], [7], [3, 0, 2, 1]])
    def test_distinct_indices_accepted(self, indices):
        qr = ranking_of([(0, np.array(indices, dtype=np.int64), np.zeros(len(indices)))]).queries[0]
        assert qr.gallery_indices.tolist() == indices

    def test_freezes_a_copy_of_the_callers_arrays(self):
        arrays = [np.array([0]), np.array([0, 3]), np.array([2, 0, 1], dtype=np.int64), np.zeros(3)]
        ranking = RankingList(*arrays)
        assert all(arr.flags.writeable for arr in arrays)
        assert not any(arr.flags.writeable for arr in
                       (ranking.query_index, ranking.offsets, ranking.gallery, ranking.scores))
        qr = ranking.queries[0]
        assert not qr.gallery_indices.flags.writeable and not qr.scores.flags.writeable
        arrays[2][0] = 5
        assert qr.gallery_indices.tolist() == [2, 0, 1]

    def test_row_views_share_the_flat_arrays(self):
        ranking = ranking_of([(1, [4, 2], [0.5, 0.25]), (0, [], []), (2, [2], [1.0])])
        assert ranking.queries is ranking.queries  # built once
        assert [qr.query_index for qr in ranking.queries] == [1, 0, 2]
        assert [qr.gallery_indices.tolist() for qr in ranking.queries] == [[4, 2], [], [2]]
        for qr in ranking.queries:
            assert type(qr.query_index) is int
            assert np.shares_memory(qr.scores, ranking.scores) or qr.scores.size == 0

    @pytest.mark.parametrize("offsets", [[0, 1], [1, 2, 3], [0, 1, 2], [0, 4, 3], [[0, 2], [3, 3]]])
    def test_bad_offsets_rejected(self, offsets):
        with pytest.raises(ValueError, match="^offsets must be 3 bounds rising from 0 to 3$"):
            RankingList([0, 1], offsets, [0, 1, 2], np.zeros(3))


# the plain ranking and the k-reciprocal re-ranking at the experiment's values
RETRIEVERS = {"rank": rank, "k_reciprocal_rerank": partial(k_reciprocal_rerank, k1=20, k2=6, lam=0.3)}


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
    @pytest.mark.parametrize("retrieve", RETRIEVERS.values(), ids=RETRIEVERS)
    def test_dim_mismatch(self, retrieve):
        manifest = eval_manifest([(0, 0)], [(0, 1)])
        rng = np.random.default_rng(3)
        queries, gallery = FeatureMatrix(rng.normal(size=(1, 32))), FeatureMatrix(rng.normal(size=(1, 31)))
        with pytest.raises(ValueError, match="^dimension mismatch: 32 vs 31$"):
            retrieve(queries, gallery, manifest)

    @pytest.mark.parametrize("retrieve", RETRIEVERS.values(), ids=RETRIEVERS)
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
        ranking = ranking_of([(0, np.arange(len(relevance)), np.linspace(1.0, 0.1, len(relevance)))])
        return ranking, manifest

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
        ranking = ranking_of([(0, np.array([1]), np.array([0.5]))])  # only irrelevant item
        with pytest.raises(ValueError, match="relevant"):
            evaluate(ranking, manifest_ok)

    def test_missing_query_rejected(self):
        manifest = eval_manifest([(0, 0), (1, 0)], [(0, 1), (1, 1)])
        ranking = ranking_of([(1, np.array([1, 0]), np.array([0.9, 0.1]))])
        with pytest.raises(ValueError, match="ranking lists 1 of 2 queries"):
            evaluate(ranking, manifest)

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
        ranking = ranking_of([(query_index, np.array(gallery_indices), np.ones(3))])
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
        refined = refine_one(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                             top_n=3, sigma=0.1)
        assert refined.gallery_indices[0] == 2  # same-cluster item promoted
        assert refined.gallery_indices[3] == 3  # suffix untouched

    def test_adversarial_scores_match_independent_oracle(self):
        qr, _ = self.base_ranking()
        refined = refine_one(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                             top_n=3, sigma=0.1)
        oracle = oracle_refine_scores(ADVERSARIAL_QUERY,
                                      ADVERSARIAL_GALLERY[qr.gallery_indices[:3]], 0.1)
        by_index = {int(g): s for g, s in zip(refined.gallery_indices[:3], refined.scores[:3])}
        for pos, gallery_index in enumerate(qr.gallery_indices[:3]):
            assert abs(by_index[int(gallery_index)] - oracle[pos]) < 1e-12

    def test_top_n_one_keeps_order(self):
        qr, _ = self.base_ranking()
        refined = refine_one(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                             top_n=1, sigma=0.1)
        assert refined.gallery_indices.tolist() == qr.gallery_indices.tolist()
        np.testing.assert_array_equal(refined.scores[1:], qr.scores[1:])

    def test_identical_top_features_keep_order(self):
        gallery = np.array([[1.0, 0.2], [1.0, 0.2], [1.0, 0.2], [0.0, 1.0]])
        manifest = eval_manifest([(0, 0)], [(0, 1), (1, 1), (2, 1), (3, 1)])
        ranking = rank(FeatureMatrix(np.array([[1.0, 0.0]])), FeatureMatrix(gallery), manifest)
        qr = ranking.queries[0]
        refined = refine_one(np.array([1.0, 0.0]), qr, FeatureMatrix(gallery), 3, 0.5)
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
            refined = refine_one(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY),
                                 top_n=50, sigma=0.1)
        assert "clamping" in caplog.text
        assert len(refined.gallery_indices) == len(qr.gallery_indices)

    def test_clamping_warns_once_per_ranking(self, caplog):
        rng = np.random.default_rng(6)
        queries = rng.normal(size=(6, 4))
        gallery = rng.normal(size=(11, 4))
        manifest = eval_manifest([(i, 0) for i in range(6)], [(i % 6, 1) for i in range(11)])
        ranking = rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest)
        assert all(qr.gallery_indices.size == 11 for qr in ranking.queries)
        with caplog.at_level("WARNING", logger="sftlab.ranking"):
            refined = refine_ranking(FeatureMatrix(queries), ranking, FeatureMatrix(gallery), 50, 0.2)
        warned = [r for r in caplog.records if r.name == "sftlab.ranking" and r.levelname == "WARNING"]
        assert len(warned) == 1 and "clamping" in warned[0].getMessage()
        for qr, got in zip(ranking.queries, refined.queries):
            want = refine_one(queries[qr.query_index], qr, FeatureMatrix(gallery), 11, 0.2)
            np.testing.assert_array_equal(got.gallery_indices, want.gallery_indices)
            np.testing.assert_array_equal(got.scores, want.scores)

    @pytest.mark.parametrize("sigma,message", [
        (math.nan, "sigma must be positive and finite, got nan"),
        (0.0, "sigma must be positive and finite, got 0.0"),
        (1e-309, "sigma 1e-309 too small: 2/sigma overflows float64"),
    ])
    def test_bad_input_rejected_before_clamping_warning(self, caplog, sigma, message):
        """A bad sigma, named before a dims mismatch, and the mismatch alone
        fail the call before top_n=50 can warn that it clamps the 11-item
        lists."""
        rng = np.random.default_rng(6)
        queries = FeatureMatrix(rng.normal(size=(6, 4)))
        gallery = FeatureMatrix(rng.normal(size=(11, 4)))
        manifest = eval_manifest([(i, 0) for i in range(6)], [(i % 6, 1) for i in range(11)])
        ranking = rank(queries, gallery, manifest)
        narrow = FeatureMatrix(gallery.data[:, :3])
        with caplog.at_level("WARNING", logger="sftlab.ranking"):
            for g in (gallery, narrow):
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    refine_ranking(queries, ranking, g, 50, sigma)
            with pytest.raises(ValueError, match="^query feature has dim 4, gallery 3$"):
                refine_ranking(queries, ranking, narrow, 50, 0.2)
        assert caplog.records == []

    def test_bad_top_n(self):
        qr, _ = self.base_ranking()
        with pytest.raises(ValueError):
            refine_one(ADVERSARIAL_QUERY, qr, FeatureMatrix(ADVERSARIAL_GALLERY), 0, 0.1)


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
            k_reciprocal_rerank(queries, gallery, manifest, k1=2, k2=2, lam=0.3)
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
        out.append((qi, ordered, -final[qi, ordered]))
    return ranking_of(out)


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
        self.assert_same(queries, gallery, manifest, k1=20, k2=6, lam=0.3)

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
                         FeatureMatrix(rng.normal(size=(2, 3))), manifest, k1=5, k2=3, lam=0.3)


# The looped implementation that the whole-array one replaced, kept verbatim
# but for its names as the bitwise reference: per-row sets and loops, one
# stable sort per ranking and one transform per refined query.
def looped_ranked(dist, query_recs, gallery_recs):
    g_ident = np.array([r.identity for r in gallery_recs])
    g_cam = np.array([r.camera for r in gallery_recs])
    orders = np.argsort(dist, axis=1, kind="stable")
    out = []
    for qi, rec in enumerate(query_recs):
        junk = (g_ident == rec.identity) & (g_cam == rec.camera)
        if junk.all():
            raise ValueError(f"query {rec.sample_id!r} has no valid gallery")
        order = orders[qi][~junk[orders[qi]]]
        out.append((qi, order, -dist[qi, order]))
    return ranking_of(out)


def looped_rank(queries, gallery, manifest):
    return looped_ranked(-cosine_between(queries.data, gallery.data),
                         *_eval_records(manifest, queries, gallery))


def looped_refine_head(query_feat, ranking, gallery, top_n, sigma):
    head = ranking.gallery_indices[:top_n]
    nodes = np.vstack([query_feat[None, :], gallery.data[head]])
    transformed = sft_transform_array(nodes, sigma)
    new_scores = cosine_between(transformed[:1], transformed[1:])[0]
    order = np.argsort(-new_scores, kind="stable")
    indices = np.concatenate([head[order], ranking.gallery_indices[top_n:]])
    scores = np.concatenate([new_scores[order], ranking.scores[top_n:]])
    return QueryRanking(ranking.query_index, indices, scores)


def looped_refine_ranking(queries, ranking, gallery, top_n, sigma):
    return ranking_of(
        looped_refine_head(queries.data[qr.query_index], qr, gallery, top_n, sigma)
        for qr in ranking.queries
    )


def looped_stable_top(dist, k):
    n = dist.shape[0]
    kth = np.partition(dist, k, axis=1)[:, k:k + 1]
    rows, cols = np.nonzero(dist <= kth)
    pick = np.lexsort((cols, dist[rows, cols], rows))
    rows, cols = rows[pick], cols[pick]
    rank_in_row = np.arange(rows.size) - np.searchsorted(rows, rows)
    return cols[rank_in_row <= k].reshape(n, k + 1)


def looped_k_reciprocal_sets(order, k):
    n = order.shape[0]
    forward = [set(order[i, : k + 1].tolist()) for i in range(n)]
    return [{j for j in forward[i] if i in forward[j]} for i in range(n)]


def looped_segments(starts, lengths):
    ends = np.cumsum(lengths)
    return np.arange(lengths.sum()) + np.repeat(starts - ends + lengths, lengths)


def looped_k_reciprocal_rerank(queries, gallery, manifest, k1=20, k2=6, lam=0.3):
    query_recs, gallery_recs = _eval_records(manifest, queries, gallery)
    n_q = queries.n
    union = np.vstack([queries.data, gallery.data])
    n = union.shape[0]
    dist = 1.0 - cosine_between(union, union)
    k1 = min(k1, n - 1)
    k2 = min(k2, k1)
    top = looped_stable_top(dist, k1)
    recip = looped_k_reciprocal_sets(top, k1)
    half = looped_k_reciprocal_sets(top, int(round(k1 / 2.0)))
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
    post_col = np.concatenate(members[n_q:])
    by_col = np.argsort(post_col, kind="stable")
    post_row = np.repeat(np.arange(n - n_q), [c.size for c in members[n_q:]])[by_col]
    post_w = np.concatenate(weights[n_q:])[by_col]
    col_ptr = np.searchsorted(post_col[by_col], np.arange(n + 1))
    jaccard = np.empty((n_q, n - n_q))
    for qi in range(n_q):
        cols = members[qi]
        counts = col_ptr[cols + 1] - col_ptr[cols]
        hits = looped_segments(col_ptr[cols], counts)
        w = np.repeat(weights[qi], counts)
        overlap = np.bincount(post_row[hits], np.minimum(w, post_w[hits]), minlength=n - n_q)
        jaccard[qi] = 1.0 - overlap / (mass[qi] + mass[n_q:] - overlap)
    final = lam * dist[:n_q, n_q:] + (1.0 - lam) * jaccard
    return looped_ranked(final, query_recs, gallery_recs)


def assert_bitwise(got, want):
    assert len(got) == len(want)
    for a, b in zip(got.queries, want.queries):
        assert a.query_index == b.query_index
        assert np.array_equal(a.gallery_indices, b.gallery_indices)
        assert np.array_equal(a.scores, b.scores)


def blob_split(seed, identities, dim=32):
    spec = SyntheticSpec(num_identities=identities, samples_per_identity=10, dim=dim,
                         intra_class_spread=0.15, topology="gaussian_blobs", seed=seed)
    features, manifest = generate_synthetic(spec)
    manifest = hold_out_eval_split(manifest, 2, 8)
    return (split_features(features, manifest, "query"),
            split_features(features, manifest, "gallery"), manifest)


def tie_instance(name):
    queries, gallery = getattr(TestKReciprocalMatchesDenseReference, name)()
    manifest = eval_manifest([(i, 0) for i in range(len(queries))],
                             [(i % len(queries), 1) for i in range(len(gallery))])
    return FeatureMatrix(queries), FeatureMatrix(gallery), manifest


class TestBitwiseAgainstLoopedReference:
    """Rankings, refinements and re-rankings equal the looped code's bit for bit."""

    @pytest.mark.parametrize("seed,dim", [(3, 32), (4, 7)])
    def test_gaussian_blobs(self, seed, dim):
        queries, gallery, manifest = blob_split(seed, 30, dim)
        plain = rank(queries, gallery, manifest)
        assert_bitwise(plain, looped_rank(queries, gallery, manifest))
        assert_bitwise(refine_ranking(queries, plain, gallery, 20, 0.1),
                       looped_refine_ranking(queries, plain, gallery, 20, 0.1))
        for k1, k2, lam in ((20, 6, 0.3), (8, 3, 0.0), (13, 1, 0.5)):
            assert_bitwise(k_reciprocal_rerank(queries, gallery, manifest, k1, k2, lam),
                           looped_k_reciprocal_rerank(queries, gallery, manifest, k1, k2, lam))

    @pytest.mark.parametrize("instance", ["duplicate_rows", "mirror_images"])
    def test_distance_ties_at_neighbour_boundary(self, instance):
        queries, gallery, manifest = tie_instance(instance)
        for k1, k2, lam in ((4, 2, 0.0), (4, 2, 0.3), (4, 1, 0.3), (7, 3, 0.5)):
            assert_bitwise(k_reciprocal_rerank(queries, gallery, manifest, k1, k2, lam),
                           looped_k_reciprocal_rerank(queries, gallery, manifest, k1, k2, lam))
        plain = rank(queries, gallery, manifest)
        assert_bitwise(plain, looped_rank(queries, gallery, manifest))
        assert_bitwise(refine_ranking(queries, plain, gallery, 5, 0.2),
                       looped_refine_ranking(queries, plain, gallery, 5, 0.2))

    @pytest.mark.parametrize("k1,k2", [(5, 3), (5, 1), (2, 1)])
    def test_k1_clamp_and_k2_one(self, k1, k2):
        rng = np.random.default_rng(22)
        manifest = eval_manifest([(0, 0)], [(0, 1), (1, 1)])
        queries, gallery = FeatureMatrix(rng.normal(size=(1, 3))), FeatureMatrix(rng.normal(size=(2, 3)))
        assert_bitwise(k_reciprocal_rerank(queries, gallery, manifest, k1, k2, 0.3),
                       looped_k_reciprocal_rerank(queries, gallery, manifest, k1, k2, 0.3))

    @pytest.mark.parametrize("top_n", [1, 3, 8, 40])
    def test_lists_shorter_than_top_n(self, top_n):
        """Mixed head lengths refine in separate stacks, each query as alone."""
        queries, gallery, manifest = blob_split(5, 12, 7)
        rng = np.random.default_rng(0)
        truncated = ranking_of(
            (qr.query_index, qr.gallery_indices[:keep], qr.scores[:keep])
            for qr in rank(queries, gallery, manifest).queries
            for keep in [int(rng.integers(1, 12))]
        )
        assert len({min(top_n, qr.gallery_indices.size) for qr in truncated.queries}) > 1 or top_n == 1
        assert_bitwise(refine_ranking(queries, truncated, gallery, top_n, 0.3),
                       looped_refine_ranking(queries, truncated, gallery, top_n, 0.3))
        for qr in truncated.queries:
            got = refine_one(queries.data[qr.query_index], qr, gallery, top_n, 0.3)
            want = looped_refine_head(queries.data[qr.query_index], qr, gallery, top_n, 0.3)
            assert_bitwise(ranking_of([got]), ranking_of([want]))

    def test_signed_zero_ties_keep_their_bits(self):
        """Rows tied between 0.0 and -0.0 are scored in the stable order,
        each score with the sign bit of its own distance."""
        rng = np.random.default_rng(0)
        dist = np.where(rng.random((4, 200)) < 0.5, 0.0, -0.0)
        dist[:, ::7] = rng.random((4, 29))
        manifest = eval_manifest([(i, 0) for i in range(4)], [(i % 9, 1) for i in range(200)])
        records = _eval_records(manifest)
        for got, want in zip(_ranked(dist, *records).queries, looped_ranked(dist, *records).queries):
            assert np.array_equal(got.gallery_indices, want.gallery_indices)
            assert np.array_equal(got.scores.view(np.int64), want.scores.view(np.int64))

    def test_duplicate_gallery_rows_in_index_order(self):
        rng = np.random.default_rng(31)
        distinct = rng.normal(size=(6, 5))
        gallery = distinct[rng.integers(0, 6, size=40)]
        queries = rng.normal(size=(5, 5))
        manifest = eval_manifest([(i, 0) for i in range(5)], [(i % 7, 1) for i in range(40)])
        plain = rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest)
        assert_bitwise(plain, looped_rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest))
        for qr in plain.queries:
            # copies of one row are adjacent and in ascending gallery index order
            for first, second in zip(qr.gallery_indices, qr.gallery_indices[1:]):
                if np.array_equal(gallery[first], gallery[second]):
                    assert first < second


def zero_row_instance():
    """Two queries refined in different stacks: the first, in ranking order,
    has the zero gallery row at head position 2 of 4 (node row 3), the
    second, whose head is shorter and so refined first, at position 0."""
    rng = np.random.default_rng(41)
    queries = FeatureMatrix(rng.normal(size=(2, 4)))
    gallery_rows = rng.normal(size=(6, 4))
    gallery_rows[5] = 0.0
    gallery = FeatureMatrix(gallery_rows)
    ranking = ranking_of([
        (0, np.array([0, 1, 5, 2, 3]), np.linspace(1.0, 0.0, 5)),
        (1, np.array([5]), np.array([0.5])),
    ])
    return queries, ranking, gallery


class TestZeroNormRow:
    def expected_message(self, queries, ranking, gallery, top_n):
        with pytest.raises(ValueError) as err:
            looped_refine_ranking(queries, ranking, gallery, top_n, 0.2)
        return str(err.value)

    def test_refine_ranking_names_the_first_query_in_ranking_order(self):
        queries, ranking, gallery = zero_row_instance()
        message = self.expected_message(queries, ranking, gallery, 4)
        assert message == "row 3 has zero norm, cosine undefined"
        with pytest.raises(ValueError, match=f"^{message}$"):
            refine_ranking(queries, ranking, gallery, 4, 0.2)

    def test_sft_refine(self):
        queries, ranking, gallery = zero_row_instance()
        for qr in ranking.queries:
            query = queries.data[qr.query_index]
            with pytest.raises(ValueError) as want:
                looped_refine_head(query, qr, gallery, 4, 0.2)
            with pytest.raises(ValueError, match=f"^{want.value}$"):
                refine_one(query, qr, gallery, 4, 0.2)
        with pytest.raises(ValueError, match="^row 0 has zero norm, cosine undefined$"):
            refine_one(np.zeros(4), ranking.queries[0], gallery, 4, 0.2)

    def test_cli_refine(self, tmp_path, capsys):
        queries, ranking, gallery = zero_row_instance()
        manifest = eval_manifest([(0, 0), (1, 0)], [(i % 3, 1) for i in range(6)])
        paths = {name: tmp_path / name for name in ("f.sfte", "m.tsv", "r.json", "out.json")}
        save_features(FeatureMatrix(np.vstack([queries.data, gallery.data])), paths["f.sfte"])
        save_manifest(manifest, paths["m.tsv"])
        save_ranking(ranking, manifest, paths["r.json"])
        # the features as the CLI reads them back (float32 on disk)
        features = load_features(paths["f.sfte"])
        message = self.expected_message(
            split_features(features, manifest, "query"), load_ranking(paths["r.json"]),
            split_features(features, manifest, "gallery"), 4)
        assert main(["refine", "--features", str(paths["f.sfte"]), "--manifest", str(paths["m.tsv"]),
                     "--ranking", str(paths["r.json"]), "--top-n", "4", "--sigma", "0.2",
                     "--out", str(paths["out.json"])]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
        assert not paths["out.json"].exists()


def test_k_reciprocal_memory_stays_near_the_distance_matrix():
    """Beyond the n x n distance matrix nothing quadratic stays alive: one
    re-ranking of 1,200 union rows peaks below 1.5 times its 8 n^2 bytes."""
    queries, gallery, manifest = blob_split(1, 120)
    n = queries.n + gallery.n
    assert n == 1200
    tracemalloc.start()
    try:
        k_reciprocal_rerank(queries, gallery, manifest, 20, 6, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n * n, peak / (8 * n * n)


def test_refine_memory_of_long_heads_stays_near_one_graph():
    """Long heads are refined about one graph at a time: at top_n 250 the
    peak stays below the refined lists' bytes plus three (n+1)^2 transition
    matrices, where a stack of eight graphs would need about eleven."""
    queries, gallery, manifest = blob_split(1, 40)
    plain = rank(queries, gallery, manifest)
    top_n = 250
    assert min(qr.gallery_indices.size for qr in plain.queries) > top_n
    lists = sum(qr.gallery_indices.nbytes + qr.scores.nbytes for qr in plain.queries)
    tracemalloc.start()
    try:
        refined = refine_ranking(queries, plain, gallery, top_n, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    graph = 8 * (top_n + 1) ** 2
    assert peak < lists + 3 * graph, (peak - lists) / graph
    assert_bitwise(refined, looped_refine_ranking(queries, plain, gallery, top_n, 0.1))


def test_refine_memory_of_many_long_heads_stays_flat():
    """200 queries at top_n 600 over a 700-row gallery are refined one
    graph at a time, so the peak stays below 16 MB (about 5 MB traced),
    where one stack of all 200 heads would hold 200 tile buffers of 2**18
    cells, about 420 MB."""
    spec = SyntheticSpec(num_identities=100, samples_per_identity=9, dim=32,
                         intra_class_spread=0.15, topology="gaussian_blobs", seed=1)
    features, manifest = generate_synthetic(spec)
    manifest = hold_out_eval_split(manifest, 2, 7)
    queries = split_features(features, manifest, "query")
    gallery = split_features(features, manifest, "gallery")
    plain = rank(queries, gallery, manifest)
    top_n = 600
    assert (queries.n, gallery.n) == (200, 700)
    assert min(qr.gallery_indices.size for qr in plain.queries) > top_n
    tracemalloc.start()
    try:
        refine_ranking(queries, plain, gallery, top_n, 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak / 2**20


# Single faults in a ranking of n_q queries over n_g gallery rows, each with
# a fragment of the message that names it; the last is no fault at all.
FAULTS = {
    "query_out_of_range": "query index",
    "repeated_query": "listed twice",
    "missing_query": "ranking lists",
    "gallery_out_of_range": "gallery index",
    "duplicate_in_row": "duplicate gallery index",
    "non_finite_score": "must be finite",
    "mismatched_lengths": "matching 1-d vectors",
    "same_index_two_rows": None,
}


def fuzz_rows(rng, n_q, n_g):
    """A valid ranking as rows of (query index, gallery indices, scores):
    every query once, in random order, each with distinct gallery rows."""
    rows = []
    for qi in rng.permutation(n_q).tolist():
        indices = rng.permutation(n_g)[:int(rng.integers(1, n_g + 1))]
        rows.append([qi, indices, rng.normal(size=indices.size)])
    return rows


def add_fault(rng, rows, fault, n_q, n_g):
    """Give a random row of rows (in place) one fault of the named kind."""
    r = int(rng.integers(len(rows)))
    others = [s for s in range(len(rows)) if s != r]
    indices, scores = rows[r][1], rows[r][2]
    j = int(rng.integers(indices.size))
    if fault == "query_out_of_range":
        k = int(rng.integers(3))
        rows[r][0] = int(rng.choice([-1 - k, n_q + k]))
    elif fault == "repeated_query":
        rows[r][0] = rows[int(rng.choice(others))][0]
    elif fault == "missing_query":
        del rows[r]
    elif fault == "gallery_out_of_range":
        indices[j] = int(rng.choice([-1 - int(rng.integers(3)), n_g + int(rng.integers(10**12))]))
    elif fault == "duplicate_in_row":
        if indices.size < 2:
            rows[r][1] = indices = rng.permutation(n_g)
            rows[r][2] = scores = rng.normal(size=n_g)
        pair = rng.choice(indices.size, size=2, replace=False)
        indices[pair[0]] = indices[pair[1]]
    elif fault == "non_finite_score":
        scores[j] = rng.choice([np.nan, np.inf, -np.inf])
    elif fault == "mismatched_lengths":
        rows[r][2] = scores[:-1] if rng.random() < 0.5 else np.append(scores, 0.5)
    elif fault == "same_index_two_rows":
        s = int(rng.choice(others))
        rows[s][1] = rng.permutation(indices)
        rows[s][2] = rng.normal(size=indices.size)


def verdict(check):
    """None if check() passes, else its ValueError's message."""
    try:
        check()
    except ValueError as exc:
        return str(exc)
    return None


def oracle_verdict(rows, n_q, n_g):
    return verdict(lambda: looped_check_indices(
        LoopedRankingList(tuple(LoopedQueryRanking(*row) for row in rows)), n_q, n_g))


def whole_array_verdict(rows, n_q, n_g):
    return verdict(lambda: _check_indices(ranking_of(rows), n_q, n_g))


class TestWholeArrayChecksMatchTheLoopedOracle:
    """The constructor's checks and _check_indices accept and reject what
    the per-query checks they replaced do, with the same message."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_single_fault(self, fault):
        rng = np.random.default_rng(sorted(FAULTS).index(fault))
        for _ in range(60):
            n_q, n_g = int(rng.integers(2, 7)), int(rng.integers(2, 9))
            rows = fuzz_rows(rng, n_q, n_g)
            add_fault(rng, rows, fault, n_q, n_g)
            want = oracle_verdict(rows, n_q, n_g)
            assert (want is None) == (FAULTS[fault] is None), (fault, want)
            assert FAULTS[fault] is None or FAULTS[fault] in want
            assert whole_array_verdict(rows, n_q, n_g) == want

    def test_two_faults_name_the_first_row_with_one(self):
        """Per-row checks stop at the first faulty row, and within a row
        run in a fixed order: the whole-array ones name the same fault."""
        rng = np.random.default_rng(99)
        faults = sorted(f for f in FAULTS if FAULTS[f] and f != "mismatched_lengths")
        for _ in range(600):
            n_q, n_g = int(rng.integers(3, 7)), int(rng.integers(2, 9))
            rows = fuzz_rows(rng, n_q, n_g)
            for fault in rng.choice(faults, size=2):
                add_fault(rng, rows, fault, n_q, n_g)
            assert whole_array_verdict(rows, n_q, n_g) == oracle_verdict(rows, n_q, n_g)

    def test_valid_ranking_passes(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rows = fuzz_rows(rng, 5, 6)
            assert oracle_verdict(rows, 5, 6) is None
            assert whole_array_verdict(rows, 5, 6) is None


class TestBuiltListsPassTheCheckedConstructor:
    """rank, refine_ranking and k_reciprocal_rerank build their lists
    unchecked; each passes the public constructor unchanged."""

    @staticmethod
    def assert_passes_unchanged(built, queries, gallery):
        arrays = (built.query_index, built.offsets, built.gallery, built.scores)
        checked = RankingList(*arrays)
        _check_indices(checked, queries.n, gallery.n)
        for mine, theirs in zip(arrays, (checked.query_index, checked.offsets,
                                         checked.gallery, checked.scores)):
            assert not mine.flags.writeable
            assert mine.dtype == theirs.dtype and mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()

    @pytest.mark.parametrize("instance", ["retrieval_blobs", "duplicate_rows"])
    def test_rank_refine_and_k_reciprocal(self, instance):
        if instance == "retrieval_blobs":  # the benchmark's retrieval input
            queries, gallery, manifest = blob_split(1, 120)
            top_n, sigma, kr = 50, 0.1, (20, 6, 0.3)
        else:  # every gallery row three times: ties everywhere
            queries, gallery, manifest = tie_instance(instance)
            top_n, sigma, kr = 5, 0.2, (4, 2, 0.3)
        plain = rank(queries, gallery, manifest)
        for built in (plain, refine_ranking(queries, plain, gallery, top_n, sigma),
                      k_reciprocal_rerank(queries, gallery, manifest, *kr)):
            self.assert_passes_unchanged(built, queries, gallery)


def payload_ranking(ranking, manifest):
    """The JSON payload that save_ranking wrote through write_json before
    it streamed, kept verbatim but for its name as the reference."""
    query_recs = manifest.subset("query")
    gallery_recs = manifest.subset("gallery")
    return {
        "queries": [
            {
                "query_index": qr.query_index,
                "sample_id": query_recs[qr.query_index].sample_id,
                "items": [
                    {
                        "gallery_index": int(g),
                        "sample_id": gallery_recs[int(g)].sample_id,
                        "score": float(s),
                    }
                    for g, s in zip(qr.gallery_indices, qr.scores)
                ],
            }
            for qr in ranking.queries
        ]
    }


def save_instance(name):
    if name == "ranked_blobs":
        queries, gallery, manifest = blob_split(3, 12)
        return rank(queries, gallery, manifest), manifest
    manifest = eval_manifest([(0, 0), (1, 0)], [(0, 1), (1, 1), (2, 0)])
    if name == "empty_items":
        # with awkward floats too: a long repr, a signed zero, the least subnormal
        return ranking_of([(1, [], []), (0, [2, 0, 1], [0.1 + 0.2, -0.0, 5e-324])]), manifest
    if name == "non_ascii_ids":
        records = [SampleRecord(sid, ident, cam, split) for sid, ident, cam, split in (
            ("q-Zoë", 0, 0, "query"), ("q-東京", 1, 0, "query"), ('g-"quoted"\\', 0, 1, "gallery"),
            ("g-\U0001f600", 1, 1, "gallery"), ("g-\u00e9\u0301", 2, 0, "gallery"))]
        manifest = DatasetManifest(tuple(records))
        return ranking_of([(0, [1, 0, 2], [0.5, 0.25, -1.5]), (1, [2, 1], [1.0, 0.0])]), manifest
    return ranking_of([]), manifest


class TestSaveRankingStreams:
    @pytest.mark.parametrize("name", ["ranked_blobs", "empty_items", "non_ascii_ids", "no_queries"])
    def test_bytes_equal_the_json_payload(self, tmp_path, name):
        ranking, manifest = save_instance(name)
        save_ranking(ranking, manifest, tmp_path / "streamed.json")
        write_json(payload_ranking(ranking, manifest), tmp_path / "payload.json")
        assert (tmp_path / "streamed.json").read_bytes() == (tmp_path / "payload.json").read_bytes()
        if len(ranking):
            assert_bitwise(load_ranking(tmp_path / "streamed.json"), ranking)
