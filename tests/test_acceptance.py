"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(visible with `pytest -s tests/test_acceptance.py`) and then asserts.
Criteria 5-7 share one deterministic ablation run over the default
experiment configuration (5 fixed seeds), so the whole module finishes
in well under a minute of compute plus the ablation's ~15 seconds.
"""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from conftest import central_diff, rel_error
from sftlab.cli import main as cli_main
from sftlab.data import FeatureMatrix
from sftlab.experiment import ExperimentConfig, run_experiment, write_report
from reference import (am_softmax_loss, am_softmax_value, cut, forward_backward, ranking_of,
                       stationary, transition, volume)
from sftlab.graphcut import class_ncut_escape, ncut_loss
from sftlab.ranking import evaluate, k_reciprocal_rerank, rank, refine_ranking
from sftlab.rng import Xoshiro256StarStar
from sftlab.training import EmbedModel, TrainConfig, _classifier_init
from sftlab.transform import _transition_from_features, affinity, sft_backward, sft_transform_array

from test_ranking import (
    ADVERSARIAL_GALLERY,
    ADVERSARIAL_QUERY,
    eval_manifest,
    oracle_refine_scores,
)
from test_training import frozen_transition_loss
from training_oracle import training_loss


def verdict(criterion: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def ablation():
    """One full ablation at the default toy profile, shared by criteria 5-7."""
    return run_experiment(ExperimentConfig())


def random_partition(rng, n, num_classes):
    """Class ids of n nodes, every one of the num_classes classes non-empty."""
    labels = rng.integers(0, num_classes, size=n)
    labels[:num_classes] = np.arange(num_classes)
    return labels


def test_criterion_1_algebraic_identities():
    rng = np.random.default_rng(2024)
    checked = 0
    worst = {"rows": 0.0, "softmax": 0.0, "escape": 0.0, "identity": 0.0, "fixed_point": 0.0}
    for sigma in (0.02, 0.1, 1.0):
        for _ in range(36):
            n = int(rng.integers(2, 13))
            d = int(rng.integers(1, 6))
            x = FeatureMatrix(rng.normal(size=(n, d)))
            w = affinity(x, sigma)
            # the transform's transition matrix, beside D^-1 W of the graph
            trans = _transition_from_features(x.data, sigma)[2]
            worst["rows"] = max(worst["rows"], float(np.abs(trans.sum(axis=1) - 1.0).max()))

            unit = x.data / np.linalg.norm(x.data, axis=1, keepdims=True)
            logits = np.clip(unit @ unit.T, -1.0, 1.0) / sigma
            shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
            softmax = shifted / shifted.sum(axis=1, keepdims=True)
            for walk in (trans, transition(w)):
                worst["softmax"] = max(worst["softmax"], float(np.abs(walk - softmax).max()))

            num_classes = 2 if n < 4 else 3
            labels = random_partition(rng, n, num_classes)
            ncuts, escapes, escapes_rest = class_ncut_escape(w, labels)
            for label in range(num_classes):
                comp = np.where(labels == label, 0, 1)
                via_cut = cut(w, comp, 0, 1) / volume(w, comp, 0)
                worst["escape"] = max(worst["escape"], abs(escapes[label] - via_cut))
                worst["identity"] = max(worst["identity"],
                                        abs(ncuts[label] - (escapes[label] + escapes_rest[label])))

            pi = stationary(w)[0]
            worst["fixed_point"] = max(worst["fixed_point"], float(np.abs(pi @ trans - pi).max()))
            checked += 1
    passed = (
        checked >= 100
        and worst["rows"] < 1e-9
        and worst["softmax"] < 1e-12
        and worst["escape"] < 1e-12
        and worst["identity"] < 1e-12
        and worst["fixed_point"] < 1e-10
    )
    verdict("1 algebraic identities", passed,
            f"{checked} graphs, residuals rows={worst['rows']:.1e} "
            f"softmax={worst['softmax']:.1e} escape={worst['escape']:.1e} "
            f"ncut-identity={worst['identity']:.1e} stationary={worst['fixed_point']:.1e}")


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(77)
    worst_unit = 0.0
    # transform backward
    for i in range(20):
        n, d = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        sigma = float(rng.choice([0.05, 0.2, 0.7]))
        x = rng.normal(size=(n, d))
        g = rng.normal(size=(n, d))
        analytic = sft_backward(x, sigma, g)
        numeric = central_diff(lambda v: float((sft_transform_array(v, sigma) * g).sum()), x)
        worst_unit = max(worst_unit, rel_error(analytic, numeric))
    # margin softmax, both gradients
    for i in range(20):
        n, d, c = int(rng.integers(3, 8)), int(rng.integers(2, 6)), int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        y = rng.integers(0, c, size=n)
        clf = rng.normal(size=(c, d))
        _, gx, gw = am_softmax_loss(x, y, clf)
        worst_unit = max(worst_unit, rel_error(gx, central_diff(
            lambda v: am_softmax_value(v, y, clf), x)))
        worst_unit = max(worst_unit, rel_error(gw, central_diff(
            lambda w: am_softmax_value(x, y, w), clf)))
    # graph-cut loss
    for i in range(20):
        n, d = int(rng.integers(4, 9)), int(rng.integers(2, 5))
        x = rng.normal(size=(n, d))
        y = random_partition(rng, n, 2)
        _, grad = ncut_loss(x, y, 0.5)
        numeric = central_diff(lambda v: ncut_loss(v, y, 0.5)[0], x)
        worst_unit = max(worst_unit, rel_error(grad, numeric))

    # end-to-end, every method and both transition-gradient settings
    worst_full = 0.0
    combos = [
        dict(method="sft", grad_through_transition=True),
        dict(method="sft", grad_through_transition=False),
        dict(method="sft+ds_shared", grad_through_transition=True),
        dict(method="sft+ds_shared", grad_through_transition=False),
        dict(method="sft+ds_unshared", grad_through_transition=True),
        dict(method="sft+ds_unshared", grad_through_transition=False),
        dict(method="baseline"),
        dict(method="ncut"),
    ]
    instances = 0
    for combo in combos:
        for seed in (1, 2, 3):
            cfg = TrainConfig(p=4, k=2, sigma=0.5, hidden_dim=12, embed_dim=5, **combo)
            x = np.random.default_rng(seed).normal(size=(8, 7))
            y = np.repeat(np.arange(4), 2)
            model = EmbedModel.init(7, 12, 5, Xoshiro256StarStar(seed))
            clf = _classifier_init(4, 5, Xoshiro256StarStar(seed + 10))
            clf_orig = _classifier_init(4, 5, Xoshiro256StarStar(seed + 20))
            _, _, grads = forward_backward(x, y, model, clf, cfg, clf_orig)
            params = model.parameters() + [clf]
            if cfg.method == "sft+ds_unshared":
                params.append(clf_orig)
            if cfg.method.startswith("sft") and not cfg.grad_through_transition:
                frozen = _transition_from_features(model.embed(x), cfg.sigma)[2]
                objective = lambda: frozen_transition_loss(x, y, model, clf, cfg, clf_orig, frozen)
            else:
                objective = lambda: training_loss(x, y, model, clf, cfg, clf_orig)
            for param, grad in zip(params, grads, strict=True):
                numeric = central_diff(lambda _: objective(), param, step=1e-6)
                worst_full = max(worst_full, rel_error(grad, numeric))
            instances += 1
    passed = worst_unit < 1e-5 and worst_full < 1e-4 and instances >= 20
    verdict("2 gradient suite", passed,
            f"unit-op rel err {worst_unit:.1e} (<1e-5), "
            f"end-to-end rel err {worst_full:.1e} (<1e-4), {instances} full instances")


def _single_query_eval(relevance):
    gallery_specs = [(0 if rel else 5 + i, 1) for i, rel in enumerate(relevance)]
    manifest = eval_manifest([(0, 0)], gallery_specs)
    ranking = ranking_of([(0, np.arange(len(relevance)), np.linspace(1.0, 0.1, len(relevance)))])
    return evaluate(ranking, manifest).map_score


def test_criterion_3_metric_oracle():
    hand = _single_query_eval([1, 0, 1])
    hand_ok = hand == (1.0 + 2.0 / 3.0) / 2.0
    worst = 0.0
    patterns = 0
    for size in range(1, 11):
        for pattern in itertools.product([0, 1], repeat=size):
            if not any(pattern):
                continue
            hits, precisions = 0, []
            for k, rel in enumerate(pattern, start=1):
                if rel:
                    hits += 1
                    precisions.append(Fraction(hits, k))
            expected = float(sum(precisions) / len(precisions))
            worst = max(worst, abs(_single_query_eval(list(pattern)) - expected))
            patterns += 1
    passed = hand_ok and worst < 1e-12
    verdict("3 metric oracle", passed,
            f"hand AP {hand:.10f} exact={hand_ok}, {patterns} exhaustive patterns, "
            f"max err {worst:.1e}")


def test_criterion_4_equivariance():
    rng = np.random.default_rng(4)
    worst_perm = 0.0
    worst_rot = 0.0
    for _ in range(20):
        n, d = int(rng.integers(2, 9)), int(rng.integers(2, 7))
        sigma = float(rng.choice([0.05, 0.2, 1.0]))
        x = rng.normal(size=(n, d))
        perm = rng.permutation(n)
        worst_perm = max(worst_perm, float(np.abs(
            sft_transform_array(x[perm], sigma) - sft_transform_array(x, sigma)[perm]
        ).max()))
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        worst_rot = max(worst_rot, float(np.abs(
            sft_transform_array(x @ q, sigma) - sft_transform_array(x, sigma) @ q
        ).max()))
    passed = worst_perm < 1e-9 and worst_rot < 1e-9
    verdict("4 equivariance", passed,
            f"permutation {worst_perm:.1e}, rotation {worst_rot:.1e} (<1e-9)")


def test_criterion_5_ablation_ordering(ablation):
    med = {name: cell["median"]["map"] for name, cell in ablation["cells"].items()}
    row1, row2 = med["baseline"], med["sft"]
    row3, row4 = med["sft+ds_unshared"], med["sft+ds_shared"]
    ok_sft = row2 >= row1
    ok_shared = row4 >= row2
    ok_unshared = abs(row3 - row1) <= 0.05
    passed = ok_sft and ok_shared and ok_unshared
    verdict("5 ablation ordering", passed,
            f"baseline={row1:.4f} sft={row2:.4f} ds_unshared={row3:.4f} "
            f"ds_shared={row4:.4f}; sft>=base={ok_sft}, shared>=sft={ok_shared}, "
            f"|unshared-base|<=0.05={ok_unshared}")


def test_criterion_6_beats_ncut_loss(ablation):
    ours = ablation["cells"]["sft+ds_shared"]["median"]["map"]
    comparator = ablation["cells"]["ncut"]["median"]["map"]
    verdict("6 vs ncut-loss training", ours >= comparator,
            f"transform-trained mAP {ours:.4f} vs ncut-loss-trained {comparator:.4f}")


def test_criterion_7_affinity_suppression(ablation):
    # Criterion as stated: mean inter-identity affinity of raw test
    # embeddings, transform-trained model strictly below the baseline,
    # median over the 5 seeds.  See the per-seed values in the report.
    baseline = ablation["inter_affinity_median"]["baseline"]
    sft_trained = ablation["inter_affinity_median"]["sft+ds_shared"]
    verdict("7 affinity suppression", sft_trained < baseline,
            f"baseline inter-affinity {baseline:.6g}, transform-trained "
            f"{sft_trained:.6g}; strict reduction required")


def test_ablation_artifact_bytes_are_pinned(ablation, tmp_path):
    """The default ablation's report.json and table.tsv, byte for byte, as
    `sftlab experiment --mode ablation` writes them: a bit that moves in
    any trained cell shows here."""
    write_report(ablation, tmp_path)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("report.json", "table.tsv")}
    assert digests == {
        "report.json": "44371c8a124b2dee95664b7057e835ba9209d6df20ba169b7a69f65fe459703e",
        "table.tsv": "4e187887567586268dc7e9b6b72cc2140db7a8372ef6f2b3a31e43fbec1e3e62",
    }


def test_criterion_8_post_processing(ablation):
    rng = np.random.default_rng(8)
    # suffix beyond top_n is never modified
    suffix_exact = True
    for _ in range(10):
        queries = rng.normal(size=(2, 5))
        gallery = rng.normal(size=(9, 5))
        manifest = eval_manifest([(0, 0), (1, 0)], [(i % 3, 1) for i in range(9)])
        ranking = rank(FeatureMatrix(queries), FeatureMatrix(gallery), manifest)
        refined_all = refine_ranking(FeatureMatrix(queries), ranking, FeatureMatrix(gallery), 3, 0.2)
        for qr, refined in zip(ranking.queries, refined_all.queries):
            suffix_exact &= np.array_equal(refined.gallery_indices[3:], qr.gallery_indices[3:])
            suffix_exact &= np.array_equal(refined.scores[3:], qr.scores[3:])

    # constructed adversarial instance, checked against the independent oracle
    manifest = eval_manifest([(0, 0)], [(1, 1), (2, 1), (0, 1), (3, 1)])
    ranking = rank(FeatureMatrix(ADVERSARIAL_QUERY[None, :]),
                   FeatureMatrix(ADVERSARIAL_GALLERY), manifest)
    qr = ranking.queries[0]
    refined = refine_ranking(FeatureMatrix(ADVERSARIAL_QUERY[None, :]), ranking,
                             FeatureMatrix(ADVERSARIAL_GALLERY), 3, 0.1).queries[0]
    promoted = int(refined.gallery_indices[0]) == 2
    oracle = oracle_refine_scores(ADVERSARIAL_QUERY,
                                  ADVERSARIAL_GALLERY[qr.gallery_indices[:3]], 0.1)
    by_index = {int(g): s for g, s in zip(refined.gallery_indices[:3], refined.scores[:3])}
    oracle_match = all(
        abs(by_index[int(g)] - oracle[pos]) < 1e-12
        for pos, g in enumerate(qr.gallery_indices[:3])
    )

    # lambda=1 reproduces the plain ranking exactly
    queries = FeatureMatrix(rng.normal(size=(3, 6)))
    gallery = FeatureMatrix(rng.normal(size=(8, 6)))
    manifest = eval_manifest([(i, 0) for i in range(3)], [(i % 3, 1) for i in range(8)])
    plain = rank(queries, gallery, manifest)
    reranked = k_reciprocal_rerank(queries, gallery, manifest, k1=4, k2=2, lam=1.0)
    lambda_one = all(
        a.gallery_indices.tolist() == b.gallery_indices.tolist()
        for a, b in zip(plain.queries, reranked.queries)
    )
    passed = suffix_exact and promoted and oracle_match and lambda_one
    verdict("8 post-processing", passed,
            f"suffix-exact={suffix_exact}, adversarial-promotion={promoted}, "
            f"oracle-match={oracle_match}, lambda1-parity={lambda_one}")


def test_criterion_9_experiment_determinism(tmp_path):
    args = ["experiment", "--identities", "6", "--train-per-id", "4",
            "--query-per-id", "1", "--gallery-per-id", "3",
            "--seeds", "1,2", "--epochs", "10", "--p", "3", "--k", "4",
            "--hidden-dim", "16", "--embed-dim", "8",
            "--top-n", "4", "--kr-k1", "4", "--kr-k2", "2"]
    assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    same = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in ("report.json", "table.tsv")
    )
    verdict("9 determinism", same, "report.json and table.tsv byte-identical")
