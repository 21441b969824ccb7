import math

import numpy as np
import pytest

from conftest import central_diff, rel_error
from sftlab.data import (
    DatasetManifest,
    FeatureMatrix,
    Partition,
    SampleRecord,
    SyntheticSpec,
    generate_synthetic,
)
from sftlab.experiment import ABLATION_CELLS, ExperimentConfig, make_dataset, toy_train_config
from sftlab.graphcut import affinity_class_means, ncut_loss
from sftlab.rng import Xoshiro256StarStar
from sftlab.training import (
    AmSoftmaxClassifier,
    EmbedModel,
    Grads,
    PKBatch,
    TrainConfig,
    am_softmax_loss,
    am_softmax_value,
    forward_backward,
    load_train_config,
    lr_at,
    sample_pk,
    train,
)
from sftlab.transform import (
    ZeroNormRowError,
    affinity,
    sft_backward,
    sft_transform_array,
    transition,
)
from training_oracle import training_loss


def plain_softmax_ce(x, y, weight, scale):
    """Independent normalized-softmax cross entropy (no margin)."""
    feat = x / np.linalg.norm(x, axis=1, keepdims=True)
    w = weight / np.linalg.norm(weight, axis=1, keepdims=True)
    logits = scale * feat @ w.T
    total = 0.0
    for i, label in enumerate(y):
        total += math.log(np.exp(logits[i]).sum()) - logits[i, label]
    return total / len(y)


class TestAmSoftmax:
    def test_orthogonal_features_give_uniform_loss(self):
        # class weights live in the first two dims, features in the third
        weight = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        clf = AmSoftmaxClassifier(weight, margin=0.0, scale=1.0)
        x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        loss, _, _ = am_softmax_loss(x, np.array([0, 2]), clf)
        assert abs(loss - math.log(3)) < 1e-12

    def test_zero_margin_reduces_to_plain_softmax(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 5))
        y = np.array([0, 1, 2, 3, 0, 1])
        clf = AmSoftmaxClassifier(rng.normal(size=(4, 5)), margin=0.0, scale=7.0)
        loss, _, _ = am_softmax_loss(x, y, clf)
        assert abs(loss - plain_softmax_ce(x, y, clf.weight, 7.0)) < 1e-12

    def test_feature_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 6))
        y = np.array([0, 2, 1, 3, 2])
        clf = AmSoftmaxClassifier(rng.normal(size=(4, 6)), margin=0.3, scale=15.0)
        _, grad_x, _ = am_softmax_loss(x, y, clf)
        numeric = central_diff(lambda v: am_softmax_value(v, y, clf), x)
        assert rel_error(grad_x, numeric) < 1e-5

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6))
        y = np.array([0, 2, 1, 3, 2])
        clf = AmSoftmaxClassifier(rng.normal(size=(4, 6)), margin=0.3, scale=15.0)
        _, _, grad_w = am_softmax_loss(x, y, clf)
        numeric = central_diff(
            lambda w: am_softmax_value(x, y, AmSoftmaxClassifier(w, 0.3, 15.0)),
            clf.weight,
        )
        assert rel_error(grad_w, numeric) < 1e-5

    def test_label_out_of_range(self):
        clf = AmSoftmaxClassifier(np.eye(3))
        with pytest.raises(ValueError, match="out of range"):
            am_softmax_loss(np.eye(3), np.array([0, 1, 3]), clf)

    def test_zero_norm_feature_row(self):
        clf = AmSoftmaxClassifier(np.eye(2))
        with pytest.raises(ZeroNormRowError):
            am_softmax_loss(np.array([[1.0, 0.0], [0.0, 0.0]]), np.array([0, 1]), clf)


class TestLrSchedule:
    def test_default_schedule_boundaries(self):
        cfg = TrainConfig()
        assert lr_at(0, cfg) == pytest.approx(0.001, abs=1e-15)
        assert lr_at(20, cfg) == pytest.approx(0.1, abs=1e-15)
        assert lr_at(100, cfg) == pytest.approx(0.001, rel=1e-12)

    def test_warmup_midpoint(self):
        assert lr_at(10, TrainConfig()) == pytest.approx(0.0505, abs=1e-15)

    def test_first_decay(self):
        assert lr_at(80, TrainConfig()) == pytest.approx(0.01, rel=1e-12)

    def test_out_of_range(self):
        cfg = TrainConfig(epochs=10)
        with pytest.raises(ValueError):
            lr_at(10, cfg)
        with pytest.raises(ValueError):
            lr_at(-1, cfg)


def manifest_for(counts, cameras=2):
    """counts: {identity: num_train_samples}."""
    recs = []
    for ident, num in counts.items():
        for j in range(num):
            recs.append(SampleRecord(f"{ident}_{j}", ident, j % cameras, "train"))
    return DatasetManifest(tuple(recs))


class TestSamplePK:
    def test_exact_cover(self):
        manifest = manifest_for({0: 3, 1: 3})
        batch = sample_pk(manifest, 2, 3, Xoshiro256StarStar(1))
        assert sorted(batch.indices.tolist()) == list(range(6))
        assert sorted(batch.identities.tolist()) == [0, 0, 0, 1, 1, 1]

    def test_short_identity_repeats_with_replacement(self):
        manifest = manifest_for({0: 1, 1: 4})
        batch = sample_pk(manifest, 2, 4, Xoshiro256StarStar(2))
        rows_of_0 = batch.indices[batch.identities == 0]
        assert len(rows_of_0) == 4
        assert set(rows_of_0.tolist()) == {0}

    def test_deterministic(self):
        manifest = manifest_for({0: 5, 1: 5, 2: 5, 3: 5})
        b1 = sample_pk(manifest, 2, 3, Xoshiro256StarStar(9))
        b2 = sample_pk(manifest, 2, 3, Xoshiro256StarStar(9))
        np.testing.assert_array_equal(b1.indices, b2.indices)

    def test_batch_structure(self):
        manifest = manifest_for({i: 6 for i in range(8)})
        batch = sample_pk(manifest, 4, 3, Xoshiro256StarStar(3))
        identities, counts = np.unique(batch.identities, return_counts=True)
        assert len(identities) == 4
        assert all(c == 3 for c in counts)
        # without replacement within an identity that has enough samples
        assert len(set(batch.indices.tolist())) == 12

    def test_too_few_identities(self):
        manifest = manifest_for({0: 5, 1: 5})
        with pytest.raises(ValueError, match="identities"):
            sample_pk(manifest, 3, 2, Xoshiro256StarStar(0))


def small_setup(seed=3, n=8, input_dim=8, hidden=6, embed=5, num_classes=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, input_dim))
    y = np.repeat(np.arange(num_classes), n // num_classes)
    model = EmbedModel.init(input_dim, hidden, embed, Xoshiro256StarStar(seed))
    clf = AmSoftmaxClassifier.init(num_classes, embed, Xoshiro256StarStar(seed + 1))
    clf_orig = AmSoftmaxClassifier.init(num_classes, embed, Xoshiro256StarStar(seed + 2))
    return x, y, model, clf, clf_orig


def frozen_transition_loss(x, y, model, clf, cfg, clf_orig, frozen):
    """Objective with the transition matrix pinned to `frozen` (the
    detached-transition gradient differentiates exactly this function)."""
    emb = model.embed(x)
    z = frozen @ emb if cfg.use_sft else emb
    total = am_softmax_value(z, y, clf)
    if cfg.deep_supervision == "shared":
        total += cfg.deep_supervision_weight * am_softmax_value(emb, y, clf)
    elif cfg.deep_supervision == "unshared":
        total += cfg.deep_supervision_weight * am_softmax_value(emb, y, clf_orig)
    return total


def check_all_param_grads(x, y, model, clf, cfg, clf_orig, tol=1e-4):
    _, _, grads = forward_backward(x, y, model, clf, cfg, clf_orig)
    params = model.weights + model.biases + [clf.weight]
    analytic = [gw for gw, _ in grads.model] + [gb for _, gb in grads.model] + [grads.clf]
    if cfg.objective == "sft" and cfg.deep_supervision == "unshared":
        params.append(clf_orig.weight)
        analytic.append(grads.clf_orig)
    if cfg.grad_through_transition or not cfg.use_sft or cfg.objective == "ncut":
        objective = lambda: training_loss(x, y, model, clf, cfg, clf_orig)
    else:
        frozen = transition(affinity(FeatureMatrix(model.embed(x)), cfg.sigma)).data
        objective = lambda: frozen_transition_loss(x, y, model, clf, cfg, clf_orig, frozen)
    worst = 0.0
    for param, grad in zip(params, analytic):
        numeric = central_diff(lambda _: objective(), param, step=1e-6)
        worst = max(worst, rel_error(grad, numeric))
    assert worst < tol, f"gradient mismatch {worst:.2e}"


class TestForwardBackward:
    @pytest.mark.parametrize("mode", ["off", "shared", "unshared"])
    @pytest.mark.parametrize("through", [True, False])
    def test_gradients_all_modes(self, mode, through):
        x, y, model, clf, clf_orig = small_setup()
        cfg = TrainConfig(p=4, k=2, sigma=0.5, deep_supervision=mode,
                          grad_through_transition=through, hidden_dim=6, embed_dim=5)
        check_all_param_grads(x, y, model, clf, cfg, clf_orig)

    def test_gradients_ncut_objective(self):
        x, y, model, clf, clf_orig = small_setup(seed=5)
        cfg = TrainConfig(p=4, k=2, sigma=0.5, objective="ncut",
                          hidden_dim=6, embed_dim=5)
        check_all_param_grads(x, y, model, clf, cfg, clf_orig)

    def test_gradients_baseline_no_transform(self):
        x, y, model, clf, clf_orig = small_setup(seed=7)
        cfg = TrainConfig(p=4, k=2, use_sft=False, deep_supervision="off",
                          hidden_dim=6, embed_dim=5)
        check_all_param_grads(x, y, model, clf, cfg, clf_orig)

    def test_identity_transform_equalizes_both_losses(self):
        x, y, model, clf, clf_orig = small_setup()
        cfg = TrainConfig(p=4, k=2, deep_supervision="shared", use_sft=False,
                          hidden_dim=6, embed_dim=5)
        loss_orig, loss_sft, _ = forward_backward(x, y, model, clf, cfg)
        assert abs(loss_orig - loss_sft) < 1e-9

    def test_identical_features_hit_transform_fixed_point(self):
        x = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (4, 1))
        y = np.array([0, 0, 1, 1])
        model = EmbedModel.init(4, 0, 3, Xoshiro256StarStar(1))
        clf = AmSoftmaxClassifier.init(2, 3, Xoshiro256StarStar(2))
        cfg = TrainConfig(p=2, k=2, sigma=0.1, deep_supervision="off", hidden_dim=0, embed_dim=3)
        loss_orig, loss_sft, _ = forward_backward(x, y, model, clf, cfg)
        emb = model.embed(x)
        np.testing.assert_allclose(sft_transform_array(emb, 0.1), emb, atol=1e-12)
        assert abs(loss_sft - am_softmax_value(emb, y, clf)) < 1e-12
        assert abs(loss_sft - loss_orig) < 1e-12

    def test_shared_gradient_is_sum_of_both_paths(self):
        x, y, model, clf, _ = small_setup(seed=11)
        cfg = TrainConfig(p=4, k=2, sigma=0.4, deep_supervision="shared",
                          hidden_dim=6, embed_dim=5)
        _, _, grads = forward_backward(x, y, model, clf, cfg)
        emb = model.embed(x)
        z = sft_transform_array(emb, cfg.sigma)
        _, _, grad_sft_path = am_softmax_loss(z, y, clf)
        _, _, grad_orig_path = am_softmax_loss(emb, y, clf)
        np.testing.assert_allclose(
            grads.clf, grad_sft_path + grad_orig_path, atol=1e-12
        )

    @pytest.mark.parametrize("mode", ["off", "shared", "unshared"])
    def test_out_of_range_labels_rejected(self, mode):
        x, y, model, clf, clf_orig = small_setup()
        cfg = TrainConfig(p=4, k=2, deep_supervision=mode, hidden_dim=6, embed_dim=5)
        for bad in (np.where(y == 3, 4, y), np.where(y == 0, -1, y)):
            with pytest.raises(ValueError, match="out of range"):
                forward_backward(x, bad, model, clf, cfg, clf_orig)
        if mode == "unshared":
            small = AmSoftmaxClassifier(clf_orig.weight[:3])
            with pytest.raises(ValueError, match="out of range"):
                forward_backward(x, y, model, clf, cfg, small)

    def test_unshared_requires_second_classifier(self):
        x, y, model, clf, _ = small_setup()
        cfg = TrainConfig(p=4, k=2, deep_supervision="unshared", hidden_dim=6, embed_dim=5)
        with pytest.raises(ValueError):
            forward_backward(x, y, model, clf, cfg, None)


class TestTrainLoop:
    def test_zero_epochs_returns_initial_parameters(self):
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=2))
        cfg = TrainConfig(p=2, k=2, epochs=0, hidden_dim=6, embed_dim=4, seed=13)
        result = train(feats, manifest, cfg)
        rng = Xoshiro256StarStar(13)
        expected_model = EmbedModel.init(8, 6, 4, rng)
        expected_clf = AmSoftmaxClassifier.init(4, 4, rng, cfg.margin, cfg.scale)
        for got, want in zip(result.model.weights, expected_model.weights):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(result.classifier.weight, expected_clf.weight)
        assert result.log == []

    def test_loss_decreases_on_separable_blobs(self):
        spec = SyntheticSpec(2, 8, 6, intra_class_spread=0.05,
                             inter_class_separation=4.0,
                             topology="gaussian_blobs", seed=4)
        feats, manifest = generate_synthetic(spec)
        cfg = TrainConfig(p=2, k=4, epochs=30, warmup_epochs=5, decay_epochs=(20,),
                          base_lr=0.05, hidden_dim=8, embed_dim=4, seed=1)
        result = train(feats, manifest, cfg)
        first = float(result.log[0].split("\t")[3])
        last = float(result.log[-1].split("\t")[3])
        assert last < first

    def test_bit_identical_logs_for_same_seed(self):
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=6))
        cfg = TrainConfig(p=2, k=3, epochs=5, warmup_epochs=2, decay_epochs=(4,),
                          hidden_dim=16, embed_dim=4, seed=21, diagnostics=True)
        assert train(feats, manifest, cfg).log == train(feats, manifest, cfg).log

    def test_generates_from_spec(self):
        spec = SyntheticSpec(4, 6, 8, seed=2)
        cfg = TrainConfig(p=2, k=2, epochs=1, hidden_dim=6, embed_dim=4)
        result = train(spec, None, cfg)
        assert len(result.log) == 1

    def test_transformed_feature_depends_on_batch_companions(self):
        rng = np.random.default_rng(3)
        emb = rng.normal(size=(8, 5))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        with_first = sft_transform_array(emb[[0, 1, 2, 3]], 0.2)[0]
        with_second = sft_transform_array(emb[[0, 4, 5, 6]], 0.2)[0]
        assert not np.array_equal(with_first, with_second)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_bad_sigma(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive"):
            TrainConfig(sigma=sigma)

    def test_non_finite_loss_raises(self):
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=2))
        # the first epoch runs at warmup_start_lr, the second at ~5e298
        cfg = TrainConfig(p=2, k=2, epochs=3, base_lr=1e300, hidden_dim=6, embed_dim=4)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged in epoch 1"):
            train(feats, manifest, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(p=1)
        with pytest.raises(ValueError):
            TrainConfig(k=1)
        with pytest.raises(ValueError):
            TrainConfig(deep_supervision="maybe")
        with pytest.raises(ValueError):
            TrainConfig(momentum=1.0)


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# toy settings\n"
            "p = 4\n"
            "k = 2\n"
            "sigma = 0.25\n"
            "deep_supervision = unshared\n"
            "use_sft = false\n"
            "decay_epochs = 10,20\n"
        )
        cfg = load_train_config(path)
        assert (cfg.p, cfg.k) == (4, 2)
        assert cfg.sigma == 0.25
        assert cfg.deep_supervision == "unshared"
        assert cfg.use_sft is False
        assert cfg.decay_epochs == (10, 20)
        assert cfg.momentum == 0.9  # untouched default

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning = fast\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_train_config(path)

    @pytest.mark.parametrize("line", ["decay_epochs = 1.5", "epochs = ten", "sigma = x",
                                      "use_sft = maybe"])
    def test_bad_value_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"p = 4\n{line}\n")
        with pytest.raises(ValueError, match="^config line 2: "):
            load_train_config(path)


def reference_sample_pk(manifest, p, k, rng):
    """sample_pk as it was before the identity index moved onto the
    manifest: the index is rebuilt for every batch."""
    by_identity = {}
    for i, rec in enumerate(manifest.records):
        if rec.split == "train":
            by_identity.setdefault(rec.identity, []).append(i)
    identities = sorted(by_identity)
    if len(identities) < p:
        raise ValueError(f"need {p} train identities, manifest has {len(identities)}")
    chosen = [identities[pos] for pos in rng.sample(len(identities), p)]
    indices, labels = [], []
    for ident in chosen:
        rows = by_identity[ident]
        if len(rows) >= k:
            picks = rng.sample(len(rows), k)
        else:
            picks = [rng.randrange(len(rows)) for _ in range(k)]
        indices.extend(rows[j] for j in picks)
        labels.extend([ident] * k)
    return PKBatch(np.array(indices), np.array(labels))


def reference_forward_backward(x, labels, model, clf, cfg, clf_orig=None):
    """forward_backward composed from the public functions only: the
    transform's forward and backward each build the transition matrix, and
    every margin-softmax term runs its own pass."""
    labels = np.asarray(labels, dtype=np.int64)
    emb, cache = model.forward(np.asarray(x, dtype=np.float64))

    if cfg.objective == "ncut":
        graph_loss, grad_emb_graph = ncut_loss(FeatureMatrix(emb), Partition(labels), cfg.sigma)
        ce_loss, grad_emb_ce, grad_clf = am_softmax_loss(emb, labels, clf)
        grad_emb = grad_emb_graph.data + cfg.ncut_ce_weight * grad_emb_ce
        grads = Grads(model.backward(cache, grad_emb), cfg.ncut_ce_weight * grad_clf)
        return ce_loss, graph_loss, grads

    z = sft_transform_array(emb, cfg.sigma) if cfg.use_sft else emb
    loss_sft, grad_z, grad_clf_sft = am_softmax_loss(z, labels, clf)
    if cfg.use_sft:
        grad_emb = sft_backward(emb, cfg.sigma, grad_z, cfg.grad_through_transition)
    else:
        grad_emb = grad_z

    mode = cfg.deep_supervision
    weight = cfg.deep_supervision_weight
    clf_grad_orig = None
    if mode == "off":
        loss_orig = am_softmax_value(emb, labels, clf)
        grad_clf = grad_clf_sft
    elif mode == "shared":
        loss_orig, grad_emb_orig, grad_clf_orig_path = am_softmax_loss(emb, labels, clf)
        grad_emb = grad_emb + weight * grad_emb_orig
        grad_clf = grad_clf_sft + weight * grad_clf_orig_path
    else:
        loss_orig, grad_emb_orig, grad_unshared = am_softmax_loss(emb, labels, clf_orig)
        grad_emb = grad_emb + weight * grad_emb_orig
        grad_clf = grad_clf_sft
        clf_grad_orig = weight * grad_unshared
    return loss_orig, loss_sft, Grads(model.backward(cache, grad_emb), grad_clf, clf_grad_orig)


def reference_train(features, manifest, cfg):
    """The training loop with separately allocated parameters, one momentum
    update per array and a class-id dictionary lookup per batch."""
    train_idx = manifest.indices("train")
    identities = sorted({manifest.records[i].identity for i in train_idx})
    class_of = {ident: c for c, ident in enumerate(identities)}

    rng = Xoshiro256StarStar(cfg.seed)
    model = EmbedModel.init(features.d, cfg.hidden_dim, cfg.embed_dim, rng)
    clf = AmSoftmaxClassifier.init(len(identities), cfg.embed_dim, rng, cfg.margin, cfg.scale)
    clf_orig = None
    if cfg.objective == "sft" and cfg.deep_supervision == "unshared":
        clf_orig = AmSoftmaxClassifier.init(len(identities), cfg.embed_dim, rng, cfg.margin, cfg.scale)

    params = [w for w in model.weights] + [b for b in model.biases] + [clf.weight]
    if clf_orig is not None:
        params.append(clf_orig.weight)
    velocity = [np.zeros_like(p) for p in params]

    batches = cfg.batches_per_epoch or max(1, len(train_idx) // (cfg.p * cfg.k))
    log = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        sum_orig = 0.0
        sum_sft = 0.0
        for _ in range(batches):
            batch = reference_sample_pk(manifest, cfg.p, cfg.k, rng)
            x = features.data[batch.indices]
            y = np.array([class_of[i] for i in batch.identities])
            loss_orig, loss_sft, grads = reference_forward_backward(x, y, model, clf, cfg, clf_orig)
            sum_orig += loss_orig
            sum_sft += loss_sft
            flat = (
                [gw for gw, _ in grads.model]
                + [gb for _, gb in grads.model]
                + [grads.clf]
                + ([grads.clf_orig] if clf_orig is not None else [])
            )
            for param, vel, grad in zip(params, velocity, flat):
                vel *= cfg.momentum
                vel -= lr * grad
                param += vel
        line = f"{epoch}\t{lr:.12g}\t{sum_orig / batches:.12g}\t{sum_sft / batches:.12g}"
        if cfg.diagnostics:
            emb = model.embed(features.data[train_idx])
            labels = Partition(np.array([class_of[manifest.records[i].identity] for i in train_idx]))
            intra, inter = affinity_class_means(affinity(FeatureMatrix(emb), cfg.sigma), labels)
            graph_val, _ = ncut_loss(FeatureMatrix(emb), labels, cfg.sigma)
            line += f"\t{intra:.12g}\t{inter:.12g}\t{graph_val:.12g}"
        log.append(line)
    return model, clf, clf_orig, log


class TestReferenceTrainer:
    """train() must reproduce the straightforward loop bit for bit."""

    @pytest.fixture(scope="class")
    def dataset(self):
        # 8 identities with 8 train rows each, plus query/gallery rows that
        # sampling must skip
        return make_dataset(ExperimentConfig(identities=8), seed=1)

    @pytest.mark.parametrize("p,k", [(4, 4), (3, 10)])  # 10 > 8 rows: with replacement
    @pytest.mark.parametrize("cell", [name for name, _ in ABLATION_CELLS])
    def test_ablation_cells_bit_identical(self, dataset, cell, p, k):
        features, manifest = dataset
        cfg = toy_train_config(**dict(ABLATION_CELLS)[cell], p=p, k=k, epochs=4,
                               warmup_epochs=2, decay_epochs=(3,), diagnostics=True, seed=5)
        got = train(features, manifest, cfg)
        model, clf, clf_orig, log = reference_train(features, manifest, cfg)
        assert got.log == log
        for mine, theirs in zip(got.model.weights + got.model.biases, model.weights + model.biases):
            assert np.array_equal(mine, theirs)
        assert len(got.model.weights) == len(model.weights) == 2
        assert np.array_equal(got.classifier.weight, clf.weight)
        assert (got.classifier_orig is None) == (clf_orig is None)
        if clf_orig is not None:
            assert np.array_equal(got.classifier_orig.weight, clf_orig.weight)

    def test_sampler_matches_per_batch_index(self, dataset):
        _, manifest = dataset
        fast, slow = Xoshiro256StarStar(8), Xoshiro256StarStar(8)
        for p, k in [(4, 4), (3, 10), (8, 8)] * 3:
            got, want = sample_pk(manifest, p, k, fast), reference_sample_pk(manifest, p, k, slow)
            np.testing.assert_array_equal(got.indices, want.indices)
            np.testing.assert_array_equal(got.identities, want.identities)
        assert fast.next_u64() == slow.next_u64()
