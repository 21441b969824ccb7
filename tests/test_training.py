import copy
import math
import re
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from conftest import central_diff, rel_error
from reference import am_softmax_loss, am_softmax_value, forward_backward
from sftlab import training
from sftlab.data import (
    DatasetManifest,
    FeatureMatrix,
    SampleRecord,
    SyntheticSpec,
    generate_synthetic,
)
from sftlab.experiment import ExperimentConfig, make_dataset, toy_train_config
from sftlab.graphcut import affinity_class_means, ncut_loss
from sftlab.rng import Xoshiro256StarStar
from sftlab.training import (
    METHODS,
    MOMENTUM,
    EmbedModel,
    TrainConfig,
    _classifier_init,
    _pk_schedule,
    load_train_config,
    lr_at,
    sample_pk,
    train,
)
from sftlab.transform import (
    ZeroNormRowError,
    _transition_from_features,
    affinity,
    sft_backward,
    sft_transform_array,
)
from training_oracle import training_loss


def looped_am_softmax(x, y, weight):
    """Independent additive-margin softmax cross entropy, row by row, at the
    fixed recipe's margin 0.3 and scale 15."""
    feat = x / np.linalg.norm(x, axis=1, keepdims=True)
    w = weight / np.linalg.norm(weight, axis=1, keepdims=True)
    total = 0.0
    for row, label in zip(feat, y):
        logits = 15.0 * (w @ row)
        logits[label] -= 15.0 * 0.3
        total += math.log(np.exp(logits).sum()) - logits[label]
    return total / len(y)


class TestAmSoftmax:
    def test_orthogonal_features_give_closed_form_loss(self):
        # class weights live in the first two dims, features in the third:
        # every cosine is 0, so the label's logit is -15 * 0.3 and the others 0
        clf = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
        x = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])
        loss, _, _ = am_softmax_loss(x, np.array([0, 2]), clf)
        assert abs(loss - (math.log(2 + math.exp(-4.5)) + 4.5)) < 1e-12

    def test_matches_looped_margin_softmax(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(6, 5))
        y = np.array([0, 1, 2, 3, 0, 1])
        clf = rng.normal(size=(4, 5))
        loss, _, _ = am_softmax_loss(x, y, clf)
        assert abs(loss - looped_am_softmax(x, y, clf)) < 1e-12

    def test_feature_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(5, 6))
        y = np.array([0, 2, 1, 3, 2])
        clf = rng.normal(size=(4, 6))
        _, grad_x, _ = am_softmax_loss(x, y, clf)
        numeric = central_diff(lambda v: am_softmax_value(v, y, clf), x)
        assert rel_error(grad_x, numeric) < 1e-5

    def test_weight_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(5, 6))
        y = np.array([0, 2, 1, 3, 2])
        clf = rng.normal(size=(4, 6))
        _, _, grad_w = am_softmax_loss(x, y, clf)
        numeric = central_diff(lambda w: am_softmax_value(x, y, w), clf)
        assert rel_error(grad_w, numeric) < 1e-5

    def test_label_out_of_range(self):
        clf = np.eye(3)
        with pytest.raises(ValueError, match="out of range"):
            am_softmax_loss(np.eye(3), np.array([0, 1, 3]), clf)

    def test_zero_norm_feature_row(self):
        clf = np.eye(2)
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


def identities_of(manifest, indices):
    return np.array([manifest.records[i].identity for i in indices])


class TestSamplePK:
    def test_exact_cover(self):
        manifest = manifest_for({0: 3, 1: 3})
        indices = sample_pk(manifest, 2, 3, Xoshiro256StarStar(1))
        assert indices.dtype == np.int64
        assert sorted(indices.tolist()) == list(range(6))
        assert sorted(identities_of(manifest, indices).tolist()) == [0, 0, 0, 1, 1, 1]

    def test_short_identity_repeats_with_replacement(self):
        manifest = manifest_for({0: 1, 1: 4})
        indices = sample_pk(manifest, 2, 4, Xoshiro256StarStar(2))
        rows_of_0 = indices[identities_of(manifest, indices) == 0]
        assert len(rows_of_0) == 4
        assert set(rows_of_0.tolist()) == {0}

    def test_deterministic(self):
        manifest = manifest_for({0: 5, 1: 5, 2: 5, 3: 5})
        b1 = sample_pk(manifest, 2, 3, Xoshiro256StarStar(9))
        b2 = sample_pk(manifest, 2, 3, Xoshiro256StarStar(9))
        np.testing.assert_array_equal(b1, b2)

    def test_batch_structure(self):
        manifest = manifest_for({i: 6 for i in range(8)})
        indices = sample_pk(manifest, 4, 3, Xoshiro256StarStar(3))
        identities = identities_of(manifest, indices)
        # k rows of one identity after another
        assert (identities.reshape(4, 3) == identities[::3, None]).all()
        assert len(set(identities.tolist())) == 4
        # without replacement within an identity that has enough samples
        assert len(set(indices.tolist())) == 12

    def test_too_few_identities(self):
        manifest = manifest_for({0: 5, 1: 5})
        with pytest.raises(ValueError, match="identities"):
            sample_pk(manifest, 3, 2, Xoshiro256StarStar(0))


SCHEDULE_MANIFESTS = {
    # 8 identities with 8 train rows each, plus query/gallery rows to skip
    "equal": lambda: make_dataset(ExperimentConfig(identities=8), seed=1)[1],
    # 3 to 19 train rows: k = 10 draws some identities with replacement
    "unequal": lambda: manifest_for({i: 3 + 2 * i for i in range(9)}),
}


def trained_arrays(result):
    """Every trained array of a TrainResult, in the trainer's parameter order."""
    return result.model.parameters() + [c for c in (result.classifier, result.classifier_orig) if c is not None]


class CraftedWords(Xoshiro256StarStar):
    """An rng that serves a given word list, to next_u64 and words alike."""

    def __init__(self, stream):
        self.stream, self.pos = [int(w) for w in stream], 0

    def next_u64(self):
        self.pos += 1
        return self.stream[self.pos - 1]

    def words(self, count):
        self.pos += count
        return np.array(self.stream[self.pos - count:self.pos], dtype=np.uint64)

    def getstate(self):
        return (self.pos,)

    def setstate(self, state):
        (self.pos,) = state


class TestPKSchedule:
    # 7 steps draw their words one next_u64 at a time, 800 steps in lanes;
    # with k = 8 or 10 the unequal manifest has identities of fewer than k rows
    @pytest.mark.parametrize("p,k,steps", [
        pytest.param(4, 4, 7, id="4-4"), pytest.param(3, 10, 7, id="3-10"), pytest.param(8, 8, 7, id="8-8"),
        pytest.param(8, 8, 800, id="8-8-800"), pytest.param(3, 10, 800, id="3-10-800")])
    @pytest.mark.parametrize("kind", sorted(SCHEDULE_MANIFESTS))
    def test_equals_concatenated_draws(self, kind, p, k, steps):
        manifest = SCHEDULE_MANIFESTS[kind]()
        drawn, scheduled = Xoshiro256StarStar(4), Xoshiro256StarStar(4)
        want = [sample_pk(manifest, p, k, drawn) for _ in range(steps)]
        got = _pk_schedule(manifest, p, k, steps, scheduled)
        assert got.shape == (steps, p * k) and got.dtype == np.int64
        np.testing.assert_array_equal(got, np.stack(want))
        assert scheduled.getstate() == drawn.getstate()

    # a word sample_pk rejects, for an identity (bound 9) or a row (an odd
    # bound, 3 to 19), and one past 2^64 - 8 that its bound 8 accepts
    @pytest.mark.parametrize("kind,position,rejected", [("unequal", 3 * 33, True),
                                                        ("unequal", 2 * 33 + 3 + 4, True),
                                                        ("equal", 3 * 33, False)])
    def test_a_word_near_2_64_replays_the_draws(self, kind, position, rejected):
        """randrange(n) rejects only words past 2^64 - n.  Where a word may be
        rejected the schedule is drawn again one sample_pk at a time, so it
        equals that loop on the same stream, and so does the end state."""
        manifest = SCHEDULE_MANIFESTS[kind]()
        stream = Xoshiro256StarStar(4).words(7 * 33 + 16)
        stream[position] = 2**64 - 1
        drawn, scheduled = CraftedWords(stream), CraftedWords(stream)
        want = [sample_pk(manifest, 3, 10, drawn) for _ in range(7)]
        assert (drawn.pos > 7 * 33) == rejected
        np.testing.assert_array_equal(_pk_schedule(manifest, 3, 10, 7, scheduled), np.stack(want))
        assert scheduled.pos == drawn.pos

    def test_runs_sharing_a_key_share_one_draw(self, monkeypatch):
        """Runs whose (dataset, p, k, steps, rng state after init) agree take
        one draw, with the bits of that draw alone: the four cells without a
        second classifier on one seed share one schedule, and the unshared
        cell, whose extra init words move its rng, draws its own."""
        features, manifest = make_dataset(ExperimentConfig(identities=8), seed=1)
        drawn = []

        def recording_schedule(manifest, p, k, steps, rng):
            drawn.append(_pk_schedule(manifest, p, k, steps, rng))
            return drawn[-1]

        monkeypatch.setattr(training, "_pk_schedule", recording_schedule)
        configs = [toy_train_config(method=name, p=4, k=4, epochs=3, seed=5) for name in METHODS]
        train([features] * len(configs), [manifest] * len(configs), configs)
        # in run order: the baseline's key first, then the unshared cell's
        rng = Xoshiro256StarStar(5)
        EmbedModel.init(features.d, configs[0].hidden_dim, configs[0].embed_dim, rng)
        _classifier_init(8, configs[0].embed_dim, rng)
        assert len(drawn) == 2
        for extra, schedule in enumerate(drawn):
            replay = copy.deepcopy(rng)
            if extra:
                _classifier_init(8, configs[0].embed_dim, replay)
            want = [sample_pk(manifest, 4, 4, replay) for _ in range(len(schedule))]
            np.testing.assert_array_equal(schedule, np.stack(want))

    def test_every_call_draws_its_own_schedules(self, monkeypatch):
        """Nothing is kept between train() calls: a second call on the same
        manifest draws again and trains to the same bits."""
        features, manifest = make_dataset(ExperimentConfig(identities=8), seed=1)
        draws = []
        monkeypatch.setattr(training, "_pk_schedule",
                            lambda *args, real=_pk_schedule: draws.append(args[:4]) or real(*args))
        cfg = toy_train_config(method="sft", p=4, k=4, epochs=3, seed=2)
        first, second = train(features, manifest, cfg), train(features, manifest, cfg)
        assert len(draws) == 2
        assert first.log == second.log
        for a, b in zip(trained_arrays(first), trained_arrays(second), strict=True):
            assert np.array_equal(a, b)

    def test_a_stack_holds_its_schedules_only_while_it_trains(self, monkeypatch):
        """A call draws a stack's schedules when that stack starts and drops
        them when it has trained: given runs of two k values in alternating
        order, no k = 2 schedule is alive when a k = 4 one is drawn."""
        features, manifest = make_dataset(ExperimentConfig(identities=8), seed=1)
        drawn, alive = [], []  # (k, weak reference) of each schedule; the k values alive at each draw

        def recording_schedule(manifest, p, k, steps, rng):
            alive.append((k, sorted(other for other, ref in drawn if ref() is not None)))
            schedule = _pk_schedule(manifest, p, k, steps, rng)
            drawn.append((k, weakref.ref(schedule)))
            return schedule

        monkeypatch.setattr(training, "_pk_schedule", recording_schedule)
        configs = [toy_train_config(method="sft+ds_shared", p=4, k=k, epochs=2, seed=seed)
                   for seed in (5, 6) for k in (2, 4)]
        train([features] * len(configs), [manifest] * len(configs), configs)
        assert alive == [(2, []), (2, [2]), (4, []), (4, [4])]

    @pytest.mark.parametrize("rows", [4, 120], ids=["with-replacement", "without-replacement"])
    def test_work_memory_stays_near_the_schedule_size(self, rows):
        """At k = 100 a chunk of steps fits the bound on its cells, and
        identities of fewer than k rows take no swap test, so the schedule
        peaks within a few times its own size (64-step chunks of p * k * k
        bools would take about 7.7), with the bits of the sample_pk draws."""
        manifest = manifest_for({i: rows for i in range(3)})
        drawn = Xoshiro256StarStar(4)
        want = np.stack([sample_pk(manifest, 3, 100, drawn) for _ in range(200)])
        tracemalloc.start()
        try:
            got = _pk_schedule(manifest, 3, 100, 200, Xoshiro256StarStar(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        assert peak < 4 * got.nbytes, peak

    def test_swap_memory_is_linear_in_k(self):
        """Each draw's first swap to a position comes from a stable sort of
        its positions, so at k = 2,000 the schedule still peaks within a few
        times its own size, where one step's k x k swap test alone was 25."""
        manifest = manifest_for({i: 2100 for i in range(3)})
        drawn = Xoshiro256StarStar(4)
        want = np.stack([sample_pk(manifest, 3, 2000, drawn) for _ in range(10)])
        tracemalloc.start()
        try:
            got = _pk_schedule(manifest, 3, 2000, 10, Xoshiro256StarStar(4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, want)
        assert peak <= 4 * got.nbytes, peak / got.nbytes

    def test_cells_do_not_depend_on_training_order(self):
        # reversed, the unshared cell runs between cells that share a schedule
        features, manifest = make_dataset(ExperimentConfig(identities=8), seed=1)
        for name in reversed(METHODS):
            cfg = toy_train_config(method=name, p=4, k=4, epochs=4, warmup_epochs=2,
                                   decay_epochs=(3,), seed=5)
            got = train(features, manifest, cfg)
            want = train(*make_dataset(ExperimentConfig(identities=8), seed=1), cfg)
            assert got.log == want.log, name
            for mine, theirs in zip(trained_arrays(got), trained_arrays(want), strict=True):
                assert np.array_equal(mine, theirs), name


# each case id names the deep supervision of the method it runs
CASE_METHOD = {"off": "sft", "shared": "sft+ds_shared", "unshared": "sft+ds_unshared", "ncut": "ncut"}


def small_setup(seed=3, n=8, input_dim=8, hidden=6, embed=5, num_classes=4):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, input_dim))
    y = np.repeat(np.arange(num_classes), n // num_classes)
    model = EmbedModel.init(input_dim, hidden, embed, Xoshiro256StarStar(seed))
    clf = _classifier_init(num_classes, embed, Xoshiro256StarStar(seed + 1))
    clf_orig = _classifier_init(num_classes, embed, Xoshiro256StarStar(seed + 2))
    return x, y, model, clf, clf_orig


def frozen_transition_loss(x, y, model, clf, cfg, clf_orig, frozen):
    """Objective with the transition matrix pinned to `frozen` (the
    detached-transition gradient differentiates exactly this function)."""
    emb = model.embed(x)
    z = emb if cfg.method == "baseline" else frozen @ emb
    total = am_softmax_value(z, y, clf)
    if cfg.method == "sft+ds_shared":
        total += cfg.deep_supervision_weight * am_softmax_value(emb, y, clf)
    elif cfg.method == "sft+ds_unshared":
        total += cfg.deep_supervision_weight * am_softmax_value(emb, y, clf_orig)
    return total


def check_all_param_grads(x, y, model, clf, cfg, clf_orig, tol=1e-4):
    _, _, grads = forward_backward(x, y, model, clf, cfg, clf_orig)
    params = model.parameters() + [clf]
    if cfg.method == "sft+ds_unshared":
        params.append(clf_orig)
    assert [g.shape for g in grads] == [p.shape for p in params]
    if cfg.grad_through_transition or cfg.method in ("baseline", "ncut"):
        objective = lambda: training_loss(x, y, model, clf, cfg, clf_orig)
    else:
        frozen = _transition_from_features(model.embed(x), cfg.sigma)[2]
        objective = lambda: frozen_transition_loss(x, y, model, clf, cfg, clf_orig, frozen)
    worst = 0.0
    for param, grad in zip(params, grads):
        numeric = central_diff(lambda _: objective(), param, step=1e-6)
        worst = max(worst, rel_error(grad, numeric))
    assert worst < tol, f"gradient mismatch {worst:.2e}"


class TestForwardBackward:
    @pytest.mark.parametrize("mode", ["off", "shared", "unshared"])
    @pytest.mark.parametrize("through", [True, False])
    def test_gradients_all_modes(self, mode, through):
        x, y, model, clf, clf_orig = small_setup()
        cfg = TrainConfig(p=4, k=2, sigma=0.5, method=CASE_METHOD[mode],
                          grad_through_transition=through, hidden_dim=6, embed_dim=5)
        check_all_param_grads(x, y, model, clf, cfg, clf_orig)

    def test_gradients_ncut_objective(self):
        x, y, model, clf, clf_orig = small_setup(seed=5)
        cfg = TrainConfig(p=4, k=2, sigma=0.5, method="ncut",
                          hidden_dim=6, embed_dim=5)
        check_all_param_grads(x, y, model, clf, cfg, clf_orig)

    @pytest.mark.parametrize("mode", ["off", "shared", "unshared", "ncut"])
    def test_gradients_one_layer_model(self, mode):
        x, y, model, clf, clf_orig = small_setup(seed=13, hidden=0)
        assert len(model.weights) == 1
        cfg = TrainConfig(p=4, k=2, sigma=0.5, hidden_dim=0, embed_dim=5, method=CASE_METHOD[mode])
        check_all_param_grads(x, y, model, clf, cfg, clf_orig)

    def test_gradients_baseline_no_transform(self):
        x, y, model, clf, clf_orig = small_setup(seed=7)
        cfg = TrainConfig(p=4, k=2, method="baseline", hidden_dim=6, embed_dim=5)
        check_all_param_grads(x, y, model, clf, cfg, clf_orig)

    def test_identity_transform_equalizes_both_losses(self):
        x, y, model, clf, clf_orig = small_setup()
        cfg = TrainConfig(p=4, k=2, method="baseline", hidden_dim=6, embed_dim=5)
        loss_orig, loss_sft, _ = forward_backward(x, y, model, clf, cfg)
        assert abs(loss_orig - loss_sft) < 1e-9

    def test_identical_features_hit_transform_fixed_point(self):
        x = np.tile(np.array([1.0, -2.0, 0.5, 3.0]), (4, 1))
        y = np.array([0, 0, 1, 1])
        model = EmbedModel.init(4, 0, 3, Xoshiro256StarStar(1))
        clf = _classifier_init(2, 3, Xoshiro256StarStar(2))
        cfg = TrainConfig(p=2, k=2, sigma=0.1, method="sft", hidden_dim=0, embed_dim=3)
        loss_orig, loss_sft, _ = forward_backward(x, y, model, clf, cfg)
        emb = model.embed(x)
        np.testing.assert_allclose(sft_transform_array(emb, 0.1), emb, atol=1e-12)
        assert abs(loss_sft - am_softmax_value(emb, y, clf)) < 1e-12
        assert abs(loss_sft - loss_orig) < 1e-12

    def test_shared_gradient_is_sum_of_both_paths(self):
        x, y, model, clf, _ = small_setup(seed=11)
        cfg = TrainConfig(p=4, k=2, sigma=0.4, method="sft+ds_shared",
                          hidden_dim=6, embed_dim=5)
        _, _, grads = forward_backward(x, y, model, clf, cfg)
        emb = model.embed(x)
        z = sft_transform_array(emb, cfg.sigma)
        _, _, grad_sft_path = am_softmax_loss(z, y, clf)
        _, _, grad_orig_path = am_softmax_loss(emb, y, clf)
        np.testing.assert_allclose(
            grads[len(model.parameters())], grad_sft_path + grad_orig_path, atol=1e-12
        )

    @pytest.mark.parametrize("mode", ["off", "shared", "unshared"])
    def test_out_of_range_labels_rejected(self, mode):
        x, y, model, clf, clf_orig = small_setup()
        cfg = TrainConfig(p=4, k=2, method=CASE_METHOD[mode], hidden_dim=6, embed_dim=5)
        for bad in (np.where(y == 3, 4, y), np.where(y == 0, -1, y)):
            with pytest.raises(ValueError, match="out of range"):
                forward_backward(x, bad, model, clf, cfg, clf_orig)
        if mode == "unshared":
            small = clf_orig[:3]
            with pytest.raises(ValueError, match="out of range"):
                forward_backward(x, y, model, clf, cfg, small)

    def test_unshared_requires_second_classifier(self):
        x, y, model, clf, _ = small_setup()
        cfg = TrainConfig(p=4, k=2, method="sft+ds_unshared", hidden_dim=6, embed_dim=5)
        with pytest.raises(ValueError):
            forward_backward(x, y, model, clf, cfg, None)


class TestTrainLoop:
    def test_embed_names_an_overflowed_model(self):
        """A model that overflows maps rows to inf or nan: embed names it
        in one error, and numpy warns of nothing (any warning fails here)."""
        model = EmbedModel.init(3, 4, 2, Xoshiro256StarStar(0))
        model.weights[-1][...] = 1e300
        with pytest.raises(ValueError, match="training diverged: the model's embeddings are not finite"):
            model.embed(np.full((2, 3), 1e300))

    def test_zero_epochs_returns_initial_parameters(self):
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=2))
        cfg = TrainConfig(p=2, k=2, epochs=0, hidden_dim=6, embed_dim=4, seed=13)
        result = train(feats, manifest, cfg)
        rng = Xoshiro256StarStar(13)
        expected_model = EmbedModel.init(8, 6, 4, rng)
        expected_clf = _classifier_init(4, 4, rng)
        for got, want in zip(result.model.weights, expected_model.weights):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(result.classifier, expected_clf)
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

    def test_diagnostics_are_finite_at_tiny_sigma(self):
        """The diagnostics columns are means of exp((cos - 1) / sigma) <= 1,
        finite at sigma 0.001, where exp(1 / sigma) overflows float64."""
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=6))
        cfg = TrainConfig(p=2, k=3, epochs=3, sigma=0.001, hidden_dim=16, embed_dim=4, seed=21,
                          diagnostics=True)
        log = train(feats, manifest, cfg).log
        assert len(log) == 3
        for line in log:
            intra, inter, graph_val = (float(v) for v in line.split("\t")[4:])
            assert 0.0 <= intra <= 1.0 and 0.0 <= inter <= 1.0 and math.isfinite(graph_val)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(TrainConfig) if f.type == "float"])
    def test_config_names_a_non_finite_float(self, name, value):
        """Every float field must be finite, and the error names the field;
        a negative base_lr is named by the positivity check."""
        with pytest.raises(ValueError, match=f"^{name} must be "):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("counts,p", [({0: 4, 1: 4, 2: 4}, 4), ({0: 4, 1: 4, 2: 4}, 10**12),
                                          ({0: 8}, 2), ({}, 2)])
    def test_identity_count_checked_before_anything_is_sized(self, monkeypatch, counts, p):
        """Too few train identities for p fail with sample_pk's message
        before the model or the schedule is made, at any p; as p >= 2, that
        covers a manifest with one train identity or none."""
        records = tuple(SampleRecord(f"{i}_{j}", i, j % 2, "train") for i, n in counts.items()
                        for j in range(n))
        manifest = DatasetManifest(records or (SampleRecord("q", 0, 0, "gallery"),))
        feats = FeatureMatrix(np.random.default_rng(0).normal(size=(len(manifest), 3)))
        monkeypatch.setattr(training.EmbedModel, "init", None)  # any call would raise
        monkeypatch.setattr(training, "_pk_schedule", None)
        with pytest.raises(ValueError, match=f"^need {p} train identities, manifest has {len(counts)}$"):
            train(feats, manifest, TrainConfig(p=p, k=2, epochs=1))

    def test_non_finite_loss_raises(self):
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=2))
        # the first epoch runs at WARMUP_START_LR, the second at ~5e298
        cfg = TrainConfig(p=2, k=2, epochs=3, base_lr=1e300, hidden_dim=6, embed_dim=4)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diverged in epoch 1"):
            train(feats, manifest, cfg)

    @pytest.mark.parametrize("first,order,message", [
        ("baseline", (20, 0), "training diverged in epoch 1: the loss is not finite"),
        ("baseline", (0, 20), "training diverged in epoch 0: the loss is not finite"),
        ("sft+ds_unshared", (20, 0), "row 0 has zero norm, cosine undefined"),
        ("sft+ds_unshared", (0, 20), "training diverged in epoch 0: the loss is not finite"),
    ])
    def test_lockstep_failure_is_the_first_runs_own(self, first, order, message):
        """Every run here fails alone, and one lockstep call of them all
        raises the error of the first in run order, epoch and all: without
        warmup the first epoch's rate is already 1e300, with 20 warmup
        epochs the second one's; the unshared cell on seed 1 with warmup
        stops on a zero-norm row on its own before its epoch ends."""
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=2))
        methods = (first,) + tuple(m for m in METHODS if m != first)
        configs = [TrainConfig(p=2, k=2, epochs=3, base_lr=1e300, warmup_epochs=warmup,
                               hidden_dim=6, embed_dim=4, method=method, seed=seed)
                   for warmup in order for method in methods for seed in (1, 2)]
        with pytest.raises(ValueError) as alone:
            train(feats, manifest, configs[0])
        assert str(alone.value) == message
        with pytest.raises(ValueError) as stacked:
            train([feats] * len(configs), [manifest] * len(configs), configs)
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == message

    def test_lockstep_runs_after_a_good_one_still_fail(self):
        """A diverging run between good ones fails the call with its own error."""
        feats, manifest = generate_synthetic(SyntheticSpec(4, 6, 8, seed=2))
        good = TrainConfig(p=2, k=2, epochs=3, hidden_dim=6, embed_dim=4)
        bad = replace(good, base_lr=1e300, method="ncut")
        with pytest.raises(ValueError, match="^training diverged in epoch 1: "):
            train([feats] * 3, [manifest] * 3, [good, bad, good])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(p=1)
        with pytest.raises(ValueError):
            TrainConfig(k=1)
        with pytest.raises(ValueError):
            TrainConfig(method="maybe")

    @pytest.mark.parametrize("counts", [dict(epochs=-1), dict(warmup_epochs=-1),
                                        dict(decay_epochs=(-1,)), dict(decay_epochs=(20, -3))])
    def test_config_rejects_negative_counts(self, counts):
        # a negative decay boundary would decay every epoch from the first
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            TrainConfig(**(dict(epochs=30, warmup_epochs=0) | counts))


class TestConfigFile:
    def test_parse_and_defaults(self, tmp_path):
        path = tmp_path / "train.cfg"
        path.write_text(
            "# toy settings\n"
            "p = 4\n"
            "k = 2\n"
            "sigma = 0.25\n"
            "method = baseline\n"
            "grad_through_transition = false\n"
            "decay_epochs = 10,20\n"
        )
        cfg = load_train_config(path)
        assert (cfg.p, cfg.k) == (4, 2)
        assert cfg.sigma == 0.25
        assert cfg.method == "baseline"
        assert cfg.grad_through_transition is False
        assert cfg.decay_epochs == (10, 20)

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("learning = fast\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_train_config(path)

    @pytest.mark.parametrize("key", ["warmup_start_lr", "decay_factor", "momentum", "ncut_ce_weight",
                                     "batches_per_epoch", "margin", "scale",
                                     "use_sft", "deep_supervision", "objective"])
    def test_fixed_recipe_is_no_key(self, tmp_path, key):
        """The optimiser constants, the classifier's margin and scale, the
        ncut loss weight and the batch count are fixed in code, and the
        variant is one `method`, not a combination of knobs."""
        path = tmp_path / "fixed.cfg"
        path.write_text(f"p = 4\n{key} = 1\n")
        with pytest.raises(ValueError, match=f"^config line 2: unknown key '{key}'$"):
            load_train_config(path)

    def test_readme_lists_every_key(self):
        """The README's config-file paragraph names every field, in order."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        paragraph = " ".join(readme.split("### Training configuration file", 1)[1].split())
        listed = paragraph.split("fields:", 1)[1].split("Command-line flags override", 1)[0]
        assert re.findall(r"`(\w+)`", listed) == [f.name for f in fields(TrainConfig)]

    @pytest.mark.parametrize("line", ["decay_epochs = 1.5", "epochs = ten", "sigma = x",
                                      "grad_through_transition = maybe"])
    def test_bad_value_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"p = 4\n{line}\n")
        with pytest.raises(ValueError, match="^config line 2: "):
            load_train_config(path)

    @pytest.mark.parametrize("line,message", [
        ("method = maybe", "unknown method 'maybe'"),
        ("p = 1", "batches need p >= 2 identities and k >= 2 samples each"),
        ("decay_epochs = 10,-1", "counts must be non-negative"),
    ])
    def test_failed_check_names_its_line(self, tmp_path, line, message):
        """A value that parses but fails a TrainConfig check names its line
        like one that does not parse."""
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\nk = 4\n\n{line}\nepochs = 3\n")
        with pytest.raises(ValueError, match=f"^config line 4: {re.escape(message)}$"):
            load_train_config(path)

    def test_keys_apply_in_file_order(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("p = 4\nepochs = 3\np = 5\n")
        assert load_train_config(path) == replace(TrainConfig(), p=5, epochs=3)


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
    return np.array(indices), np.array(labels)


def reference_forward_backward(x, labels, model, clf, cfg, clf_orig=None):
    """forward_backward composed from the public functions only: the
    transform's forward and backward each build the transition matrix, and
    every margin-softmax term runs its own pass."""
    labels = np.asarray(labels, dtype=np.int64)
    emb, cache = model.forward(np.asarray(x, dtype=np.float64))

    if cfg.method == "ncut":
        graph_loss, grad_emb_graph = ncut_loss(emb, labels, cfg.sigma)
        ce_loss, grad_emb_ce, grad_clf = am_softmax_loss(emb, labels, clf)
        return ce_loss, graph_loss, model.backward(cache, grad_emb_graph + grad_emb_ce) + [grad_clf]

    baseline = cfg.method == "baseline"
    z = emb if baseline else sft_transform_array(emb, cfg.sigma)
    loss_sft, grad_z, grad_clf_sft = am_softmax_loss(z, labels, clf)
    if baseline:
        grad_emb = grad_z
    else:
        grad_emb = sft_backward(emb, cfg.sigma, grad_z, cfg.grad_through_transition)

    weight = cfg.deep_supervision_weight
    clf_grads = [grad_clf_sft]
    if cfg.method in ("baseline", "sft"):
        loss_orig = am_softmax_value(emb, labels, clf)
    elif cfg.method == "sft+ds_shared":
        loss_orig, grad_emb_orig, grad_clf_orig_path = am_softmax_loss(emb, labels, clf)
        grad_emb = grad_emb + weight * grad_emb_orig
        clf_grads = [grad_clf_sft + weight * grad_clf_orig_path]
    else:
        loss_orig, grad_emb_orig, grad_unshared = am_softmax_loss(emb, labels, clf_orig)
        grad_emb = grad_emb + weight * grad_emb_orig
        clf_grads.append(weight * grad_unshared)
    return loss_orig, loss_sft, model.backward(cache, grad_emb) + clf_grads


def reference_train(features, manifest, cfg):
    """The training loop with separately allocated parameters, one momentum
    update per array and a class-id dictionary lookup per batch."""
    train_idx = manifest.indices("train")
    identities = sorted({manifest.records[i].identity for i in train_idx})
    class_of = {ident: c for c, ident in enumerate(identities)}

    rng = Xoshiro256StarStar(cfg.seed)
    model = EmbedModel.init(features.d, cfg.hidden_dim, cfg.embed_dim, rng)
    clf = _classifier_init(len(identities), cfg.embed_dim, rng)
    clf_orig = None
    if cfg.method == "sft+ds_unshared":
        clf_orig = _classifier_init(len(identities), cfg.embed_dim, rng)

    params = model.parameters() + [clf]
    if clf_orig is not None:
        params.append(clf_orig)
    velocity = [np.zeros_like(p) for p in params]

    batches = max(1, len(train_idx) // (cfg.p * cfg.k))
    log = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        sum_orig = 0.0
        sum_sft = 0.0
        for _ in range(batches):
            indices, batch_identities = reference_sample_pk(manifest, cfg.p, cfg.k, rng)
            x = features.data[indices]
            y = np.array([class_of[i] for i in batch_identities])
            loss_orig, loss_sft, grads = reference_forward_backward(x, y, model, clf, cfg, clf_orig)
            sum_orig += loss_orig
            sum_sft += loss_sft
            for param, vel, grad in zip(params, velocity, grads, strict=True):
                vel *= MOMENTUM
                vel -= lr * grad
                param += vel
        line = f"{epoch}\t{lr:.12g}\t{sum_orig / batches:.12g}\t{sum_sft / batches:.12g}"
        if cfg.diagnostics:
            emb = model.embed(features.data[train_idx])
            labels = np.array([class_of[manifest.records[i].identity] for i in train_idx])
            intra, inter = affinity_class_means(affinity(FeatureMatrix(emb), cfg.sigma), labels)
            graph_val, _ = ncut_loss(emb, labels, cfg.sigma)
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
    @pytest.mark.parametrize("cell", METHODS)
    def test_ablation_cells_bit_identical(self, dataset, cell, p, k):
        features, manifest = dataset
        cfg = toy_train_config(method=cell, p=p, k=k, epochs=4,
                               warmup_epochs=2, decay_epochs=(3,), diagnostics=True, seed=5)
        got = train(features, manifest, cfg)
        model, clf, clf_orig, log = reference_train(features, manifest, cfg)
        assert got.log == log
        for mine, theirs in zip(got.model.parameters(), model.parameters(), strict=True):
            assert np.array_equal(mine, theirs)
        assert len(got.model.weights) == len(model.weights) == 2
        assert np.array_equal(got.classifier, clf)
        assert (got.classifier_orig is None) == (clf_orig is None)
        if clf_orig is not None:
            assert np.array_equal(got.classifier_orig, clf_orig)

    @pytest.mark.parametrize("hidden_dim", [64, 0])
    @pytest.mark.parametrize("p,ks,cells", [
        pytest.param(4, (4,), METHODS, id="4-4"), pytest.param(3, (10,), METHODS, id="3-10"),
        pytest.param(3, (4, 10), METHODS, id="3-4,10-two-datasets"),
        # method subsets, whose stacks have empty slices before, between or after their slots
        *(pytest.param(4, (4,), cells, id="4-4-" + ",".join(cells)) for cells in [
            ("baseline", "sft+ds_unshared"), ("ncut", "sft+ds_shared"), ("baseline", "ncut"),
            ("sft", "sft+ds_unshared")])])
    def test_cells_and_seeds_in_one_stack_bit_identical(self, dataset, p, ks, cells, hidden_dim):
        """Cells, on two seeds of their own sigma, trained in one lockstep
        call given in reverse order: each run equals the straightforward
        loop alone, bit for bit.  With two k values the call also takes a
        second dataset of the same shape, so it makes two stacks, each with
        unshared slots on both datasets."""
        datasets = [dataset] + [make_dataset(ExperimentConfig(identities=8), seed=2)] * (len(ks) - 1)
        runs = [(data, toy_train_config(method=cell, p=p, k=k, epochs=4, warmup_epochs=2,
                                        decay_epochs=(3,), diagnostics=True, hidden_dim=hidden_dim,
                                        seed=seed, sigma=sigma))
                for cell in cells for data in datasets for k in ks for seed, sigma in ((5, 0.17), (6, 0.3))]
        runs.reverse()
        results = train([features for (features, _), _ in runs], [manifest for (_, manifest), _ in runs],
                        [cfg for _, cfg in runs])
        assert len(results) == len(runs)
        for ((features, manifest), cfg), got in zip(runs, results, strict=True):
            model, clf, clf_orig, log = reference_train(features, manifest, cfg)
            assert got.log == log, cfg.method
            assert len(got.model.weights) == len(model.weights) == (2 if hidden_dim else 1)
            for mine, theirs in zip(trained_arrays(got), model.parameters() + [
                    c for c in (clf, clf_orig) if c is not None], strict=True):
                assert np.array_equal(mine, theirs), cfg.method
            assert (got.classifier_orig is None) == (clf_orig is None)

    def test_sampler_matches_per_batch_index(self, dataset):
        _, manifest = dataset
        fast, slow = Xoshiro256StarStar(8), Xoshiro256StarStar(8)
        for p, k in [(4, 4), (3, 10), (8, 8)] * 3:
            got = sample_pk(manifest, p, k, fast)
            want, identities = reference_sample_pk(manifest, p, k, slow)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(identities_of(manifest, got), identities)
        assert fast.next_u64() == slow.next_u64()
