"""Toy-scale supervised trainer for transform-aware embedding learning.

The pipeline mirrors the usual deep metric-learning recipe at desk scale:
a small affine embedding model with l2-normalized output, an
additive-margin softmax classifier over scaled cosines, PK batch
composition (p identities, k samples each) and SGD with momentum under a
linear-warmup step schedule.  The spectral transform sits between the
embedding and the classifier; deep supervision optionally applies the
same (or an independent) classifier to the untransformed features.

All gradients are closed-form and verified against central finite
differences in the tests.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .data import DatasetManifest, FeatureMatrix, _check_finite, check_paired
from .graphcut import affinity_class_means, ncut_loss
from .rng import Xoshiro256StarStar
from .transform import (
    _check_sigma,
    _sft_backward,
    _transition_from_features,
    _unit_backward,
    _unit_rows,
    affinity,
)

# the ablation's cells: no transform, the ncut loss, the transform alone,
# and with deep supervision through the shared or an unshared classifier.
# Slots stack method-major in this order: the slots under a transform are
# contiguous, and the unshared ones, the only slots with a second
# classifier, come last
METHODS = ("baseline", "ncut", "sft", "sft+ds_shared", "sft+ds_unshared")
# the fixed optimiser recipe: lr_at's warmup start and decay step, SGD momentum
WARMUP_START_LR = 0.001
DECAY_FACTOR = 0.1
MOMENTUM = 0.9
# the fixed classifier recipe: additive cosine margin and logit scale
MARGIN = 0.3
SCALE = 15.0


@dataclass(frozen=True)
class TrainConfig:
    p: int = 16                      # identities per batch
    k: int = 8                       # samples per identity
    sigma: float = 0.1
    epochs: int = 140
    warmup_epochs: int = 20
    base_lr: float = 0.1
    decay_epochs: tuple[int, ...] = (80, 100)
    method: str = "sft+ds_shared"    # one of METHODS
    grad_through_transition: bool = True
    deep_supervision_weight: float = 1.0
    hidden_dim: int = 64
    embed_dim: int = 32
    diagnostics: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.p < 2 or self.k < 2:
            raise ValueError("batches need p >= 2 identities and k >= 2 samples each")
        _check_sigma(self.sigma)
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("counts must be non-negative")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.hidden_dim < 0 or self.embed_dim < 1:
            raise ValueError("bad model dimensions")
        object.__setattr__(self, "decay_epochs", tuple(int(e) for e in self.decay_epochs))
        _check_finite(self)


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _float_tuple(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _bool(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(f"bad bool {text!r}")
    return text.lower() == "true"


# text -> value by config field type (a string here), for config files and flags
PARSERS = {"int": int, "float": float, "bool": _bool, "str": str,
           "tuple[int, ...]": _int_tuple, "tuple[float, ...]": _float_tuple}


def load_train_config(path, base: TrainConfig | None = None) -> TrainConfig:
    """Parse `key = value` lines (# comments) into a TrainConfig.  Keys
    apply in file order, so a value that parses but fails a check names
    its line too."""
    cfg = base or TrainConfig()
    kinds = {f.name: f.type for f in fields(TrainConfig)}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            cfg = replace(cfg, **{key: PARSERS[kinds[key]](value)})
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
    return cfg


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at an epoch: linear warmup then stepwise decay."""
    if epoch < 0 or epoch >= cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        frac = epoch / cfg.warmup_epochs
        return WARMUP_START_LR + (cfg.base_lr - WARMUP_START_LR) * frac
    lr = cfg.base_lr
    for boundary in cfg.decay_epochs:
        if epoch >= boundary:
            lr *= DECAY_FACTOR
    return lr


@dataclass
class EmbedModel:
    """Affine maps with a rectifier between layers, l2-normalized output.

    One model holds (in, out) weights and (out,) biases and maps (n, in)
    rows.  A stack of S models holds (S, in, out) weights and (S, out)
    biases and maps (S, n, in) rows, each model with the bits it has
    alone.  :meth:`parameters` owns the parameter order; :meth:`backward`
    returns the gradients in that order.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, embed_dim: int, rng: Xoshiro256StarStar) -> "EmbedModel":
        """Random init scaled by 1/sqrt(fan_in); hidden_dim 0 drops the hidden layer."""
        dims = [input_dim, embed_dim] if hidden_dim == 0 else [input_dim, hidden_dim, embed_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            w = rng.normals(fan_in * fan_out).reshape(fan_in, fan_out) * scale
            weights.append(w)
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def parameters(self) -> list[np.ndarray]:
        """Every parameter array: the weights, then the biases, input layer first."""
        return self.weights + self.biases

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        inputs = [x]  # each layer's input: x, then the rectified hidden layers
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = inputs[-1] @ w
            h += b[..., None, :]
            inputs.append(np.maximum(h, 0.0, out=h))
        out = inputs[-1] @ self.weights[-1]
        out += self.biases[-1][..., None, :]
        norms, out = _unit_rows(out)
        return out, (inputs, norms, out)

    @np.errstate(over="ignore", invalid="ignore")  # a diverged model's inf or nan is named, not warned about
    def embed(self, x: np.ndarray) -> np.ndarray:
        if not np.isfinite(out := self.forward(x)[0]).all():
            raise ValueError("training diverged: the model's embeddings are not finite")
        return out

    def backward(self, cache: tuple, grad_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of :meth:`parameters`, in its order."""
        inputs, norms, out = cache
        grads = [_unit_backward(grad_out, out, norms)]  # per layer output, the last first
        for h, w in zip(inputs[:0:-1], self.weights[:0:-1]):
            grad = grads[-1] @ w.swapaxes(-1, -2)
            grad *= h > 0  # through the rectifier
            grads.append(grad)
        grads.reverse()
        return [h.swapaxes(-1, -2) @ g for h, g in zip(inputs, grads)] + [g.sum(axis=-2) for g in grads]


def _classifier_init(num_classes: int, embed_dim: int, rng: Xoshiro256StarStar) -> np.ndarray:
    """Random (num_classes, embed_dim) classifier rows scaled by 1/sqrt(embed_dim)."""
    w = rng.normals(num_classes * embed_dim).reshape(num_classes, embed_dim)
    return w / np.sqrt(embed_dim)


def _am_softmax_grad(x: np.ndarray, y: np.ndarray, w_norms: np.ndarray,
                     w_unit: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(loss, d loss / d x, d loss / d classifier weight) of the margin softmax
    (margin MARGIN, scale SCALE) on raw rows x, valid labels y and classifier
    rows of these norms and unit directions: (n, d), (n,) and (C, d), or
    (S, n, d), (S, n) and (S, C, d) stacks with a loss per matrix."""
    feat_norms, feat = _unit_rows(x)
    cos = feat @ w_unit.swapaxes(-1, -2)
    logits = SCALE * cos
    labelled = (np.arange(y.size), y.reshape(-1))
    flat = logits.reshape(-1, logits.shape[-1])
    target = SCALE * (cos.reshape(flat.shape)[labelled] - MARGIN)
    flat[labelled] = target
    # a max is exact in any order; numpy reduces short rows one at a time,
    # and whole rows at once over the columns of a transposed copy
    zmax = np.ascontiguousarray(logits.swapaxes(-1, -2)).max(axis=-2)[..., None]
    shifted = logits - zmax
    lse = zmax[..., 0] + np.log(np.exp(shifted, out=shifted).sum(axis=-1))
    loss = (lse - target.reshape(y.shape)).sum(axis=-1) / y.shape[-1]
    grad_cos = logits - lse[..., None]
    np.exp(grad_cos, out=grad_cos)  # the softmax, less one at each label, times scale / n
    grad_cos.reshape(-1, grad_cos.shape[-1])[labelled] -= 1.0
    grad_cos *= SCALE
    grad_cos /= x.shape[-2]
    grad_x = _unit_backward(grad_cos @ w_unit, feat, feat_norms)
    grad_w = _unit_backward(grad_cos.swapaxes(-1, -2) @ feat, w_unit, w_norms)
    return loss, grad_x, grad_w


def sample_pk(manifest: DatasetManifest, p: int, k: int, rng: Xoshiro256StarStar) -> np.ndarray:
    """Manifest row indices of p distinct train identities, k rows each,
    identity by identity.

    Identities are drawn uniformly without replacement; within an
    identity, rows are drawn without replacement when it has at least k
    samples and with replacement otherwise.
    """
    groups = manifest.train_groups
    if len(groups) < p:
        raise ValueError(f"need {p} train identities, manifest has {len(groups)}")
    indices = []
    for pos in rng.sample(len(groups), p):
        _, rows = groups[pos]
        if len(rows) >= k:
            picks = rng.sample(len(rows), k)
        else:
            picks = [rng.randrange(len(rows)) for _ in range(k)]
        indices.extend([rows[j] for j in picks])
    return np.array(indices, dtype=np.int64)


def _fisher_yates(offsets: np.ndarray) -> np.ndarray:
    """Row by row, rng.sample(n, c) from its c randrange draws' (m, c)
    offsets; position j >= c sits in slot c + (the first swap to reach j)."""
    m, c = offsets.shape
    j = np.arange(c) + offsets
    slot = np.where(j < c, j, c + (j[:, :, None] == j[:, None, :]).argmax(axis=2))
    values = np.concatenate([np.broadcast_to(np.arange(c), (m, c)), j], axis=1)
    for i, at in enumerate(slot.T):
        values[:, i], values[np.arange(m), at] = values[np.arange(m), at], values[:, i].copy()
    return values[:, :c]


def _pk_schedule(manifest: DatasetManifest, p: int, k: int, steps: int,
                 rng: Xoshiro256StarStar) -> np.ndarray:
    """(steps, p*k) train row indices of `steps` successive sample_pk draws,
    bit for bit: one rng.words call, then a numpy Fisher-Yates of all steps."""
    rows = [group for _, group in manifest.train_groups]
    sizes = np.array([len(group) for group in rows])
    start = rng.getstate()
    words = rng.words(steps * (p + p * k)).reshape(steps, p + p * k)
    # randrange(n) rejects only words past 2^64 - n: where one may be, draw as sample_pk does
    if (words > 2**64 - max(len(rows), int(sizes.max()))).any():
        rng.setstate(start)
        return np.stack([sample_pk(manifest, p, k, rng) for _ in range(steps)])
    flat, first = np.concatenate(rows, dtype=np.int64), np.cumsum(sizes) - sizes
    schedule = np.empty((steps, p * k), np.int64)
    for at in range(0, steps, 64):  # 64 steps at a time bound the temporaries
        drawn = words[at:at + 64]
        ids = _fisher_yates((drawn[:, :p] % (len(rows) - np.arange(p)).astype(np.uint64)).astype(np.int64))
        n = sizes[ids].reshape(-1, 1)  # each picked identity's rows: bounds n - i, or n with replacement
        bounds = np.where(n >= k, n - np.arange(k), n).astype(np.uint64)
        offsets = (drawn[:, p:].reshape(-1, k) % bounds).astype(np.int64)
        picks = np.where(n >= k, _fisher_yates(offsets), offsets)
        schedule[at:at + 64] = flat[first[ids].reshape(-1, 1) + picks].reshape(len(drawn), -1)
    return schedule


# the TrainConfig fields that may differ between the slots of one stack
_PER_SLOT = ("method", "sigma", "seed")


class _Plan(NamedTuple):
    """The step kernel's view of a method-major stack of slots."""

    slices: dict[str, slice]          # each method's slots
    transformed: slice | None         # the slots under a transform
    sigma: np.ndarray                 # their sigmas, shaped (len, 1, 1)
    ncut: tuple[tuple[int, float], ...]  # (slot, sigma) of each ncut slot
    through: bool                     # grad_through_transition
    weight: float                     # deep_supervision_weight


def _plan(methods: Sequence[str], sigmas: Sequence[float], cfg: TrainConfig) -> _Plan:
    """The plan of slots with these methods, in METHODS order, and
    sigmas; cfg gives the fields that the slots share."""
    slices: dict[str, slice] = {}
    for i, method in enumerate(methods):
        slices[method] = slice(slices[method].start if method in slices else i, i + 1)
    moved = [i for i, method in enumerate(methods) if method.startswith("sft")]
    return _Plan(
        slices,
        slice(moved[0], moved[-1] + 1) if moved else None,
        np.array([sigmas[i] for i in moved]).reshape(-1, 1, 1),
        tuple((i, sigmas[i]) for i, method in enumerate(methods) if method == "ncut"),
        cfg.grad_through_transition,
        cfg.deep_supervision_weight,
    )


def _step(x: np.ndarray, y: np.ndarray, model: EmbedModel, clf: np.ndarray,
          clf_orig: np.ndarray | None, plan: _Plan):
    """Losses and parameter gradients of one step of S slots in lockstep.

    x (S, n, d) holds each slot's batch and y (S, n) its valid class ids;
    model and clf are stacks of the slots' parameters, clf_orig that of the
    unshared slots' second classifiers.  Each part runs once per stack: the
    embedding and its backward pass on every slot, the transform on its
    slots, and one margin softmax on every slot's transformed features with
    clf and on the transformed slots' embeddings with the classifier that
    scores them (clf_orig for the unshared slots); the ncut loss runs per
    slot.

    Returns (loss_orig, loss_sft, grads), the losses shaped (S,).  loss_sft
    is the classifier loss on transformed features (the embedding itself
    for the baseline, the graph-cut loss for ncut); loss_orig is the
    classifier loss on the untransformed embedding, which contributes
    gradient only under deep supervision and ncut (it is still reported
    otherwise, for the log).  grads holds the gradients of
    model.parameters() + [clf], then of clf_orig, each with a
    leading slot axis (the unshared slots' only, for clf_orig).
    """
    emb, cache = model.forward(x)
    slots = len(emb)
    moved = plan.transformed
    inputs, labels, weights = emb, y, clf
    if moved is not None:
        # every slot's transformed features, then the transformed slots'
        # embeddings, scored by clf too or, for the unshared slots (which
        # come last), by clf_orig: rows slots + j of the softmax stack
        forward = _transition_from_features(emb[moved], plan.sigma)
        inputs = np.concatenate([emb[:moved.start], forward[2] @ emb[moved], emb[moved.stop:], emb[moved]])
        labels = np.concatenate([y, y[moved]])
        scorers = [clf, clf[moved]]
        if clf_orig is not None:
            scorers[1:] = [clf[moved][:-len(clf_orig)], clf_orig]
        weights = np.concatenate(scorers)
    loss, grad_in, grad_w = _am_softmax_grad(inputs, labels, *_unit_rows(weights))
    loss_sft, grad_emb, grad_clf = loss[:slots], grad_in[:slots], grad_w[:slots]
    loss_orig = loss_sft.copy()
    grads_orig = []
    if moved is not None:
        grad_emb[moved] = _sft_backward(emb[moved], plan.sigma, grad_emb[moved], forward, plan.through)
        # the embedding's loss: logged alone under sft, a weighted second
        # term under deep supervision
        loss_orig[moved] = loss[slots:]
        weight = plan.weight
        for method in ("sft+ds_shared", "sft+ds_unshared"):
            if (part := plan.slices.get(method)) is not None:
                rows = slice(slots + part.start - moved.start, slots + part.stop - moved.start)
                grad_emb[part] += weight * grad_in[rows]
                if method == "sft+ds_shared":
                    grad_clf[part] += weight * grad_w[rows]
                else:
                    grads_orig.append(weight * grad_w[rows])
    for slot, sigma in plan.ncut:  # the graph-cut loss beside the classifier loss
        loss_sft[slot], grad_graph = ncut_loss(emb[slot], y[slot], sigma)
        grad_emb[slot] += grad_graph
    return loss_orig, loss_sft, model.backward(cache, grad_emb) + [grad_clf] + grads_orig


@dataclass
class TrainResult:
    model: EmbedModel
    classifier: np.ndarray               # (num_classes, embed_dim) rows
    classifier_orig: np.ndarray | None   # the unshared slots' second classifier
    log: list[str]


def train(features: FeatureMatrix | Sequence[FeatureMatrix],
          manifest: DatasetManifest | Sequence[DatasetManifest],
          cfg: TrainConfig | Sequence[TrainConfig]) -> TrainResult | list[TrainResult]:
    """Full training loop, deterministic given the config seed.

    `features` holds one row per record of `manifest`.  Log lines are
    `epoch<TAB>lr<TAB>loss_orig<TAB>loss_sft`, with mean intra/inter
    affinity and the graph-cut loss of the train embeddings appended when
    cfg.diagnostics is set.

    Given equally long sequences of feature matrices, manifests and
    configs, one entry per run, it trains every run in lockstep and returns
    a list of their TrainResults, each bit for bit the one its run gives
    alone.  A failing run raises the error that the first failing run, in
    sequence order, raises alone.
    """
    if isinstance(cfg, TrainConfig):
        return _train([(features, manifest, cfg)])[0]
    runs = list(zip(features, manifest, cfg, strict=True))
    try:
        return _train(runs)
    except ValueError:
        # replayed one at a time, the first run that fails raises its own error
        for run in runs:
            _train([run])
        raise


class _Slot(NamedTuple):
    """One run of a lockstep call, ready to stack."""

    cfg: TrainConfig
    arrays: list[np.ndarray]  # initial parameters in _step's gradient order
    schedule: tuple           # its PK schedule's key: (dataset, p, k, steps, rng state)
    train_rows: np.ndarray    # its dataset's train rows in the stacked data
    group: tuple              # the fields its stack shares


# overflow on the way to divergence is reported once, by the epoch check
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _train(runs: list) -> list[TrainResult]:
    """Train (features, manifest, cfg) runs, each stack of equal shape in
    lockstep; results in run order.

    Runs of one seed share one draw of the model and classifier init, and
    the runs of a stack whose (dataset, p, k, steps, rng state after init)
    agree share one draw of the PK schedule.
    """
    datasets: dict[tuple[int, int], tuple] = {}
    inits: dict[tuple, tuple] = {}
    draws: dict[tuple, tuple] = {}  # schedule key -> (manifest, rng, row offset)
    data, class_ids, slots = [], [], []
    start = 0
    for features, manifest, cfg in runs:
        if (id(features), id(manifest)) not in datasets:
            check_paired(features, manifest)
            train_idx = manifest.indices("train")
            groups = manifest.train_groups
            # class id of every train row: its identity's rank among train identities
            labels = np.zeros(len(manifest), dtype=np.int64)
            for c, (_, rows) in enumerate(groups):
                labels[list(rows)] = c
            datasets[id(features), id(manifest)] = (start, np.array(train_idx) + start, len(groups))
            data.append(features.data)
            class_ids.append(labels)
            start += features.n
        offset, train_rows, num_classes = datasets[id(features), id(manifest)]
        if num_classes < cfg.p:  # sample_pk's check, before p sizes anything; as p >= 2, needs 2+ identities
            raise ValueError(f"need {cfg.p} train identities, manifest has {num_classes}")

        dims = (cfg.seed, features.d, cfg.hidden_dim, cfg.embed_dim, num_classes)
        if dims not in inits:
            rng = Xoshiro256StarStar(cfg.seed)
            model = EmbedModel.init(features.d, cfg.hidden_dim, cfg.embed_dim, rng)
            inits[dims] = (model.parameters() + [_classifier_init(num_classes, cfg.embed_dim, rng)], rng)
        arrays, rng = inits[dims]
        if cfg.method == "sft+ds_unshared":  # its second classifier draws on from a copy
            rng = copy.deepcopy(rng)
            arrays = arrays + [_classifier_init(num_classes, cfg.embed_dim, rng)]

        batches = max(1, len(train_rows) // (cfg.p * cfg.k))
        key = (id(features), id(manifest), cfg.p, cfg.k, cfg.epochs * batches, rng.getstate())
        draws.setdefault(key, (manifest, rng, offset))
        group = tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name not in _PER_SLOT)
        slots.append(_Slot(cfg, arrays, key, train_rows, (group, features.d, num_classes, batches)))

    data = data[0] if len(data) == 1 else np.concatenate(data)
    class_ids = np.concatenate(class_ids)
    stacks: dict[tuple, list[int]] = {}
    for i, slot in enumerate(slots):
        stacks.setdefault(slot.group, []).append(i)
    results = [None] * len(slots)
    for members in stacks.values():
        members.sort(key=lambda i: METHODS.index(slots[i].cfg.method))
        trained = _train_stack([slots[i] for i in members], draws, data, class_ids)
        for i, result in zip(members, trained):
            results[i] = result
    return results


def _views(buf: np.ndarray, shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    """Views of the rows of a 2-d buffer as stacks of consecutive blocks of
    these shapes."""
    views, end = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(buf[:, end:end + size].reshape(len(buf), *shape))
        end += size
    return views


def _train_stack(slots: list[_Slot], draws: dict[tuple, tuple], data: np.ndarray,
                 class_ids: np.ndarray) -> list[TrainResult]:
    """The training loop of one method-major stack of slots that share
    every field but _PER_SLOT, in lockstep.

    Each slot's parameters are one row of an (S, P) buffer, laid out in
    _step's gradient order, so the momentum update is a few
    whole-buffer ufunc calls; the unshared slots come last, and only their
    rows use the second classifier's columns.
    """
    cfg = slots[0].cfg  # for the fields the slots share
    layers = 2 if cfg.hidden_dim else 1  # weight arrays of the model
    shapes = [a.shape for a in slots[-1].arrays]
    params = np.zeros((len(slots), sum(math.prod(shape) for shape in shapes)))
    for row, slot in zip(params, slots):
        flat = np.concatenate([a.ravel() for a in slot.arrays])
        row[:flat.size] = flat
    velocity = np.zeros_like(params)
    step = np.zeros_like(params)

    plan = _plan([slot.cfg.method for slot in slots], [slot.cfg.sigma for slot in slots], cfg)
    views = _views(params, shapes)
    model = EmbedModel(views[:layers], views[layers:2 * layers])
    clf = views[2 * layers]
    targets = _views(step, shapes)
    clf_orig = None
    if (unshared := plan.slices.get("sft+ds_unshared")) is not None:
        clf_orig = views[-1][unshared]
        targets[-1] = targets[-1][unshared]

    # the slots' distinct schedules, one draw each from a copy of the rng
    # (another stack may draw the same key), as rows of the stacked data
    batches = max(1, len(slots[0].train_rows) // (cfg.p * cfg.k))
    keys = list(dict.fromkeys(slot.schedule for slot in slots))
    schedule = np.empty((len(keys), cfg.epochs * batches, cfg.p * cfg.k), dtype=np.int64)
    for drawn, (manifest, rng, offset) in zip(schedule, map(draws.get, keys)):
        np.add(_pk_schedule(manifest, cfg.p, cfg.k, len(drawn), copy.deepcopy(rng)), offset, out=drawn)
    which = np.array([keys.index(slot.schedule) for slot in slots])
    results = []
    for i, slot in enumerate(slots):  # each slot's result, on its rows of the buffer
        own = [v[i] for v in views]
        results.append(TrainResult(EmbedModel(own[:layers], own[layers:2 * layers]), own[2 * layers],
                                   own[-1] if slot.cfg.method == "sft+ds_unshared" else None, []))
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        sum_orig = np.zeros(len(slots))
        sum_sft = np.zeros(len(slots))
        for t in range(epoch * batches, (epoch + 1) * batches):
            rows = schedule[which, t]
            loss_orig, loss_sft, grads = _step(data[rows], class_ids[rows], model, clf, clf_orig, plan)
            sum_orig += loss_orig
            sum_sft += loss_sft
            for target, grad in zip(targets, grads):
                np.multiply(grad, lr, out=target)
            velocity *= MOMENTUM
            velocity -= step
            params += velocity
        if not np.isfinite(sum_orig + sum_sft).all():
            raise ValueError(f"training diverged in epoch {epoch}: the loss is not finite")
        for slot, result, loss_orig, loss_sft in zip(slots, results, sum_orig, sum_sft):
            line = f"{epoch}\t{lr:.12g}\t{float(loss_orig) / batches:.12g}\t{float(loss_sft) / batches:.12g}"
            if cfg.diagnostics:
                emb = result.model.embed(data[slot.train_rows])
                labels = class_ids[slot.train_rows]
                sigma = slot.cfg.sigma
                intra, inter = affinity_class_means(affinity(FeatureMatrix(emb), sigma), labels)
                graph_val, _ = ncut_loss(emb, labels, sigma)
                line += f"\t{intra:.12g}\t{inter:.12g}\t{graph_val:.12g}"
            result.log.append(line)
    return results
