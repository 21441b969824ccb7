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
        if self.epochs < 0 or self.warmup_epochs < 0 or any(e < 0 for e in self.decay_epochs):
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


def load_train_config(path, base: TrainConfig) -> TrainConfig:
    """Parse `key = value` lines (# comments) over base into a TrainConfig.
    Keys apply in file order, so a value that parses but fails a check
    names its line too."""
    cfg = base
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
    """Row by row, rng.sample(n, c) from its c randrange draws' (m, c) offsets;
    position j >= c sits in slot c + (the first swap to reach j, by np.unique)."""
    m, c = offsets.shape
    j = np.arange(c) + offsets
    key = j + np.arange(m)[:, None] * (int(j.max()) + 1)
    _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    slot = np.where(j < c, j, c + first[inverse].reshape(m, c) % c)
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
    # a chunk's p * k draws per step stay under 2^13 cells, or take one step
    chunk = max(1, 2**13 // (p * k))
    for at in range(0, steps, chunk):
        drawn = words[at:at + chunk]
        ids = _fisher_yates((drawn[:, :p] % (len(rows) - np.arange(p)).astype(np.uint64)).astype(np.int64))
        n = sizes[ids].reshape(-1, 1)  # each picked identity's rows: bounds n - i, or n with replacement
        bounds = np.where(n >= k, n - np.arange(k), n).astype(np.uint64)
        picks = (drawn[:, p:].reshape(-1, k) % bounds).astype(np.int64)
        swapped = n[:, 0] >= k  # the identities drawn without replacement
        if swapped.any():
            picks[swapped] = _fisher_yates(picks[swapped])
        schedule[at:at + chunk] = flat[first[ids].reshape(-1, 1) + picks].reshape(len(drawn), -1)
    return schedule


# the TrainConfig fields that may differ between the slots of one stack
_PER_SLOT = ("method", "sigma", "seed")


class _Plan(NamedTuple):
    """The step kernel's view of a method-major stack of slots."""

    slices: dict[str, slice]  # each method's slots, empty where the stack has none
    sigma: np.ndarray         # every slot's sigma, shaped (S, 1, 1)
    through: bool             # grad_through_transition
    weight: float             # deep_supervision_weight


def _plan(methods: Sequence[str], sigmas: Sequence[float], cfg: TrainConfig) -> _Plan:
    """The plan of slots with these methods, in METHODS order, and
    sigmas; cfg gives the fields that the slots share."""
    slices, stop = {}, 0
    for method in METHODS:
        start, stop = stop, stop + methods.count(method)
        slices[method] = slice(start, stop)
    return _Plan(slices, np.array(sigmas, dtype=np.float64).reshape(-1, 1, 1),
                 cfg.grad_through_transition, cfg.deep_supervision_weight)


def _step(x: np.ndarray, y: np.ndarray, model: EmbedModel, clf: np.ndarray,
          clf_orig: np.ndarray, plan: _Plan):
    """Losses and parameter gradients of one step of S slots in lockstep.

    x (S, n, d) holds each slot's batch and y (S, n) its valid class ids;
    model and clf are stacks of the slots' parameters, clf_orig that of the
    U unshared slots' second classifiers, (U, C, d) with U maybe 0.  Each
    method is a slice of the stack, and each part runs once per stack: the
    embedding and its backward pass on every slot, the transform on the
    tail of transformed slots (from the first sft slot on), one margin
    softmax on every slot's transformed features with clf and on the tail's
    embeddings with the classifier that scores them (clf_orig for the
    unshared slots, which come last), and one ncut loss on the ncut slice.

    Returns (loss_orig, loss_sft, grads), the losses shaped (S,).  loss_sft
    is the classifier loss on transformed features (the embedding itself
    for the baseline, the graph-cut loss for ncut); loss_orig is the
    classifier loss on the untransformed embedding, which contributes
    gradient only under deep supervision and ncut (it is still reported
    otherwise, for the log).  grads holds the gradients of
    model.parameters() + [clf, clf_orig], each with a leading slot axis.
    """
    emb, cache = model.forward(x)
    slots = len(emb)
    shared, unshared = plan.slices["sft+ds_shared"], plan.slices["sft+ds_unshared"]
    moved = slice(plan.slices["sft"].start, slots)
    orig = slots - moved.start  # moved slot i's embedding is row i + orig of the softmax stack
    inputs, labels, weights = emb, y, clf
    if orig:  # a stack with no transformed slot skips the transform
        forward = _transition_from_features(emb[moved], plan.sigma[moved])
        inputs = np.concatenate([emb[:moved.start], forward[2] @ emb[moved], emb[moved]])
        labels = np.concatenate([y, y[moved]])
        weights = np.concatenate([clf, clf[moved.start:unshared.start], clf_orig])
    loss, grad_in, grad_w = _am_softmax_grad(inputs, labels, *_unit_rows(weights))
    loss_sft, grad_emb, grad_clf = loss[:slots], grad_in[:slots], grad_w[:slots]
    loss_orig = loss_sft.copy()
    if orig:
        grad_emb[moved] = _sft_backward(emb[moved], plan.sigma[moved], grad_emb[moved], forward, plan.through)
        # the embedding's loss: logged alone under sft, a weighted second
        # term under deep supervision
        loss_orig[moved] = loss[slots:]
        grad_emb[shared.start:] += plan.weight * grad_in[shared.start + orig:]
        grad_clf[shared] += plan.weight * grad_w[shared.start + orig:unshared.start + orig]
    if (ncut := plan.slices["ncut"]).start < ncut.stop:  # the graph-cut loss beside the classifier loss
        loss_sft[ncut], grad_graph = ncut_loss(emb[ncut], y[ncut], plan.sigma[ncut])
        grad_emb[ncut] += grad_graph
    grad_orig = plan.weight * grad_w[unshared.start + orig:]
    return loss_orig, loss_sft, model.backward(cache, grad_emb) + [grad_clf, grad_orig]


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
    """One run of a stack, prepared when that stack starts to train."""

    cfg: TrainConfig
    arrays: list[np.ndarray]  # initial parameters in _step's gradient order
    schedule: np.ndarray      # its (steps, p*k) PK schedule, as rows of the stacked data
    train_rows: np.ndarray    # its dataset's train rows in the stacked data


# overflow on the way to divergence is reported once, by the epoch check
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _train(runs: list) -> list[TrainResult]:
    """Train (features, manifest, cfg) runs, each stack of equal shape in
    lockstep; results in run order.

    One pass checks every run and groups the runs into stacks.  Then each
    stack in turn draws its slots' inits and PK schedules, trains and drops
    its schedules.  Runs of one seed share one draw of the model and
    classifier init across the call, and the runs of a stack whose
    (dataset, p, k, steps, rng state after init) agree share one draw of
    the PK schedule.
    """
    datasets: dict[tuple[int, int], tuple] = {}
    data, class_ids = [], []
    stacks: dict[tuple, list[int]] = {}
    start = 0
    for i, (features, manifest, cfg) in enumerate(runs):
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
        _, train_rows, num_classes = datasets[id(features), id(manifest)]
        if num_classes < cfg.p:  # sample_pk's check, before p sizes anything; as p >= 2, needs 2+ identities
            raise ValueError(f"need {cfg.p} train identities, manifest has {num_classes}")
        batches = max(1, len(train_rows) // (cfg.p * cfg.k))
        group = tuple(getattr(cfg, f.name) for f in fields(cfg) if f.name not in _PER_SLOT)
        stacks.setdefault((group, features.d, num_classes, batches), []).append(i)

    data = data[0] if len(data) == 1 else np.concatenate(data)
    class_ids = np.concatenate(class_ids)
    inits: dict[tuple, tuple] = {}
    results = [None] * len(runs)
    for (_, d, num_classes, batches), members in stacks.items():
        members.sort(key=lambda i: METHODS.index(runs[i][2].method))
        schedules: dict[tuple, np.ndarray] = {}
        slots = []
        for i in members:
            features, manifest, cfg = runs[i]
            offset, train_rows, _ = datasets[id(features), id(manifest)]
            dims = (cfg.seed, d, cfg.hidden_dim, cfg.embed_dim, num_classes)
            if dims not in inits:
                rng = Xoshiro256StarStar(cfg.seed)
                model = EmbedModel.init(d, cfg.hidden_dim, cfg.embed_dim, rng)
                inits[dims] = (model.parameters() + [_classifier_init(num_classes, cfg.embed_dim, rng)], rng)
            arrays, rng = inits[dims]
            if cfg.method == "sft+ds_unshared":  # its second classifier draws on from a copy
                rng = copy.deepcopy(rng)
                arrays = arrays + [_classifier_init(num_classes, cfg.embed_dim, rng)]
            steps = cfg.epochs * batches
            key = (id(features), id(manifest), cfg.p, cfg.k, steps, rng.getstate())
            if key not in schedules:  # from a copy, so the rng still keys this seed's later runs
                schedules[key] = _pk_schedule(manifest, cfg.p, cfg.k, steps, copy.deepcopy(rng))
                schedules[key] += offset
            slots.append(_Slot(cfg, arrays, schedules[key], train_rows))
        for i, result in zip(members, _train_stack(slots, batches, data, class_ids)):
            results[i] = result
    return results


def _train_stack(slots: list[_Slot], batches: int, data: np.ndarray,
                 class_ids: np.ndarray) -> list[TrainResult]:
    """The training loop, of `batches` steps an epoch, of one method-major
    stack of slots that share every field but _PER_SLOT, in lockstep.

    Each parameter is one np.stack of the slots' arrays, in _step's
    gradient order, and the unshared slots, which come last, stack their
    second classifier apart, in a stack that may be empty.  The momentum
    update runs per stack, with the operations of one run's update of that
    array.
    """
    cfg = slots[0].cfg  # for the fields the slots share
    layers = 2 if cfg.hidden_dim else 1  # weight arrays of the model
    common = 2 * layers + 1  # arrays that every slot has: the model's and the classifier
    plan = _plan([slot.cfg.method for slot in slots], [slot.cfg.sigma for slot in slots], cfg)
    unshared = plan.slices["sft+ds_unshared"]
    params = [np.stack(arrays) for arrays in zip(*(slot.arrays[:common] for slot in slots))]
    clf_orig = np.reshape([slot.arrays[common] for slot in slots[unshared]], (-1,) + params[-1].shape[1:])
    params.append(clf_orig)
    velocity = [np.zeros_like(param) for param in params]
    model = EmbedModel(params[:layers], params[layers:2 * layers])
    clf = params[2 * layers]

    results = []
    for i, slot in enumerate(slots):  # each slot's result, on its row of the stacks
        own = [param[i] for param in params[:common]]
        orig = clf_orig[i - unshared.start] if slot.cfg.method == "sft+ds_unshared" else None
        results.append(TrainResult(EmbedModel(own[:layers], own[layers:2 * layers]), own[-1], orig, []))
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        sum_orig = np.zeros(len(slots))
        sum_sft = np.zeros(len(slots))
        for t in range(epoch * batches, (epoch + 1) * batches):
            rows = np.stack([slot.schedule[t] for slot in slots])
            loss_orig, loss_sft, grads = _step(data[rows], class_ids[rows], model, clf, clf_orig, plan)
            sum_orig += loss_orig
            sum_sft += loss_sft
            for param, vel, grad in zip(params, velocity, grads, strict=True):
                if len(param):  # an empty stack has nothing to update
                    vel *= MOMENTUM
                    vel -= lr * grad
                    param += vel
        if not np.isfinite(sum_orig + sum_sft).all():
            raise ValueError(f"training diverged in epoch {epoch}: the loss is not finite")
        for slot, result, loss_orig, loss_sft in zip(slots, results, sum_orig, sum_sft):
            line = f"{epoch}\t{lr:.12g}\t{float(loss_orig) / batches:.12g}\t{float(loss_sft) / batches:.12g}"
            if cfg.diagnostics:
                emb = result.model.embed(data[slot.train_rows])
                labels = class_ids[slot.train_rows]
                intra, inter = affinity_class_means(affinity(FeatureMatrix(emb), slot.cfg.sigma), labels)
                graph_val, _ = ncut_loss(emb, labels, slot.cfg.sigma)
                line += f"\t{intra:.12g}\t{inter:.12g}\t{graph_val:.12g}"
            result.log.append(line)
    return results
