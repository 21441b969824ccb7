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

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .data import DatasetManifest, FeatureMatrix, Partition, SyntheticSpec, check_paired, generate_synthetic
from .graphcut import affinity_class_means, ncut_loss
from .rng import Xoshiro256StarStar
from .transform import (
    _as_array,
    _check_sigma,
    _sft_backward,
    _transition_from_features,
    _unit_backward,
    _unit_rows,
    affinity,
)

DEEP_SUPERVISION_MODES = ("off", "shared", "unshared")
OBJECTIVES = ("sft", "ncut")


@dataclass(frozen=True)
class TrainConfig:
    p: int = 16                      # identities per batch
    k: int = 8                       # samples per identity
    sigma: float = 0.1
    epochs: int = 140
    warmup_epochs: int = 20
    base_lr: float = 0.1
    warmup_start_lr: float = 0.001
    decay_epochs: tuple[int, ...] = (80, 100)
    decay_factor: float = 0.1
    momentum: float = 0.9
    deep_supervision: str = "shared"
    grad_through_transition: bool = True
    use_sft: bool = True             # identity transform when False (baseline runs)
    deep_supervision_weight: float = 1.0
    objective: str = "sft"
    ncut_ce_weight: float = 1.0
    margin: float = 0.3
    scale: float = 15.0
    hidden_dim: int = 64
    embed_dim: int = 32
    batches_per_epoch: int = 0       # 0: floor(train size / (p*k)), at least 1
    diagnostics: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.p < 2 or self.k < 2:
            raise ValueError("batches need p >= 2 identities and k >= 2 samples each")
        _check_sigma(self.sigma)
        if self.epochs < 0 or self.warmup_epochs < 0 or self.batches_per_epoch < 0:
            raise ValueError("counts must be non-negative")
        if self.base_lr <= 0 or self.warmup_start_lr <= 0 or self.decay_factor <= 0:
            raise ValueError("learning rates and decay factor must be positive")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.deep_supervision not in DEEP_SUPERVISION_MODES:
            raise ValueError(f"unknown deep_supervision mode {self.deep_supervision!r}")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.margin < 0 or self.scale <= 0:
            raise ValueError("margin must be >= 0 and scale > 0")
        if self.hidden_dim < 0 or self.embed_dim < 1:
            raise ValueError("bad model dimensions")
        object.__setattr__(self, "decay_epochs", tuple(int(e) for e in self.decay_epochs))


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
    """Parse `key = value` lines (# comments) into a TrainConfig."""
    base = base or TrainConfig()
    kinds = {f.name: f.type for f in fields(TrainConfig)}
    updates = {}
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
            updates[key] = PARSERS[kinds[key]](value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
    return replace(base, **updates)


def lr_at(epoch: int, cfg: TrainConfig) -> float:
    """Learning rate at an epoch: linear warmup then stepwise decay."""
    if epoch < 0 or epoch >= cfg.epochs:
        raise ValueError(f"epoch {epoch} outside [0, {cfg.epochs})")
    if epoch < cfg.warmup_epochs:
        frac = epoch / cfg.warmup_epochs
        return cfg.warmup_start_lr + (cfg.base_lr - cfg.warmup_start_lr) * frac
    lr = cfg.base_lr
    for boundary in cfg.decay_epochs:
        if epoch >= boundary:
            lr *= cfg.decay_factor
    return lr


@dataclass
class EmbedModel:
    """One or two affine maps with a rectifier between, l2-normalized output."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, input_dim: int, hidden_dim: int, embed_dim: int, rng: Xoshiro256StarStar) -> "EmbedModel":
        """Random init scaled by 1/sqrt(fan_in); hidden_dim 0 drops the hidden layer."""
        dims = [input_dim, embed_dim] if hidden_dim == 0 else [input_dim, hidden_dim, embed_dim]
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            scale = 1.0 / np.sqrt(fan_in)
            w = np.array(rng.normals(fan_in * fan_out)).reshape(fan_in, fan_out) * scale
            weights.append(w)
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        pre = x @ self.weights[0] + self.biases[0]
        if len(self.weights) == 2:
            act = np.maximum(pre, 0.0)
            raw = act @ self.weights[1] + self.biases[1]
        else:
            act = None
            raw = pre
        norms, out = _unit_rows(raw)
        return out, (x, pre, act, norms, out)

    def embed(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: tuple, grad_out: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Parameter gradients [(dW, db), ...] matching the layer order."""
        x, pre, act, norms, out = cache
        grad_raw = _unit_backward(grad_out, out, norms)
        upper = []
        if len(self.weights) == 2:
            upper = [(act.T @ grad_raw, grad_raw.sum(axis=0))]
            grad_raw = (grad_raw @ self.weights[1].T) * (pre > 0)  # through the rectifier
        return [(x.T @ grad_raw, grad_raw.sum(axis=0))] + upper


@dataclass
class AmSoftmaxClassifier:
    """Cosine classifier with additive margin and logit scaling."""

    weight: np.ndarray  # (num_classes, embed_dim)
    margin: float = 0.3
    scale: float = 15.0

    def __post_init__(self):
        if self.margin < 0 or self.scale <= 0:
            raise ValueError("margin must be >= 0 and scale > 0")

    @classmethod
    def init(cls, num_classes: int, embed_dim: int, rng: Xoshiro256StarStar,
             margin: float = 0.3, scale: float = 15.0) -> "AmSoftmaxClassifier":
        w = np.array(rng.normals(num_classes * embed_dim)).reshape(num_classes, embed_dim)
        return cls(w / np.sqrt(embed_dim), margin, scale)

    @property
    def num_classes(self) -> int:
        return self.weight.shape[0]


def _as_labels(labels) -> np.ndarray:
    return labels.labels if isinstance(labels, Partition) else np.asarray(labels, dtype=np.int64)


def _check_labels(y: np.ndarray, n: int, num_classes: int) -> None:
    if y.shape != (n,):
        raise ValueError(f"labels shape {y.shape} does not match {n} samples")
    if y.min() < 0 or y.max() >= num_classes:
        raise ValueError(
            f"label {int(y.max() if y.max() >= num_classes else y.min())} "
            f"out of range for {num_classes} classes"
        )


def _am_softmax_parts(x: np.ndarray, y: np.ndarray, w_unit: np.ndarray, clf: AmSoftmaxClassifier):
    """Forward pass on raw rows x and valid labels y against unit classifier rows."""
    feat_norms, feat = _unit_rows(x)
    cos = feat @ w_unit.T
    logits = clf.scale * cos
    rows = np.arange(x.shape[0])
    target = clf.scale * (cos[rows, y] - clf.margin)
    logits[rows, y] = target
    zmax = logits.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.exp(logits - zmax).sum(axis=1))
    return feat, feat_norms, logits, lse, float((lse - target).mean())


def _am_softmax_grad(x: np.ndarray, y: np.ndarray, w_norms: np.ndarray, w_unit: np.ndarray,
                     clf: AmSoftmaxClassifier) -> tuple[float, np.ndarray, np.ndarray]:
    """(loss, d loss / d x, d loss / d classifier weight) for valid labels."""
    feat, feat_norms, logits, lse, loss = _am_softmax_parts(x, y, w_unit, clf)
    n = x.shape[0]
    grad_logits = np.exp(logits - lse[:, None])
    grad_logits[np.arange(n), y] -= 1.0
    grad_cos = clf.scale * grad_logits / n
    grad_x = _unit_backward(grad_cos @ w_unit, feat, feat_norms)
    grad_w = _unit_backward(grad_cos.T @ feat, w_unit, w_norms)
    return loss, grad_x, grad_w


def am_softmax_value(features, labels, clf: AmSoftmaxClassifier) -> float:
    """Forward-only loss value (used for logging and finite differences)."""
    x, y = _as_array(features), _as_labels(labels)
    _check_labels(y, x.shape[0], clf.num_classes)
    return _am_softmax_parts(x, y, _unit_rows(clf.weight)[1], clf)[-1]


def am_softmax_loss(features, labels, clf: AmSoftmaxClassifier):
    """Mean margin-softmax loss plus gradients w.r.t. features and weights.

    Feature rows and classifier rows are both normalized inside, so the
    loss depends only on directions; the returned gradients are taken
    w.r.t. the raw (unnormalized) inputs.
    """
    x, y = _as_array(features), _as_labels(labels)
    _check_labels(y, x.shape[0], clf.num_classes)
    loss, grad_x, grad_w = _am_softmax_grad(x, y, *_unit_rows(clf.weight), clf)
    return loss, (FeatureMatrix(grad_x) if isinstance(features, FeatureMatrix) else grad_x), grad_w


@dataclass(frozen=True)
class PKBatch:
    """Row indices of p identities x k samples and their identity labels."""

    indices: np.ndarray
    identities: np.ndarray

    def __post_init__(self):
        idx = np.asarray(self.indices, dtype=np.int64)
        ids = np.asarray(self.identities, dtype=np.int64)
        if idx.shape != ids.shape or idx.ndim != 1:
            raise ValueError("indices and identities must be matching 1-d vectors")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "identities", ids)


def sample_pk(manifest: DatasetManifest, p: int, k: int, rng: Xoshiro256StarStar) -> PKBatch:
    """Sample p distinct train identities, k rows each.

    Identities are drawn uniformly without replacement; within an
    identity, rows are drawn without replacement when it has at least k
    samples and with replacement otherwise.
    """
    groups = manifest.train_groups
    if len(groups) < p:
        raise ValueError(f"need {p} train identities, manifest has {len(groups)}")
    indices, labels = [], []
    for pos in rng.sample(len(groups), p):
        ident, rows = groups[pos]
        if len(rows) >= k:
            picks = rng.sample(len(rows), k)
        else:
            picks = [rng.randrange(len(rows)) for _ in range(k)]
        indices.extend([rows[j] for j in picks])
        labels.extend([ident] * k)
    return PKBatch(np.array(indices), np.array(labels))


@dataclass
class Grads:
    model: list[tuple[np.ndarray, np.ndarray]]
    clf: np.ndarray
    clf_orig: np.ndarray | None = None


def forward_backward(x: np.ndarray, labels: np.ndarray, model: EmbedModel,
                     clf: AmSoftmaxClassifier, cfg: TrainConfig,
                     clf_orig: AmSoftmaxClassifier | None = None):
    """One training step's losses and parameter gradients.

    Returns (loss_orig, loss_sft, Grads).  loss_sft is the classifier
    loss on transformed features (or the graph-cut loss under the ncut
    objective); loss_orig is the classifier loss on the untransformed
    embedding, which contributes gradient only when deep supervision is
    on (it is still reported otherwise, for the log).

    Each piece of work runs once: the transform's forward pass feeds its
    backward pass, and the margin softmax runs once per distinct (input,
    classifier) pair, so without the transform the embedding's loss is
    the transformed one.
    """
    labels = _as_labels(labels)
    emb, cache = model.forward(np.asarray(x, dtype=np.float64))
    _check_labels(labels, emb.shape[0], clf.num_classes)
    w_norms, w_unit = _unit_rows(clf.weight)

    if cfg.objective == "ncut":
        graph_loss, grad_emb_graph = ncut_loss(emb, Partition(labels), cfg.sigma)
        ce_loss, grad_emb_ce, grad_clf = _am_softmax_grad(emb, labels, w_norms, w_unit, clf)
        grad_emb = grad_emb_graph + cfg.ncut_ce_weight * grad_emb_ce
        grads = Grads(model.backward(cache, grad_emb), cfg.ncut_ce_weight * grad_clf)
        return ce_loss, graph_loss, grads

    mode = cfg.deep_supervision
    if mode == "unshared":
        if clf_orig is None:
            raise ValueError("unshared deep supervision needs the second classifier")
        _check_labels(labels, emb.shape[0], clf_orig.num_classes)
    if cfg.use_sft:
        forward = _transition_from_features(emb, cfg.sigma)
        z = forward[2] @ emb
    else:
        z = emb
    on_z = _am_softmax_grad(z, labels, w_norms, w_unit, clf)
    loss_sft, grad_z, grad_clf = on_z
    if cfg.use_sft:
        grad_emb = _sft_backward(emb, cfg.sigma, grad_z, forward, cfg.grad_through_transition)
    else:
        grad_emb = grad_z

    weight = cfg.deep_supervision_weight
    clf_grad_orig = None
    if mode == "off":
        loss_orig = loss_sft if z is emb else _am_softmax_parts(emb, labels, w_unit, clf)[-1]
    elif mode == "shared":
        on_emb = on_z if z is emb else _am_softmax_grad(emb, labels, w_norms, w_unit, clf)
        loss_orig, grad_emb_orig, grad_clf_orig_path = on_emb
        grad_emb = grad_emb + weight * grad_emb_orig
        grad_clf = grad_clf + weight * grad_clf_orig_path
    else:
        loss_orig, grad_emb_orig, grad_unshared = _am_softmax_grad(
            emb, labels, *_unit_rows(clf_orig.weight), clf_orig)
        grad_emb = grad_emb + weight * grad_emb_orig
        clf_grad_orig = weight * grad_unshared
    return loss_orig, loss_sft, Grads(model.backward(cache, grad_emb), grad_clf, clf_grad_orig)


@dataclass
class TrainResult:
    model: EmbedModel
    classifier: AmSoftmaxClassifier
    classifier_orig: AmSoftmaxClassifier | None
    log: list[str]


# overflow on the way to divergence is reported once, by the epoch check
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(features, manifest: DatasetManifest | None, cfg: TrainConfig) -> TrainResult:
    """Full training loop, deterministic given the config seed.

    `features` may be a FeatureMatrix paired with `manifest`, or a
    SyntheticSpec (manifest None) that is generated on the spot.  Log
    lines are `epoch<TAB>lr<TAB>loss_orig<TAB>loss_sft`, with mean
    intra/inter affinity and the graph-cut loss of the train embeddings
    appended when cfg.diagnostics is set.
    """
    if isinstance(features, SyntheticSpec):
        if manifest is not None:
            raise ValueError("manifest must be None when generating from a spec")
        features, manifest = generate_synthetic(features)
    check_paired(features, manifest)

    train_idx = manifest.indices("train")
    if not train_idx:
        raise ValueError("manifest has no train rows")
    groups = manifest.train_groups
    if len(groups) < 2:
        raise ValueError("training needs at least 2 identities")
    # class id of every train row: its identity's rank among train identities
    class_ids = np.zeros(len(manifest), dtype=np.int64)
    for c, (_, rows) in enumerate(groups):
        class_ids[list(rows)] = c

    rng = Xoshiro256StarStar(cfg.seed)
    model = EmbedModel.init(features.d, cfg.hidden_dim, cfg.embed_dim, rng)
    clf = AmSoftmaxClassifier.init(len(groups), cfg.embed_dim, rng, cfg.margin, cfg.scale)
    clf_orig = None
    if cfg.objective == "sft" and cfg.deep_supervision == "unshared":
        clf_orig = AmSoftmaxClassifier.init(len(groups), cfg.embed_dim, rng, cfg.margin, cfg.scale)

    # every parameter becomes a view into one flat buffer, so the momentum
    # update is a few whole-buffer ufunc calls
    layers = len(model.weights)
    classifiers = [clf] if clf_orig is None else [clf, clf_orig]
    arrays = model.weights + model.biases + [c.weight for c in classifiers]
    params = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    views = [params[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)]
    model.weights, model.biases = views[:layers], views[layers:2 * layers]
    for c, view in zip(classifiers, views[2 * layers:]):
        c.weight = view
    velocity = np.zeros_like(params)
    step = np.empty_like(params)

    batches = cfg.batches_per_epoch or max(1, len(train_idx) // (cfg.p * cfg.k))
    log: list[str] = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        sum_orig = 0.0
        sum_sft = 0.0
        for _ in range(batches):
            batch = sample_pk(manifest, cfg.p, cfg.k, rng)
            x = features.data[batch.indices]
            y = class_ids[batch.indices]
            loss_orig, loss_sft, grads = forward_backward(x, y, model, clf, cfg, clf_orig)
            sum_orig += loss_orig
            sum_sft += loss_sft
            flat = [gw for gw, _ in grads.model] + [gb for _, gb in grads.model] + [grads.clf]
            if clf_orig is not None:
                flat.append(grads.clf_orig)
            np.concatenate([g.ravel() for g in flat], out=step)
            step *= lr
            velocity *= cfg.momentum
            velocity -= step
            params += velocity
        if not math.isfinite(sum_orig + sum_sft):
            raise ValueError(f"training diverged in epoch {epoch}: the loss is not finite")
        line = f"{epoch}\t{lr:.12g}\t{sum_orig / batches:.12g}\t{sum_sft / batches:.12g}"
        if cfg.diagnostics:
            emb = model.embed(features.data[train_idx])
            labels = Partition(class_ids[train_idx])
            intra, inter = affinity_class_means(affinity(FeatureMatrix(emb), cfg.sigma), labels)
            graph_val, _ = ncut_loss(emb, labels, cfg.sigma)
            line += f"\t{intra:.12g}\t{inter:.12g}\t{graph_val:.12g}"
        log.append(line)
    return TrainResult(model, clf, clf_orig, log)

