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

from .data import DatasetManifest, FeatureMatrix, Partition, check_paired
from .graphcut import affinity_class_means, ncut_loss
from .rng import Xoshiro256StarStar
from .transform import (
    _check_affinity_sigma,
    _check_sigma,
    _sft_backward,
    _transition_from_features,
    _unit_backward,
    _unit_rows,
    affinity,
)

# the ablation's cells: no transform, the transform alone, with deep
# supervision through an unshared or the shared classifier, and the ncut loss
METHODS = ("baseline", "sft", "sft+ds_unshared", "sft+ds_shared", "ncut")
# the fixed optimiser recipe: lr_at's warmup start and decay step, SGD momentum
WARMUP_START_LR = 0.001
DECAY_FACTOR = 0.1
MOMENTUM = 0.9


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
        # with diagnostics on, every epoch's log line builds affinity()
        (_check_affinity_sigma if self.diagnostics else _check_sigma)(self.sigma)
        if self.epochs < 0 or self.warmup_epochs < 0:
            raise ValueError("counts must be non-negative")
        if self.base_lr <= 0:
            raise ValueError("base_lr must be positive")
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
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

    :meth:`parameters` owns the parameter order; :meth:`backward` returns
    the gradients in that order.
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
            w = np.array(rng.normals(fan_in * fan_out)).reshape(fan_in, fan_out) * scale
            weights.append(w)
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    def parameters(self) -> list[np.ndarray]:
        """Every parameter array: the weights, then the biases, input layer first."""
        return self.weights + self.biases

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        inputs = [x]  # each layer's input: x, then the rectified hidden layers
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            inputs.append(np.maximum(inputs[-1] @ w + b, 0.0))
        norms, out = _unit_rows(inputs[-1] @ self.weights[-1] + self.biases[-1])
        return out, (inputs, norms, out)

    def embed(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]

    def backward(self, cache: tuple, grad_out: np.ndarray) -> list[np.ndarray]:
        """Gradients of :meth:`parameters`, in its order."""
        inputs, norms, out = cache
        grads = [_unit_backward(grad_out, out, norms)]  # per layer output, the last first
        for h, w in zip(inputs[:0:-1], self.weights[:0:-1]):
            grads.append((grads[-1] @ w.T) * (h > 0))  # through the rectifier
        grads.reverse()
        return [h.T @ g for h, g in zip(inputs, grads)] + [g.sum(axis=0) for g in grads]


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
    def init(cls, num_classes: int, embed_dim: int, rng: Xoshiro256StarStar) -> "AmSoftmaxClassifier":
        """Random rows scaled by 1/sqrt(embed_dim)."""
        w = np.array(rng.normals(num_classes * embed_dim)).reshape(num_classes, embed_dim)
        return cls(w / np.sqrt(embed_dim))

    @property
    def num_classes(self) -> int:
        return self.weight.shape[0]


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


def am_softmax_value(x: np.ndarray, labels: np.ndarray, clf: AmSoftmaxClassifier) -> float:
    """Forward-only loss value (used for logging and finite differences)."""
    _check_labels(labels, x.shape[0], clf.num_classes)
    return _am_softmax_parts(x, labels, _unit_rows(clf.weight)[1], clf)[-1]


def am_softmax_loss(x: np.ndarray, labels: np.ndarray, clf: AmSoftmaxClassifier):
    """Mean margin-softmax loss plus gradients w.r.t. features and weights.

    Feature rows and classifier rows are both normalized inside, so the
    loss depends only on directions; the returned gradients are taken
    w.r.t. the raw (unnormalized) inputs.
    """
    _check_labels(labels, x.shape[0], clf.num_classes)
    return _am_softmax_grad(x, labels, *_unit_rows(clf.weight), clf)


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


# schedules memoised per manifest: the five ablation cells start from two rng
# states (only the unshared cell's second classifier draws more init words),
# so two entries keep both while each sweep reuses one key at a time
_PK_SCHEDULE_MEMO = 2


def _pk_schedule(manifest: DatasetManifest, p: int, k: int, steps: int,
                 rng: Xoshiro256StarStar) -> np.ndarray:
    """Read-only (steps, p*k) train row indices of `steps` successive
    sample_pk draws.

    The draws depend only on the manifest, p, k, steps and the rng state,
    so the schedule is memoised on the manifest under that key, keeping
    the _PK_SCHEDULE_MEMO most recently used.  A memo hit leaves rng
    unadvanced, which is harmless: train() reads nothing from rng after
    its schedule.
    """
    memo = manifest.pk_schedules
    key = (p, k, steps, rng.getstate())
    schedule = memo.pop(key, None)
    if schedule is None:
        rows = [sample_pk(manifest, p, k, rng).indices for _ in range(steps)]
        schedule = np.array(rows, dtype=np.int64).reshape(steps, p * k)
        schedule.setflags(write=False)
    memo[key] = schedule  # reinserted last: the most recently used
    if len(memo) > _PK_SCHEDULE_MEMO:
        del memo[next(iter(memo))]
    return schedule


def forward_backward(x: np.ndarray, labels: np.ndarray, model: EmbedModel,
                     clf: AmSoftmaxClassifier, cfg: TrainConfig,
                     clf_orig: AmSoftmaxClassifier | None = None):
    """One training step's losses and parameter gradients under cfg.method.

    Returns (loss_orig, loss_sft, grads).  grads is a list of gradients
    in the order model.parameters() + [clf.weight], then clf_orig.weight
    under sft+ds_unshared.  loss_sft is the classifier loss on
    transformed features (the embedding itself for the baseline, the
    graph-cut loss for ncut); loss_orig is the classifier loss on the
    untransformed embedding, which contributes gradient only under deep
    supervision and ncut (it is still reported otherwise, for the log).

    The transform's forward pass feeds its backward pass, and the margin
    softmax runs once per distinct (input, classifier) pair.
    """
    emb, cache = model.forward(x)
    _check_labels(labels, emb.shape[0], clf.num_classes)
    w_norms, w_unit = _unit_rows(clf.weight)
    method = cfg.method

    if method == "ncut":
        graph_loss, grad_emb_graph = ncut_loss(emb, labels, cfg.sigma)
        ce_loss, grad_emb_ce, grad_clf = _am_softmax_grad(emb, labels, w_norms, w_unit, clf)
        return ce_loss, graph_loss, model.backward(cache, grad_emb_graph + grad_emb_ce) + [grad_clf]
    if method == "baseline":
        loss, grad_emb, grad_clf = _am_softmax_grad(emb, labels, w_norms, w_unit, clf)
        return loss, loss, model.backward(cache, grad_emb) + [grad_clf]

    if method == "sft+ds_unshared":
        if clf_orig is None:
            raise ValueError("unshared deep supervision needs the second classifier")
        _check_labels(labels, emb.shape[0], clf_orig.num_classes)
    forward = _transition_from_features(emb, cfg.sigma)
    loss_sft, grad_z, grad_clf = _am_softmax_grad(forward[2] @ emb, labels, w_norms, w_unit, clf)
    grad_emb = _sft_backward(emb, cfg.sigma, grad_z, forward, cfg.grad_through_transition)
    if method == "sft":
        loss_orig = _am_softmax_parts(emb, labels, w_unit, clf)[-1]
        return loss_orig, loss_sft, model.backward(cache, grad_emb) + [grad_clf]

    weight = cfg.deep_supervision_weight
    if method == "sft+ds_shared":
        loss_orig, grad_emb_orig, grad_clf_orig_path = _am_softmax_grad(emb, labels, w_norms, w_unit, clf)
        clf_grads = [grad_clf + weight * grad_clf_orig_path]
    else:
        loss_orig, grad_emb_orig, grad_unshared = _am_softmax_grad(
            emb, labels, *_unit_rows(clf_orig.weight), clf_orig)
        clf_grads = [grad_clf, weight * grad_unshared]
    return loss_orig, loss_sft, model.backward(cache, grad_emb + weight * grad_emb_orig) + clf_grads


@dataclass
class TrainResult:
    model: EmbedModel
    classifier: AmSoftmaxClassifier
    classifier_orig: AmSoftmaxClassifier | None
    log: list[str]


# overflow on the way to divergence is reported once, by the epoch check
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(features: FeatureMatrix, manifest: DatasetManifest, cfg: TrainConfig) -> TrainResult:
    """Full training loop, deterministic given the config seed.

    `features` holds one row per record of `manifest`.  Log lines are
    `epoch<TAB>lr<TAB>loss_orig<TAB>loss_sft`, with mean intra/inter
    affinity and the graph-cut loss of the train embeddings appended when
    cfg.diagnostics is set.
    """
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
    clf = AmSoftmaxClassifier.init(len(groups), cfg.embed_dim, rng)
    clf_orig = None
    if cfg.method == "sft+ds_unshared":
        clf_orig = AmSoftmaxClassifier.init(len(groups), cfg.embed_dim, rng)

    # every parameter is rebound to its view of one flat buffer laid out in
    # forward_backward's gradient order, so the momentum update is a few
    # whole-buffer ufunc calls
    classifiers = [clf] if clf_orig is None else [clf, clf_orig]
    arrays = model.parameters() + [c.weight for c in classifiers]
    params = np.concatenate([a.ravel() for a in arrays])
    ends = np.cumsum([a.size for a in arrays])
    view = {id(a): params[end - a.size:end].reshape(a.shape) for a, end in zip(arrays, ends)}
    model.weights = [view[id(w)] for w in model.weights]
    model.biases = [view[id(b)] for b in model.biases]
    for c in classifiers:
        c.weight = view[id(c.weight)]
    velocity = np.zeros_like(params)
    step = np.empty_like(params)

    batches = max(1, len(train_idx) // (cfg.p * cfg.k))
    schedule = _pk_schedule(manifest, cfg.p, cfg.k, cfg.epochs * batches, rng)
    log: list[str] = []
    for epoch in range(cfg.epochs):
        lr = lr_at(epoch, cfg)
        sum_orig = 0.0
        sum_sft = 0.0
        for rows in schedule[epoch * batches:(epoch + 1) * batches]:
            x = features.data[rows]
            y = class_ids[rows]
            loss_orig, loss_sft, grads = forward_backward(x, y, model, clf, cfg, clf_orig)
            sum_orig += loss_orig
            sum_sft += loss_sft
            np.concatenate([g.ravel() for g in grads], out=step)
            step *= lr
            velocity *= MOMENTUM
            velocity -= step
            params += velocity
        if not math.isfinite(sum_orig + sum_sft):
            raise ValueError(f"training diverged in epoch {epoch}: the loss is not finite")
        line = f"{epoch}\t{lr:.12g}\t{sum_orig / batches:.12g}\t{sum_sft / batches:.12g}"
        if cfg.diagnostics:
            emb = model.embed(features.data[train_idx])
            labels = class_ids[train_idx]
            intra, inter = affinity_class_means(affinity(FeatureMatrix(emb), cfg.sigma), Partition(labels))
            graph_val, _ = ncut_loss(emb, labels, cfg.sigma)
            line += f"\t{intra:.12g}\t{inter:.12g}\t{graph_val:.12g}"
        log.append(line)
    return TrainResult(model, clf, clf_orig, log)

