"""The trainer's scalar objective as an independent forward pass.

Finite differences of :func:`training_loss` check the closed-form
gradients of ``reference.forward_backward``, the trainer's step kernel on
one run.  It is composed from forward passes alone (the transform, the
ncut loss and the margin-softmax loss, which the one margin-softmax kernel
computes before its gradients), not derived from the fused step, so a slip
in that step cannot cancel out of the comparison.
"""

import numpy as np

from reference import am_softmax_value
from sftlab.graphcut import ncut_loss
from sftlab.training import EmbedModel, TrainConfig
from sftlab.transform import sft_transform_array


def training_loss(x: np.ndarray, labels: np.ndarray, model: EmbedModel,
                  clf: np.ndarray, cfg: TrainConfig,
                  clf_orig: np.ndarray | None = None) -> float:
    """Scalar objective that forward_backward differentiates."""
    emb = model.embed(x)
    if cfg.method == "ncut":
        graph_loss, _ = ncut_loss(emb, labels, cfg.sigma)
        return graph_loss + am_softmax_value(emb, labels, clf)
    z = emb if cfg.method == "baseline" else sft_transform_array(emb, cfg.sigma)
    total = am_softmax_value(z, labels, clf)
    if cfg.method == "sft+ds_shared":
        total += cfg.deep_supervision_weight * am_softmax_value(emb, labels, clf)
    elif cfg.method == "sft+ds_unshared":
        total += cfg.deep_supervision_weight * am_softmax_value(emb, labels, clf_orig)
    return total
