"""Spectral feature transformation for embedding-space retrieval.

Feature rows of a batch define an exponentiated-cosine affinity graph;
row-normalizing it gives a random-walk transition matrix whose product
with the features pulls every embedding toward its neighborhood.  The
package provides the transform and its gradients, graph-cut and
random-walk diagnostics, a toy supervised trainer with margin-softmax
deep supervision, retrieval evaluation (CMC/mAP) and top-n re-ranking.
"""

from .data import (
    DatasetManifest,
    FeatureMatrix,
    SampleRecord,
    SyntheticSpec,
    generate_synthetic,
    hold_out_eval_split,
    load_features,
    load_manifest,
    save_features,
    save_manifest,
)
from .graphcut import class_ncut_escape, ncut_loss
from .ranking import (
    EvalReport,
    QueryRanking,
    RankingList,
    evaluate,
    k_reciprocal_rerank,
    rank,
    refine_ranking,
)
from .rng import Xoshiro256StarStar
from .training import (
    EmbedModel,
    TrainConfig,
    lr_at,
    sample_pk,
    train,
)
from .transform import (
    ZeroNormRowError,
    affinity,
    sft_backward,
    sft_transform,
)

__version__ = "0.1.0"
