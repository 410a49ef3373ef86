"""Unpaired multi-view clustering with multi-level reliable guidance.

Per-view autoencoders embed disjoint sample sets into a shared-size
latent space; a schedule of coarse-to-fine clustering levels drives
contrastive losses inside each view and against the concatenated
common representation. Views with stronger silhouettes guide the rest:
each guided view's heavy-tailed cluster assignments are pulled, by
cross-entropy, toward the centroid of each sample's common cluster,
weighted by |reliable set| / V^2. Final assignments come from
K-means on the concatenated latents.
"""

from .cluster import Assignment, cosine, cosine_matrix, hungarian_max, kmeans, silhouette_view
from .data import (
    BatchPlan,
    MultiViewDataset,
    PairedDataset,
    SyntheticSpec,
    UnpairRecipe,
    load,
    load_paired,
    save_dataset,
    scale_dataset,
    synthesize,
    unpair,
)
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    NumericalError,
    ShapeError,
    UmclustError,
)
from .losses import (
    ClusterSet,
    LevelState,
    LossWeights,
    PairSets,
    build_inner_pairs,
    common_contrastive_loss,
    cross_view_guidance_loss,
    inner_contrastive_loss,
    recon_orth_loss,
    recon_orth_term,
    select_reliable,
    total_loss,
)
from .metrics import MetricsReport, acc, build_report, export_embeddings, nmi, pairwise_f1
from .train import (
    RunArtifacts,
    Seeds,
    TrainConfig,
    active_prefix_length,
    refresh_level_state,
    reliability_coeff,
    run_hash,
    train,
)

__version__ = "0.1.0"
