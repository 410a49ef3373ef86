"""Training orchestration.

Each epoch starts by re-clustering the full representations of every
view at all active levels and joining the views' clusters into a
common view by cluster-structure matching. The common view leaves the
refresh as labels only (one common cluster per sample and level),
which is all the cross-view loss terms read. The epoch then takes
ceil(max n_v / batch_size) steps of one `data.view_batches` batch per
view (a shorter view starts another reshuffled pass), building the
four-term objective and applying an adaptive-moment update.

`ClusterSet.active` gives the active levels: the coarsest for the
first quarter of the epochs, the two coarsest through the half point,
then all. The NT-Xent temperature is a constant, not a `TrainConfig`
(YAML ``train``) setting. Every view is guided on every step. After
the last epoch `evaluate` scores the model: the final assignment comes
from K-means (best of several restarts) on the concatenated eval-mode
latents, and the report scores it and a K-means of each view alone.
`umclust eval` calls the same `evaluate` on a model restored from its
checkpoint.

A run that stops before its last epoch saves the Adam moments and warm
centroids it needs to resume; a finished run saves only the model
(parameters and batch-norm statistics). Resuming builds the model and
the optimizer first, then reads the checkpoint entry by entry straight
into their parameters, statistics and moments, so the model is never
held twice; a checkpoint that is refused part-way raises before the
first epoch, and the half-filled model is dropped. Full-data encodes
record no autodiff graph.

The model trains in its own dtype (`nn.mlp.DTYPE`, float32): `train`
casts the features to it once, and every batch is a slice of that one
copy. What clusters and scores the model stays in float64:
`AutoencoderBundle.encode_all` upcasts each view's latents once per
call, so each refresh, its K-means and correspondence, the guidance
centroids and the final assignment and report see float64 latents.

A step's autodiff graph is a list of hand-derived nodes: one per
layer of every encoder and decoder it runs, one `closed_form` node per
loss term over all views, and one for their weighted total. Each step
keeps its memory only as long as something reads it: backward frees
every interior gradient and saved array as it passes the node, and the
parameter gradients are released as soon as Adam has read them, so a
refresh, `evaluate` or a checkpoint write never runs beside a dead
model-sized set of gradients.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .cluster import Assignment, cluster_means, kmeans, match_views
# silhouette_view is not called here: bench/spans.py wraps it by name in this module.
from .cluster import silhouette_view  # noqa: F401
from .data import MultiViewDataset, view_batches, write_csv
from .errors import ConfigError, DataError, NumericalError
from .losses import (
    ClusterSet,
    LevelState,
    LossWeights,
    build_inner_pairs,
    common_contrastive_loss,
    cross_view_guidance_loss,
    inner_contrastive_loss,
    recon_orth_loss,
    total_loss,
)
from .metrics import MetricsReport, build_report, export_embeddings
from .nn import Adam, build_bundle, load_checkpoint, save_checkpoint

logger = logging.getLogger("umclust")


@dataclass(frozen=True)
class TrainConfig:
    """Trainer settings. `seed` seeds the encoder init; batch order draws
    from `seed + 1` and every K-means from `seed + 2` (`kmeans_seed`)."""

    epochs: int = 200
    batch_size: int = 128
    latent_dim: int = 128
    hidden_dims: tuple[int, ...] = (1024, 1024, 1024)
    batchnorm: bool = True
    learning_rate: float = 1e-3
    weights: LossWeights = field(default_factory=LossWeights)
    seed: int = 1
    final_restarts: int = 10
    kmeans_max_iter: int = 100
    cluster_levels: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.epochs < 4:
            raise ConfigError("epochs must be >= 4 (schedule uses quarter boundaries)")
        for name in ("batch_size", "latent_dim", "final_restarts", "kmeans_max_iter"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be > 0 and finite, got {self.learning_rate}")
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.cluster_levels is not None:
            ClusterSet(self.cluster_levels)

    @property
    def kmeans_seed(self) -> int:
        return self.seed + 2


def run_hash(config: TrainConfig, dataset: MultiViewDataset) -> str:
    """Hash of the resolved config plus a content fingerprint of the dataset."""
    digest = hashlib.sha256()
    for v in dataset.views:
        digest.update(v.ids.tobytes())
        digest.update(np.ascontiguousarray(v.features).tobytes())
        digest.update(v.labels.tobytes())
    payload = {
        "config": asdict(config),
        "dataset": {
            "name": dataset.name,
            "clusters": dataset.n_clusters,
            "views": [[v.n, v.dim] for v in dataset.views],
            "content": digest.hexdigest(),
        },
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class RunArtifacts:
    loss_table: np.ndarray          # one row per trained epoch, columns as in loss_curve.csv
    level_trace: list[tuple[int, ...]]
    final_assignment: Assignment
    report: MetricsReport
    latents: list[np.ndarray]


def cluster_set_for(config: TrainConfig, dataset: MultiViewDataset) -> ClusterSet:
    """The clustering levels `config` trains `dataset` at, refused unless
    the data has at least 2 clusters, the last level is the cluster count
    and every view has at least that many samples."""
    if dataset.n_clusters < 2:
        raise DataError("training requires at least 2 clusters")
    if config.cluster_levels is None:
        cluster_set = ClusterSet.default(dataset.n_clusters)
    else:
        cluster_set = ClusterSet(config.cluster_levels)
        if cluster_set.final != dataset.n_clusters:
            raise ConfigError(
                f"train.cluster_levels must end at the dataset cluster count ({dataset.n_clusters}), "
                f"got {list(cluster_set.levels)}"
            )
    for v in dataset.views:
        if v.n < cluster_set.final:
            raise DataError(f"view {v.view_id} has {v.n} samples, fewer than the top level {cluster_set.final}")
    return cluster_set


def _derived_seed(base: int, scope: int, level: int) -> int:
    return int(np.random.SeedSequence([int(base), int(scope), int(level)]).generate_state(1)[0])


def refresh_level_state(
    bundle,
    features: list[np.ndarray],
    cluster_set: ClusterSet,
    active: tuple[int, ...],
    config: TrainConfig,
    warm: dict[tuple[str, int], np.ndarray],
) -> tuple[LevelState, list[np.ndarray]]:
    """Recluster full representations of every view (`features`, one
    matrix per view) at every needed level.

    The final level is always computed (the cross-view correspondence
    and the guidance centroids live there) even before it becomes
    active. Centroids warm-start from the previous refresh at the same
    level when available. Views share no samples, so `match_views` joins
    their clusters into the common view, through
    `cluster.correspondence` on the latents' cluster structure, and
    returns it as one common label per sample and level.
    Each final common centroid is the latent mean of its joined clusters.

    Latents come from a train-mode pass with frozen running statistics:
    mini-batch optimization sees batch-normalized geometry, so the
    assignments and common view guiding it must be computed on that same
    geometry. (Running statistics lag far behind early in training; an
    eval-mode refresh would cluster a space the losses never see.)
    """
    latents = bundle.encode_all(features, train=True)
    final = cluster_set.final
    needed = sorted(set(active) | {final})
    view_labels: dict[int, list[np.ndarray]] = {}
    for level in needed:
        view_labels[level] = []
        for v, z in enumerate(latents):
            seed = _derived_seed(config.kmeans_seed, v + 1, level)
            a_v, c_v = kmeans(
                z, level, seed=seed, max_iter=config.kmeans_max_iter,
                init_centroids=warm.get((f"view{v}", level)),
            )
            view_labels[level].append(a_v.labels)
            warm[(f"view{v}", level)] = c_v
    common_labels = match_views(latents, view_labels, final)
    state = LevelState(
        view_labels=view_labels,
        common_labels=common_labels,
        final_centroids=cluster_means(np.concatenate(latents, axis=0), common_labels[final], final),
    )
    return state, latents


def final_assignment(latents: list[np.ndarray], n_clusters: int, config: TrainConfig) -> Assignment:
    """K-means (best of `final_restarts`) on the concatenated latents of all views."""
    assignment, _ = kmeans(
        np.concatenate(latents, axis=0),
        n_clusters,
        seed=_derived_seed(config.kmeans_seed, 999, n_clusters),
        max_iter=config.kmeans_max_iter,
        restarts=config.final_restarts,
    )
    return assignment


def evaluate(
    bundle, dataset: MultiViewDataset, config: TrainConfig, config_hash: str, started_at: float
) -> tuple[list[np.ndarray], Assignment, MetricsReport]:
    """Score a trained `bundle`: eval-mode latents of every view (each
    view's features cast to the model's dtype once, by `encode_all`),
    their `final_assignment` and the report of its scores."""
    latents = bundle.encode_all(dataset.feature_matrices(), train=False)
    assignment = final_assignment(latents, dataset.n_clusters, config)
    report = build_report(
        latents,
        [v.labels for v in dataset.views],
        assignment.labels,
        dataset.n_clusters,
        kmeans_seed=config.kmeans_seed,
        restarts=config.final_restarts,
        max_iter=config.kmeans_max_iter,
        config_hash=config_hash,
        started_at=started_at,
    )
    return latents, assignment, report


def train(
    config: TrainConfig,
    dataset: MultiViewDataset,
    out_dir: str | Path | None = None,
    stop_after_epoch: int | None = None,
    resume: str | Path | None = None,
) -> RunArtifacts:
    started_at = time.time()
    n_views = dataset.n_views
    cluster_set = cluster_set_for(config, dataset)

    offsets = dataset.row_offsets()
    cfg_hash = run_hash(config, dataset)
    bundle = build_bundle(
        dataset.feature_dims(),
        config.latent_dim,
        config.hidden_dims,
        config.batchnorm,
        config.seed,
    )
    features = [np.asarray(m, dtype=bundle.dtype) for m in dataset.feature_matrices()]
    opt = Adam(bundle.named_parameters(), config.learning_rate)
    warm: dict[tuple[str, int], np.ndarray] = {}
    start_epoch = 1
    if resume is not None:
        ck = load_checkpoint(
            resume,
            expect_config_hash=cfg_hash,
            params={k: p.data for k, p in bundle.named_parameters().items()},
            stats=bundle.named_stats(),
            # a finished run saved no moments, only its step count
            adam_arrays=lambda epoch: opt.state_arrays() if epoch < config.epochs else {},
        )
        opt.t = ck.adam_t
        warm = ck.warm_centroids
        start_epoch = ck.epoch + 1

    steps = -(-max(v.n for v in dataset.views) // config.batch_size)
    stop = config.epochs if stop_after_epoch is None else min(config.epochs, stop_after_epoch)
    last_epoch = max(start_epoch - 1, stop)
    loss_rows: list[list[float]] = []
    level_trace: list[tuple[int, ...]] = []

    for epoch in range(start_epoch, last_epoch + 1):
        active = cluster_set.active(epoch, config.epochs)
        level_state, _ = refresh_level_state(bundle, features, cluster_set, active, config, warm)
        final_common = level_state.common_labels[cluster_set.final]

        streams = [
            view_batches(config.seed + 1, config.batch_size, epoch, v, dataset.views[v].n) for v in range(n_views)
        ]
        sums = np.zeros(5)
        for step in range(steps):
            batch_idx = [next(streams[v]) for v in range(n_views)]
            x_batches = [features[v][batch_idx[v]] for v in range(n_views)]
            l_ae, zs = recon_orth_loss(x_batches, bundle, config.weights.lambda1)
            pair_sets = [
                build_inner_pairs(
                    {k: level_state.view_labels[k][v] for k in active}, batch_idx[v]
                )
                for v in range(n_views)
            ]
            l_in = inner_contrastive_loss(zs, pair_sets)
            rows = [offsets[v] + batch_idx[v] for v in range(n_views)]
            batch_common = {k: level_state.common_labels[k][np.concatenate(rows)] for k in active}
            l_co = common_contrastive_loss(zs, batch_common)
            l_cr = cross_view_guidance_loss(zs, level_state.final_centroids, [final_common[r] for r in rows])
            total = total_loss(l_ae, l_in, l_co, l_cr, config.weights)
            if not np.isfinite(total.data):
                raise NumericalError(f"non-finite total loss at epoch {epoch} step {step}")
            total.backward()
            opt.step()
            bundle.zero_grad()  # the gradients die with the step that read them
            sums += [l_ae.item(), l_in.item(), l_co.item(), l_cr.item(), total.item()]
            del l_ae, zs, l_in, l_co, l_cr, total  # free this step's graph before the next is built
        means = sums / steps
        loss_rows.append([float(epoch), *means.tolist()])
        level_trace.append(active)
        logger.info(
            "epoch=%d total=%.6f l_ae=%.6f l_in=%.6f l_co=%.6f l_cr=%.6f levels=%s",
            epoch, means[4], means[0], means[1], means[2], means[3], list(active),
        )

    latents, final, report = evaluate(bundle, dataset, config, cfg_hash, started_at)
    columns = ["epoch", "l_ae", "l_in", "l_co", "l_cr", "total"]
    artifacts = RunArtifacts(
        loss_table=np.array(loss_rows) if loss_rows else np.zeros((0, len(columns))),
        level_trace=level_trace,
        final_assignment=final,
        report=report,
        latents=latents,
    )
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        finished = last_epoch == config.epochs
        save_checkpoint(
            out / "checkpoint.npz",
            config_hash=cfg_hash,
            epoch=last_epoch,
            adam_t=opt.t,
            params={k: p.data for k, p in bundle.named_parameters().items()},
            stats=bundle.named_stats(),
            adam_arrays={} if finished else opt.state_arrays(),
            warm_centroids={} if finished else warm,
        )
        _write_loss_csv(out / "loss_curve.csv", columns, artifacts.loss_table)
        report.save(out)
        export_embeddings(
            out / "embeddings.csv",
            dataset.all_ids(),
            np.concatenate([np.full(v.n, v.view_id) for v in dataset.views]),
            dataset.all_labels(),
            final.labels,
            # exact: encode_all upcast these from the model's dtype
            np.concatenate(latents, axis=0, dtype=bundle.dtype),
        )
    return artifacts


def _write_loss_csv(path: Path, columns: list[str], table: np.ndarray) -> None:
    write_csv(path, table[:, :1].astype(np.int64), table[:, 1:], header=",".join(columns) + "\n")
