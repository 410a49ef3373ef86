"""Training orchestration.

Each epoch starts by re-clustering the full representations of every
view at all active levels, joining the views' clusters into a common
view by cluster-structure matching, and measuring per-view
silhouettes. The common view leaves the refresh as labels only (one
common cluster per sample and level), which is all the cross-view
loss terms read. The epoch then takes ceil(max n_v / batch_size)
steps of one `data.view_batches` batch per view (a shorter view starts
another reshuffled pass), building the four-term objective and
applying an adaptive-moment update.

`ClusterSet.active` gives the active levels: the coarsest for the
first quarter of the epochs, the two coarsest through the half point,
then all. The reliable-view coefficient and the NT-Xent temperature
are constants, not `TrainConfig` (YAML ``train``) settings: epoch t
uses max(1.0, 1.5 * 0.99^(t-1)). After the last epoch `evaluate`
scores the model: the final assignment comes from K-means (best of
several restarts) on the concatenated eval-mode latents, and the report
scores it and a K-means of each view alone. `umclust eval` calls the
same `evaluate` on a model restored from its checkpoint.
"""

from __future__ import annotations

import hashlib
import json
import logging
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .cluster import Assignment, cluster_means, kmeans, match_views, silhouette_view
from .data import MultiViewDataset, view_batches
from .errors import ConfigError, DataError, NumericalError
from .losses import (
    TEMPERATURE,
    ClusterSet,
    LevelState,
    LossWeights,
    build_inner_pairs,
    common_contrastive_loss,
    cross_view_guidance_loss,
    inner_contrastive_loss,
    recon_orth_loss,
    select_reliable,
    total_loss,
)
from .metrics import MetricsReport, build_report, export_embeddings
from .nn import Adam, build_bundle, load_checkpoint, save_checkpoint

logger = logging.getLogger("umclust")


# The reliable-view coefficient of epoch t is max(FLOOR, START * DECAY^(t-1)).
RELIABILITY_START = 1.5
RELIABILITY_DECAY = 0.99
RELIABILITY_FLOOR = 1.0


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if any(d < 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.cluster_levels is not None:
            ClusterSet(self.cluster_levels)

    @property
    def kmeans_seed(self) -> int:
        return self.seed + 2


def reliability_coeff(epoch: int) -> float:
    """Coefficient used during 1-based `epoch`."""
    return max(RELIABILITY_FLOOR, RELIABILITY_START * RELIABILITY_DECAY ** (epoch - 1))


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
    dataset: MultiViewDataset,
    cluster_set: ClusterSet,
    active: tuple[int, ...],
    config: TrainConfig,
    warm: dict[tuple[str, int], np.ndarray],
) -> tuple[LevelState, list[np.ndarray]]:
    """Recluster full representations of every view at every needed level.

    The final level is always computed (silhouettes and the cross-view
    correspondence live there) even before it becomes active. Centroids
    warm-start from the previous refresh at the same level when
    available. Views share no samples, so `match_views` joins their
    clusters into the common view by the latents' cluster structure and
    returns it as one common label per sample and level. Each final
    common centroid is the latent mean of its joined clusters.

    Latents come from a train-mode pass with frozen running statistics:
    mini-batch optimization sees batch-normalized geometry, so the
    assignments, common view, and silhouettes guiding it must be computed
    on that same geometry. (Running statistics lag far behind early in
    training; an eval-mode refresh would cluster a space the losses
    never see.)
    """
    latents = bundle.encode_all(dataset.feature_matrices(), train=True, update_stats=False)
    final = cluster_set.final
    needed = sorted(set(active) | {final})
    view_labels: dict[int, list[np.ndarray]] = {}
    final_assignments: list[Assignment] = []
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
            if level == final:
                final_assignments.append(a_v)
    common_labels = match_views(latents, view_labels, final)
    sils = np.array([silhouette_view(z, a) for z, a in zip(latents, final_assignments)])
    state = LevelState(
        view_labels=view_labels,
        common_labels=common_labels,
        final_centroids=cluster_means(np.concatenate(latents, axis=0), common_labels[final], final),
        silhouettes=sils,
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
    """Score a trained `bundle`: eval-mode latents of every view, their
    `final_assignment` and the report of its scores."""
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

    features = dataset.feature_matrices()
    offsets = dataset.row_offsets()
    cfg_hash = run_hash(config, dataset)
    bundle = build_bundle(
        dataset.feature_dims(),
        config.latent_dim,
        config.hidden_dims,
        config.batchnorm,
        config.seed,
    )
    opt = Adam(bundle.named_parameters(), config.learning_rate)
    warm: dict[tuple[str, int], np.ndarray] = {}
    start_epoch = 1
    if resume is not None:
        ck = load_checkpoint(resume, expect_config_hash=cfg_hash)
        bundle.load_arrays(ck.params, ck.stats)
        opt.load_state(ck.adam_t, ck.adam_arrays)
        warm = dict(ck.warm_centroids)
        start_epoch = ck.epoch + 1

    steps = -(-max(v.n for v in dataset.views) // config.batch_size)
    last_epoch = config.epochs if stop_after_epoch is None else min(config.epochs, stop_after_epoch)
    loss_rows: list[list[float]] = []
    level_trace: list[tuple[int, ...]] = []

    for epoch in range(start_epoch, last_epoch + 1):
        active = cluster_set.active(epoch, config.epochs)
        level_state, _ = refresh_level_state(bundle, dataset, cluster_set, active, config, warm)
        coeff = reliability_coeff(epoch)
        reliable = select_reliable(level_state.silhouettes, coeff)
        final_common = level_state.common_labels[cluster_set.final]

        streams = [
            view_batches(config.seed + 1, config.batch_size, epoch, v, dataset.views[v].n) for v in range(n_views)
        ]
        sums = np.zeros(5)
        for step in range(steps):
            batch_idx = [next(streams[v]) for v in range(n_views)]
            x_batches = [features[v][batch_idx[v]] for v in range(n_views)]
            bundle.zero_grad()
            l_ae, zs = recon_orth_loss(x_batches, bundle, config.weights.lambda1)
            pair_sets = [
                build_inner_pairs(
                    {k: level_state.view_labels[k][v] for k in active}, batch_idx[v]
                )
                for v in range(n_views)
            ]
            l_in = inner_contrastive_loss(zs, pair_sets, TEMPERATURE)
            rows = [offsets[v] + batch_idx[v] for v in range(n_views)]
            batch_common = {k: level_state.common_labels[k][np.concatenate(rows)] for k in active}
            l_co = common_contrastive_loss(zs, batch_common, TEMPERATURE)
            l_cr = cross_view_guidance_loss(zs, level_state.final_centroids, [final_common[r] for r in rows], reliable)
            total = total_loss(l_ae, l_in, l_co, l_cr, config.weights)
            if not np.isfinite(total.data):
                raise NumericalError(f"non-finite total loss at epoch {epoch} step {step}")
            total.backward()
            opt.step()
            sums += [l_ae.item(), l_in.item(), l_co.item(), l_cr.item(), total.item()]
        means = sums / steps
        loss_rows.append([float(epoch), *means.tolist(), coeff, *level_state.silhouettes.tolist()])
        level_trace.append(active)
        logger.info(
            "epoch=%d total=%.6f l_ae=%.6f l_in=%.6f l_co=%.6f l_cr=%.6f coeff=%.6f levels=%s",
            epoch, means[4], means[0], means[1], means[2], means[3], coeff, list(active),
        )

    latents, final, report = evaluate(bundle, dataset, config, cfg_hash, started_at)
    columns = ["epoch", "l_ae", "l_in", "l_co", "l_cr", "total", "reliability_coeff"] + [
        f"silhouette_view{v}" for v in range(n_views)
    ]
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
        save_checkpoint(
            out / "checkpoint.npz",
            config_hash=cfg_hash,
            epoch=last_epoch,
            adam_t=opt.t,
            params={k: p.data for k, p in bundle.named_parameters().items()},
            stats=bundle.named_stats(),
            adam_arrays=opt.state_arrays(),
            warm_centroids=warm,
        )
        _write_loss_csv(out / "loss_curve.csv", columns, artifacts.loss_table)
        report.save(out)
        export_embeddings(
            out / "embeddings.csv",
            dataset.all_ids(),
            np.concatenate([np.full(v.n, v.view_id) for v in dataset.views]),
            dataset.all_labels(),
            final.labels,
            np.concatenate(latents, axis=0),
        )
    return artifacts


def _write_loss_csv(path: Path, columns: list[str], table: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in table:
            fh.write(f"{int(row[0])}," + ",".join(repr(float(x)) for x in row[1:]) + "\n")
