"""Training orchestration.

Each epoch starts by re-clustering the full representations of every
view at all active levels and joining the views' clusters into a
common view by cluster-structure matching. The common view leaves the
refresh as labels only, per level one array per view as the views' own
labels are (`LevelState`); the cross-view terms read nothing else of
it. The epoch then takes
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

`checkpoint_arrays` says what a checkpoint holds. A run that stops
before its last epoch saves everything it needs to resume: the whole
model, the Adam moments and the warm centroids (per view ``v{v}`` and
level a refresh has clustered). A finished run saves only the model
it is scored with, the encoders' parameters and batch-norm statistics
(`AutoencoderBundle.model_arrays` with `encoders_only`): the decoders
serve only the reconstruction term, and a finished run has nothing left
to train. Resuming builds the model, the optimizer and the warm
centroids first, then reads the checkpoint straight into them entry by
entry, so the model is never held twice and an entry of any kind that
is missing, extra or misshaped is refused. A checkpoint refused part-way
raises before the first epoch. Full-data encodes record nothing.

The model trains in its own dtype (`nn.mlp.DTYPE`, float32): `train`
casts the features to it once, and every batch is a slice of that one
copy. What clusters and scores the model stays in float64:
`AutoencoderBundle.encode_all` upcasts each view's latents once per
call, so each refresh, its K-means and correspondence, the guidance
centroids and the final assignment and report see float64 latents.

A step (`step_objective`) owns the objective. It runs each view's
encoder and decoder forward, recording one backward rule per layer, and
hands their outputs as plain arrays to the four loss terms, each of
which returns its value and per-view gradients. One list pairs
lambda2-lambda4 with l_in, l_co and l_cr; the total and the gradient
sums of `walk_back` are both read from it. `Adam.step` runs the walk:
each view's decoder goes back, asked for its input gradient, then its
encoder. Each layer's kept arrays are freed as the walk passes it, and
each parameter's gradient goes to Adam as soon as its layer's rule has
run, so one layer's parameter gradients are alive at a time, and none
beside a refresh, `evaluate` or a checkpoint write. A non-finite
gradient raises `NumericalError` before its own parameter moves but
after earlier layers of that step have, and the run ends without a
checkpoint.
"""

from __future__ import annotations

import functools
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
    LossWeights,
    build_inner_pairs,
    common_contrastive_loss,
    cross_view_guidance_loss,
    inner_contrastive_loss,
    recon_orth_loss,
)
from .metrics import MetricsReport, build_report, export_embeddings
from .nn import Adam, build_bundle, load_checkpoint, save_checkpoint

logger = logging.getLogger("umclust")


@dataclass(frozen=True)
class ClusterSet:
    """Ordered clustering levels; the last level is the true cluster count."""

    levels: tuple[int, ...]

    def __post_init__(self):
        if not self.levels:
            raise ConfigError("cluster_levels must contain at least one level")
        if any(k < 1 for k in self.levels):
            raise ConfigError("cluster_levels entries must be >= 1")
        if list(self.levels) != sorted(set(self.levels)):
            raise ConfigError(f"cluster_levels must be strictly increasing, got {list(self.levels)}")
        object.__setattr__(self, "levels", tuple(int(k) for k in self.levels))

    @staticmethod
    def default(n_clusters: int) -> "ClusterSet":
        """{2, ceil(K/2), K} clipped to [2, K] and deduplicated."""
        raw = {2, math.ceil(n_clusters / 2), n_clusters}
        levels = tuple(sorted(k for k in raw if 2 <= k <= n_clusters))
        if not levels:
            levels = (n_clusters,)
        return ClusterSet(levels)

    @property
    def final(self) -> int:
        return self.levels[-1]

    def active(self, epoch: int, total_epochs: int) -> tuple[int, ...]:
        """Levels active in 1-based `epoch`: the coarsest for the first quarter
        of `total_epochs`, the two coarsest through the half point, then all."""
        if epoch <= total_epochs / 4:
            return self.levels[:1]
        if epoch <= total_epochs / 2:
            return self.levels[:2]
        return self.levels

    def refreshed(self, active: tuple[int, ...]) -> list[int]:
        """The levels a refresh at `active` levels clusters: those and the final one."""
        return sorted({*active, self.final})


@dataclass
class LevelState:
    """Per-epoch clustering snapshot over full representations, at the
    `active` levels plus the `final` one. Both label maps take one layout,
    level -> one (n_v,) array per view: `view_labels` are each view's own
    clusters, `common_labels` their one-to-one map onto the common view.
    """

    view_labels: dict[int, list[np.ndarray]]       # level -> per view (n_v,)
    common_labels: dict[int, list[np.ndarray]]     # level -> per view (n_v,)
    final_centroids: np.ndarray                    # (K, D) latent mean per final common cluster
    active: tuple[int, ...]                        # the levels a step trains at
    final: int                                     # the last level, the cluster count


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
        for arr in (v.ids, v.features, v.labels):
            digest.update(np.ascontiguousarray(arr))  # hashed in place, not copied
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
    returns it as one common label per sample and level, per view.
    Each final common centroid is the latent mean of its joined clusters.

    Latents come from a train-mode pass with frozen running statistics:
    mini-batch optimization sees batch-normalized geometry, so the
    assignments and common view guiding it must be computed on that same
    geometry. (Running statistics lag far behind early in training; an
    eval-mode refresh would cluster a space the losses never see.)
    """
    latents = bundle.encode_all(features, train=True)
    final = cluster_set.final
    view_labels: dict[int, list[np.ndarray]] = {}
    for level in cluster_set.refreshed(active):
        view_labels[level] = []
        for v, z in enumerate(latents):
            seed = _derived_seed(config.kmeans_seed, v + 1, level)
            a_v, c_v = kmeans(
                z, level, seed=seed, max_iter=config.kmeans_max_iter,
                init_centroids=warm.get((f"v{v}", level)),
            )
            view_labels[level].append(a_v.labels)
            warm[(f"v{v}", level)] = c_v
    common_labels = match_views(latents, view_labels, final)
    state = LevelState(
        view_labels=view_labels,
        common_labels=common_labels,
        final_centroids=cluster_means(np.concatenate(latents, axis=0), np.concatenate(common_labels[final]), final),
        active=active,
        final=final,
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
        [v.view_id for v in dataset.views],
        assignment.labels,
        dataset.n_clusters,
        kmeans_seed=config.kmeans_seed,
        restarts=config.final_restarts,
        max_iter=config.kmeans_max_iter,
        config_hash=config_hash,
        started_at=started_at,
    )
    return latents, assignment, report


def step_objective(
    bundle, features, batch_idx, state: LevelState, weights: LossWeights
) -> tuple[list[np.floating], functools.partial]:
    """One step's objective on rows `batch_idx[v]` of each view's
    `features[v]` and of its labels in `state`, at the state's active
    levels and its final one: the terms [l_ae, l_in, l_co, l_cr, total],
    each in the model's dtype, and the `walk_back` that `Adam.step` takes."""
    x_batches = [f[idx] for f, idx in zip(features, batch_idx)]
    zs, x_hats = [], []
    for v, x in enumerate(x_batches):
        zs.append(bundle.encode(v, x, train=True))
        x_hats.append(bundle.decode(v, zs[v].data, train=True))
    latents = [z.data for z in zs]
    l_ae, ae_grads = recon_orth_loss(x_batches, [x.data for x in x_hats], latents, weights.lambda1)
    pair_sets = [
        build_inner_pairs({k: state.view_labels[k][v] for k in state.active}, idx)
        for v, idx in enumerate(batch_idx)
    ]
    common = {k: np.concatenate([c[idx] for c, idx in zip(state.common_labels[k], batch_idx)]) for k in state.active}
    targets = [labels[idx] for labels, idx in zip(state.common_labels[state.final], batch_idx)]
    weighted = [
        (weights.lambda2, *inner_contrastive_loss(latents, pair_sets)),
        (weights.lambda3, *common_contrastive_loss(latents, common)),
        (weights.lambda4, *cross_view_guidance_loss(latents, state.final_centroids, targets)),
    ]
    total = l_ae.dtype.type(sum((weight * float(value) for weight, value, _ in weighted), float(l_ae)))
    terms = [l_ae, *(value for _, value, _ in weighted), total]
    return terms, functools.partial(walk_back, zs, x_hats, ae_grads, weighted)


def walk_back(zs: list, x_hats: list, ae_grads: list, weighted: list, update) -> None:
    """Walk each view's decoder, then its encoder, back once, handing every
    parameter's gradient to `update`. View v's latent gradient is l_ae's
    (`ae_grads[v]` holds it in the reconstruction and in the latents),
    plus the decoder's input gradient, plus weight * gradient for each
    (weight, value, per-view gradients) row of `weighted`, added in order."""
    for v, (grad_x_hat, grad_z) in enumerate(ae_grads):
        grad_z += x_hats[v].backward(grad_x_hat, update, input_grad=True)
        for weight, _, grads in weighted:
            grad_z += weight * grads[v]
        zs[v].backward(grad_z, update)


def checkpoint_arrays(bundle, opt: Adam | None, warm: dict, epoch: int, epochs: int) -> dict[str, dict]:
    """What a checkpoint at `epoch` of `epochs` holds, keyed by
    `save_checkpoint`'s keywords: a finished run its encoders alone, any
    other the whole model, `opt`'s moments and the `warm` centroids."""
    if epoch == epochs:
        params, stats = bundle.model_arrays(encoders_only=True)
        return dict(params=params, stats=stats, adam_arrays={}, warm_centroids={})
    params, stats = bundle.model_arrays()
    return dict(params=params, stats=stats, adam_arrays=opt.state_arrays(), warm_centroids=warm)


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
        def saved_state(epoch: int) -> dict[str, dict]:
            ts = range(1, min(epoch, config.epochs) + 1)  # the saved epochs; their refreshes' levels, first met first
            levels = dict.fromkeys(k for t in ts for k in cluster_set.refreshed(cluster_set.active(t, config.epochs)))
            centroids = {(f"v{v}", k): np.empty((k, config.latent_dim)) for k in levels for v in range(n_views)}
            return checkpoint_arrays(bundle, opt, centroids, epoch, config.epochs)

        ck = load_checkpoint(resume, expect_config_hash=cfg_hash, into=saved_state)
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

        streams = [
            view_batches(config.seed + 1, config.batch_size, epoch, v, dataset.views[v].n) for v in range(n_views)
        ]
        sums = np.zeros(5)
        for step in range(steps):
            batch_idx = [next(streams[v]) for v in range(n_views)]
            terms, backward = step_objective(bundle, features, batch_idx, level_state, config.weights)
            if not np.isfinite(terms[-1]):
                raise NumericalError(f"non-finite total loss at epoch {epoch} step {step}")
            opt.step(backward)
            del backward  # the step's batch arrays, before the next forward or refresh
            sums += terms
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
        save_checkpoint(
            out / "checkpoint.npz",
            config_hash=cfg_hash,
            epoch=last_epoch,
            adam_t=opt.t,
            **checkpoint_arrays(bundle, opt, warm, last_epoch, config.epochs),
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
