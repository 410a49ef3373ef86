"""The four training-objective terms and their supporting state.

Per mini-batch the objective is

    total = l_ae + lambda2 * l_in + lambda3 * l_co + lambda4 * l_cr

where l_ae is reconstruction plus a lambda1-weighted batch-Gram
orthogonality regularizer, l_in is an NT-Xent contrastive loss over
sample pairs whose same/different-cluster relation holds at every
active clustering level, l_co contrasts every concatenated-batch
anchor against the batch samples of every view, positives being the
samples that share the anchor's common-view cluster, and l_cr guides
every view that has peers with strictly better silhouettes: each of
its samples' heavy-tailed assignments to the common centroids is
pulled, by cross-entropy, toward the centroid of the sample's common
cluster, weighted by |reliable set| / V^2. The lambdas are the
`LossWeights` of YAML section ``train.weights``.

The common view enters both cross-view terms as labels only: one
common cluster per sample and level. How the views' clusters were
joined into it is the refresh's business, not the losses'. Cluster
assignments, centroids, common labels, silhouettes and reliable sets
are all recomputed outside the loss graph and enter it as constants;
gradients flow only through the current batch representations.

l_in and l_co, which the trainer runs at the constant `TEMPERATURE`,
compute their NT-Xent value and gradient together in closed form
(`_nt_xent_rows`) and each enters the graph as one node. l_co works
one anchor view at a time, so only b_v x (V * b) similarity arrays are
alive at once, never one per level and view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError
from .nn.mlp import AutoencoderBundle
from .nn.tensor import Tensor, closed_form, concat_rows, row_normalize

DISTRIBUTION_FLOOR = 1e-8
TEMPERATURE = 0.1  # tau of both NT-Xent terms


@dataclass(frozen=True)
class LossWeights:
    """The objective's weights lambda1-lambda4, the only loss settings a run varies."""

    lambda1: float = 1.0
    lambda2: float = 0.01
    lambda3: float = 0.01
    lambda4: float = 1000.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"{f.name} must be non-negative")


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


@dataclass
class LevelState:
    """Per-epoch clustering snapshot over full representations.

    Holds every active level plus the final one. `common_labels` is the
    common view: one common cluster per sample, views in order, each
    view's clusters mapped one-to-one onto common clusters.
    """

    view_labels: dict[int, list[np.ndarray]]       # level -> per view (n_v,)
    common_labels: dict[int, np.ndarray]           # level -> (N,)
    final_centroids: np.ndarray                    # (K, D) latent mean per final common cluster
    silhouettes: np.ndarray                        # (V,) at the final level


@dataclass
class PairSets:
    """Boolean pair relations inside one batch of one view.

    tp[i, j] is True when i and j share a cluster at every active level;
    tn[i, j] when they differ at every active level. Pairs that agree at
    some levels and differ at others appear in neither set.
    """

    tp: np.ndarray
    tn: np.ndarray


# ---------------------------------------------------------------------------
# autoencoder term


def recon_orth_term(x: Tensor, x_hat: Tensor, z: Tensor, lambda1: float) -> Tensor:
    """Per-view reconstruction plus batch-Gram orthogonality regularizer.

    For a batch of b rows:

        ||X - X_hat||^2 / b  +  lambda1 * ||Z Z' - I_b||^2 / b^2

    The reconstruction error is summed over features and averaged over
    samples; the regularizer pushes the b x b sample Gram of the latent
    batch toward the identity and is averaged over its b^2 entries.
    """
    b = x.data.shape[0]
    if b == 0:
        raise ShapeError("empty batch")
    rec = (x - x_hat).square().sum() * (1.0 / b)
    reg = (z @ z.T - Tensor(np.eye(b))).square().sum() * (1.0 / (b * b))
    return rec + float(lambda1) * reg


def recon_orth_loss(
    x_batches: list[np.ndarray],
    bundle: AutoencoderBundle,
    lambda1: float,
) -> tuple[Tensor, list[Tensor]]:
    """Sum of per-view reconstruction terms, in train mode; also returns the latent batches."""
    total = Tensor(0.0)
    zs: list[Tensor] = []
    for v, xb in enumerate(x_batches):
        x = Tensor(xb)
        z = bundle.encode(v, x, train=True)
        x_hat = bundle.decode(v, z, train=True)
        total = total + recon_orth_term(x, x_hat, z, lambda1)
        zs.append(z)
    return total, zs


# ---------------------------------------------------------------------------
# inner-view multi-level contrastive term


def build_inner_pairs(labels_by_level: dict[int, np.ndarray], batch_idx: np.ndarray) -> PairSets:
    """Intersect same/different-cluster relations across the active levels."""
    b = batch_idx.shape[0]
    same = np.ones((b, b), dtype=bool)
    diff = np.ones((b, b), dtype=bool)
    for labels in labels_by_level.values():
        lv = labels[batch_idx]
        eq = lv[:, None] == lv[None, :]
        same &= eq
        diff &= ~eq
    np.fill_diagonal(same, False)
    np.fill_diagonal(diff, False)
    return PairSets(tp=same, tn=diff)


def _nt_xent_rows(
    sim: np.ndarray, pos_weight: np.ndarray, neg_mask: np.ndarray, inv_temp: float
) -> tuple[float, np.ndarray]:
    """Weighted NT-Xent over the rows of `sim`, and its gradient in `sim`.

    Sums, over rows i with a negative, c_i * log(sum_{neg(i)} exp(s_ij/tau))
    - (1/tau) * sum_j w_ij s_ij, where w = `pos_weight` and c_i = sum_j w_ij.
    The gradient is (1/tau) * (c_i E_ij / sum_j E_ij - w_ij) on those rows
    and 0 elsewhere, with E_ij = exp(s_ij/tau) on negatives, 0 off them.
    The row max over the negatives is subtracted inside the exponent, so
    nothing overflows. A non-finite similarity anywhere gives a non-finite
    value. `sim` is overwritten; its buffer is returned as the gradient.
    """
    c = pos_weight.sum(axis=1)
    pos_dot = np.einsum("ij,ij->i", pos_weight, sim)
    valid = neg_mask.any(axis=1)
    buf = np.multiply(sim, inv_temp, out=sim)
    np.copyto(buf, -np.inf, where=~neg_mask)
    shift = np.where(valid, buf.max(axis=1), 0.0)
    buf -= shift[:, None]
    np.exp(buf, out=buf)
    denom = np.where(valid, buf.sum(axis=1), 1.0)
    lse = np.log(denom) + shift
    value = float(np.sum(valid * (c * lse - inv_temp * pos_dot)))
    buf *= (valid * c / denom)[:, None]
    np.subtract(buf, pos_weight, out=buf, where=valid[:, None])
    buf *= inv_temp
    return value, buf


def inner_contrastive_loss(
    z_batches: list[Tensor],
    pair_sets: list[PairSets],
    temperature: float,
) -> Tensor:
    """NT-Xent over true-positive pairs against true-negative denominators.

    Per view: sum_i sum_{j in tp(i)} -log(exp(s_ij/tau) / sum_{tn(i)} exp(s/tau))
    weighted 1/(batch * |tp(i)|), averaged over views. Samples lacking either
    positives or negatives contribute nothing.
    """
    n_views = len(z_batches)
    inv_temp = 1.0 / float(temperature)
    total = Tensor(0.0)
    for z, pairs in zip(z_batches, pair_sets):
        zn = row_normalize(z)
        row_weight = 1.0 / (np.maximum(pairs.tp.sum(axis=1), 1) * n_views * z.data.shape[0])
        value, g = _nt_xent_rows(zn.data @ zn.data.T, pairs.tp * row_weight[:, None], pairs.tn, inv_temp)
        total = total + closed_form(zn, value, (g + g.T) @ zn.data)
    return total


# ---------------------------------------------------------------------------
# common-view multi-level guidance


def common_contrastive_loss(
    z_batches: list[Tensor],
    batch_common_labels: dict[int, np.ndarray],
    temperature: float,
) -> Tensor:
    """Anchor every concatenated-batch sample against each view's batch.

    At each level of `batch_common_labels` (common cluster per row of the
    concatenated batch), a pair (anchor i, view sample j) is positive when
    i and j share a common cluster, negative otherwise, and weighs
    1/(N * V * b_v) for N anchors and b_v samples in view v. Each level
    contributes an NT-Xent term whose denominator pools that anchor's
    negatives across all views; levels are averaged. Every anchor is its
    own positive; anchors with no negatives contribute nothing.

    The concatenated view batches are the anchors themselves, so each
    level's similarities come from the normalized union with itself,
    built one anchor view (b_v x N) at a time.
    """
    n_views = len(z_batches)
    inv_temp = 1.0 / float(temperature)
    zu = row_normalize(concat_rows(z_batches))
    sizes = [z.data.shape[0] for z in z_batches]
    offsets = np.cumsum([0, *sizes])
    n_union = int(offsets[-1])
    col_weight = np.repeat([1.0 / (n_union * n_views * b_v) for b_v in sizes], sizes)
    u = zu.data
    value = 0.0
    grad = np.zeros_like(u)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        g_blk = np.zeros((hi - lo, n_union))
        for common in batch_common_labels.values():
            pos = common[lo:hi, None] == common[None, :]
            level_value, g = _nt_xent_rows(u[lo:hi] @ u.T, pos * col_weight, ~pos, inv_temp)
            value += level_value
            g_blk += g
        grad[lo:hi] += g_blk @ u
        grad += g_blk.T @ u[lo:hi]
    scale = 1.0 / len(batch_common_labels)
    return closed_form(zu, value * scale, grad * scale)


# ---------------------------------------------------------------------------
# cross-view reliable guidance


def student_assignments(z: Tensor, centroids: np.ndarray) -> Tensor:
    """Heavy-tailed soft assignment of rows to centroids.

    Rows get the t-distribution kernel 1/(1 + squared distance),
    normalized per row. Unlike a temperature softmax this never
    saturates: far samples still receive a usable pull toward a target
    centroid, which is what lets the guidance term move whole clusters.
    """
    zz = z.square().sum(axis=1, keepdims=True)
    cc = Tensor((centroids**2).sum(axis=1)[None, :])
    d2 = zz + cc - (z @ Tensor(centroids.T)) * 2.0
    q = 1.0 / (d2.clip_min(0.0) + 1.0)
    return q / q.sum(axis=1, keepdims=True)


def cross_view_guidance_loss(
    z_batches: list[Tensor],
    centroids: np.ndarray,
    batch_common_labels: list[np.ndarray],
    reliable: list[list[int]],
) -> Tensor:
    """Alignment pull toward the common-view frame for guided views.

    A view with at least one more-reliable peer gets every batch sample
    pulled toward the centroid of its common cluster (per view, the
    final-level common label of each batch row): the sample's
    heavy-tailed assignment distribution is scored against that
    centroid (cross-entropy), so whole clusters migrate onto the shared
    frame that reliable views anchor. Each guided view is weighted by
    |reliable set| / V^2, preserving the double-sum structure of the
    objective; views with no more-reliable peer contribute nothing.
    """
    n_views = len(z_batches)
    k = centroids.shape[0]
    total = Tensor(0.0)
    for v, targets in enumerate(reliable):
        if not targets:
            continue
        sample_targets = batch_common_labels[v]
        b = sample_targets.shape[0]
        q = student_assignments(z_batches[v], centroids).clip_min(DISTRIBUTION_FLOOR)
        pick = np.zeros((b, k))
        pick[np.arange(b), sample_targets] = 1.0
        ce = (q.log() * Tensor(-pick)).sum() * (1.0 / b)
        total = total + ce * (len(targets) / (n_views * n_views))
    return total


def select_reliable(silhouettes: np.ndarray, coeff: float) -> list[list[int]]:
    """Indices of views whose silhouette strictly beats the current view's
    threshold. For a non-positive silhouette the multiplicative threshold
    would drop below the view's own score, so the margin turns additive:
    sils_r > sils_v + coeff * |sils_v|."""
    sils = np.asarray(silhouettes, dtype=np.float64)
    out: list[list[int]] = []
    for v, sv in enumerate(sils.tolist()):
        threshold = coeff * sv if sv > 0 else sv + coeff * abs(sv)
        out.append([r for r, sr in enumerate(sils.tolist()) if r != v and sr > threshold])
    return out


# ---------------------------------------------------------------------------
# combination


def total_loss(
    l_ae: Tensor,
    l_in: Tensor,
    l_co: Tensor,
    l_cr: Tensor,
    weights: LossWeights,
) -> Tensor:
    return l_ae + weights.lambda2 * l_in + weights.lambda3 * l_co + weights.lambda4 * l_cr
