"""The four training-objective terms and their supporting state.

Per mini-batch the objective is

    total = l_ae + lambda2 * l_in + lambda3 * l_co + lambda4 * l_cr

where l_ae is reconstruction plus a lambda1-weighted batch-Gram
orthogonality regularizer, l_in is an NT-Xent contrastive loss over
sample pairs whose same/different-cluster relation holds at every
active clustering level, l_co contrasts every concatenated-batch
anchor against the batch samples of every view, positives being the
samples that share the anchor's common-view cluster, and l_cr guides
every view: each of its samples' heavy-tailed assignments to the
common centroids is pulled, by cross-entropy, toward the centroid of
the sample's common cluster, weighted (V-1)/V^2 per view. The lambdas
are the `LossWeights` of YAML section ``train.weights``.

The common view enters both cross-view terms as labels only: one
common cluster per sample and level. How the views' clusters were
joined into it is the refresh's business, not the losses'. Cluster
assignments, centroids and common labels are all recomputed outside
the loss terms and enter them as constants; gradients flow only through
the current batch representations.

Every term computes its value and its gradient in each view's latent
batch (and, for l_ae, in each reconstruction) together, in numpy, over
all views. l_in, l_co and l_cr take the latent arrays and return
(value, per-view gradients); `recon_orth_loss` runs the recorded
forward and also returns the latents and reconstructions that
`train.walk_back` walks back. Each value is held in the latents' dtype,
and so is `total_loss`, the weighted sum of the four values. l_ae and
l_cr have textbook gradients (l_cr's is DEC's, Xie et al. 2016). l_in
and l_co, both NT-Xent at the constant `TEMPERATURE`, normalize each
latent row inside the term (`_unit_rows`) and map their gradient in the
unit rows back to the latents; an all-zero row gets a finite value and
a gradient of exactly 0. l_in runs `_nt_xent_rows` per view. l_co takes
one similarity product and one exponent per anchor view (b_v x N, for
the N rows of the concatenated batch) and reads every active level off
them through cluster-indicator products, so its cost does not grow with
the number of levels. Its two b_max x N buffers are allocated once per
call.

Every term computes in the dtype of the latents it is given. Its
constants (the identity of the Gram term, the guidance targets and
centroids, l_co's cluster indicators, weights and buffers) are built in
that dtype, so a float32 model's step holds no float64 array of the
batch's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, ShapeError
from .nn.mlp import AutoencoderBundle
from .nn.tensor import Tensor

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
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{f.name} must be non-negative and finite")


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


def recon_orth_term(
    x: np.ndarray, x_hat: np.ndarray, z: np.ndarray, lambda1: float
) -> tuple[float, np.ndarray, np.ndarray]:
    """Per-view reconstruction plus batch-Gram orthogonality regularizer,
    and its gradients in `x_hat` and in `z`.

    For a batch of b rows, with G = Z Z' - I_b:

        ||X_hat - X||^2 / b  +  lambda1 * ||G||^2 / b^2

    The reconstruction error is summed over features and averaged over
    samples; the regularizer pushes the b x b sample Gram of the latent
    batch toward the identity and is averaged over its b^2 entries. The
    gradient in X_hat is 2 (X_hat - X) / b, and in Z it is
    4 lambda1 G Z / b^2.
    """
    b = x.shape[0]
    if b == 0:
        raise ShapeError("empty batch")
    diff = x_hat - x
    gram = z @ z.T
    gram[np.diag_indices(b)] -= 1.0
    value = float(np.vdot(diff, diff)) / b + float(lambda1) * float(np.vdot(gram, gram)) / (b * b)
    diff *= 2.0 / b
    grad_z = gram @ z
    grad_z *= 4.0 * float(lambda1) / (b * b)
    return value, diff, grad_z


def recon_orth_loss(
    x_batches: list[np.ndarray],
    bundle: AutoencoderBundle,
    lambda1: float,
) -> tuple[np.floating, list[tuple[np.ndarray, np.ndarray]], list[Tensor], list[Tensor]]:
    """Sum of per-view reconstruction terms from a recorded train-mode
    forward; per view its gradients (in the reconstruction, in the
    latents); the recorded latents; the recorded reconstructions. Each
    batch is taken in the model's dtype."""
    value = 0.0
    grads, zs, x_hats = [], [], []
    for v, xb in enumerate(x_batches):
        x = np.asarray(xb, dtype=bundle.dtype)
        z = bundle.encode(v, x, train=True)
        x_hat = bundle.decode(v, z.data, train=True)
        term, grad_x_hat, grad_z = recon_orth_term(x, x_hat.data, z.data, lambda1)
        value += term
        grads.append((grad_x_hat, grad_z))
        zs.append(z)
        x_hats.append(x_hat)
    return bundle.dtype.type(value), grads, zs, x_hats


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


def _unit_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of `z` scaled to unit Euclidean norm, and the (n, 1) norms
    they were divided by.

    A squared norm is clamped at the smallest normal number of `z`'s
    dtype before the square root, so a tiny row does not underflow to a
    zero division. An all-zero row is divided by an infinite norm: it
    maps to a zero row, and `_from_unit_rows` gives it a gradient of
    exactly 0, in float32 as in float64.
    """
    norm = np.sqrt(np.maximum((z * z).sum(axis=1, keepdims=True), np.finfo(z.dtype).tiny))
    norm[~z.any(axis=1)] = np.inf
    return z / norm, norm


def _from_unit_rows(grad: np.ndarray, u: np.ndarray, norm: np.ndarray) -> np.ndarray:
    """A gradient in the unit rows `u` = z / `norm` mapped back to z:
    (g - u (u . g)) / norm, computed in place in `grad`."""
    grad -= u * np.einsum("ij,ij->i", u, grad)[:, None]
    grad /= norm
    return grad


def inner_contrastive_loss(
    z_batches: list[np.ndarray],
    pair_sets: list[PairSets],
) -> tuple[np.floating, list[np.ndarray]]:
    """NT-Xent over true-positive pairs against true-negative denominators.

    Per view: sum_i sum_{j in tp(i)} -log(exp(s_ij/tau) / sum_{tn(i)} exp(s/tau))
    weighted 1/(batch * |tp(i)|), averaged over views. Samples lacking either
    positives or negatives contribute nothing. Returns the value and its
    gradient in each view's latents.
    """
    n_views = len(z_batches)
    inv_temp = 1.0 / TEMPERATURE
    value = 0.0
    grads = []
    for z, pairs in zip(z_batches, pair_sets):
        u, norm = _unit_rows(z)
        row_weight = 1.0 / (np.maximum(pairs.tp.sum(axis=1), 1) * n_views * u.shape[0]).astype(u.dtype)
        view_value, g = _nt_xent_rows(u @ u.T, pairs.tp * row_weight[:, None], pairs.tn, inv_temp)
        value += view_value
        grads.append(_from_unit_rows((g + g.T) @ u, u, norm))
    return z_batches[0].dtype.type(value), grads


# ---------------------------------------------------------------------------
# common-view multi-level guidance


def _first_seen_ids(labels: np.ndarray) -> np.ndarray:
    """Labels renumbered 0, 1, ... in order of first appearance, so what
    is computed from them depends on the partition, not on its names."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    rank = np.empty_like(first)
    rank[np.argsort(first)] = np.arange(first.size)
    return rank[inverse]


def common_contrastive_loss(
    z_batches: list[np.ndarray],
    batch_common_labels: dict[int, np.ndarray],
) -> tuple[np.floating, list[np.ndarray]]:
    """Anchor every concatenated-batch sample against each view's batch.

    At each level of `batch_common_labels` (common cluster per row of the
    concatenated batch), a pair (anchor i, view sample j) is positive when
    i and j share a common cluster, negative otherwise, and weighs
    w_j = 1/(N * V * b_v) for N anchors and b_v samples in view v. Each
    level contributes an NT-Xent term whose denominator pools that
    anchor's negatives across all views; levels are averaged. Every anchor
    is its own positive; a level with a single cluster has no negatives
    and contributes nothing.

    Once per call, each level with two or more clusters gets one column
    per cluster in an N x (sum of k) 0/1 `member` matrix; `outside` is its
    complement. Per cluster this gives the positive weight c (the sum of
    its members' w) and the weighted latent sum M, so anchor i's positive
    term sum_j w_ij s_ij is u_i . M[c_i] and needs no b_v x N pass.

    Once per anchor view (b_v x N), the block takes one similarity product
    and one exponent, E = exp((s - 1)/tau), whatever the number of levels.
    1 is the largest cosine, so E <= 1, and the shift cancels between the
    negatives and their sum. `E @ outside` gives every level's negative
    sums at once. `table @ outside.T` spreads each level's
    c_i / (tau * negsum_i) over that level's negatives, so the gradient in
    the similarities is that product times E: exactly 0 on pairs that are
    positive at every level. E and the gradient block live in two
    b_max x N buffers allocated once per call.
    """
    n_views = len(z_batches)
    inv_temp = 1.0 / TEMPERATURE
    u, norm = _unit_rows(np.concatenate(z_batches))
    sizes = [z.shape[0] for z in z_batches]
    offsets = np.cumsum([0, *sizes])
    n_union = int(offsets[-1])
    col_weight = np.repeat(np.array([1.0 / (n_union * n_views * b_v) for b_v in sizes], u.dtype), sizes)
    scale = 1.0 / len(batch_common_labels)
    ids = [_first_seen_ids(common) for common in batch_common_labels.values()]
    ids = [level for level in ids if level.max(initial=0) > 0]
    if not ids:
        return u.dtype.type(0.0), [np.zeros_like(z) for z in z_batches]
    widths = [int(level.max()) + 1 for level in ids]
    cols = np.stack(ids, axis=1) + np.cumsum([0, *widths[:-1]])  # (N, levels) member columns
    member = np.zeros((n_union, sum(widths)), u.dtype)
    np.put_along_axis(member, cols, 1.0, axis=1)
    outside = 1.0 - member
    pos_weight = col_weight @ member
    latent_sum = member.T @ u
    weighted_sum = member.T @ (col_weight[:, None] * u)
    value = -inv_temp * float(np.sum(latent_sum * weighted_sum))
    grad = -inv_temp * (weighted_sum[cols].sum(axis=1) + col_weight[:, None] * latent_sum[cols].sum(axis=1))
    b_max = max(sizes)
    e_buf = np.empty((b_max, n_union), u.dtype)
    h_buf = np.empty((b_max, n_union), u.dtype)
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        u_blk, cols_blk = u[lo:hi], cols[lo:hi]
        e = np.matmul(u_blk * inv_temp, u.T, out=e_buf[: hi - lo])
        e -= inv_temp
        np.exp(e, out=e)
        negsum = np.take_along_axis(e @ outside, cols_blk, axis=1)
        c = pos_weight[cols_blk]
        value += float(np.sum(c * (np.log(negsum) + inv_temp)))
        table = np.zeros((hi - lo, member.shape[1]), u.dtype)
        np.put_along_axis(table, cols_blk, c * inv_temp / negsum, axis=1)
        h = np.matmul(table, outside.T, out=h_buf[: hi - lo])
        h *= e
        grad[lo:hi] += h @ u
        grad += h.T @ u_blk
    grad *= scale
    grad = _from_unit_rows(grad, u, norm)
    return u.dtype.type(value * scale), np.split(grad, offsets[1:-1])


# ---------------------------------------------------------------------------
# cross-view guidance


def student_assignments(z: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Heavy-tailed soft assignment of rows to centroids, and its live kernel.

    Rows get the t-distribution kernel k = 1/(1 + squared distance), the
    squared distance clipped at 0, normalized per row. Unlike a
    temperature softmax this never saturates: far samples still receive
    a usable pull toward a target centroid, which is what lets the
    guidance term move whole clusters. The live kernel is k where the
    squared distance is positive and 0 where it was clipped, the only
    entries through which z moves the assignment.
    """
    d2 = (z * z).sum(axis=1, keepdims=True) + (centroids**2).sum(axis=1)[None, :] - (z @ centroids.T) * 2.0
    kernel = 1.0 / (np.maximum(d2, 0.0) + 1.0)
    q = kernel / kernel.sum(axis=1, keepdims=True)
    kernel[d2 <= 0] = 0.0
    return q, kernel


def cross_view_guidance_loss(
    z_batches: list[np.ndarray],
    centroids: np.ndarray,
    batch_common_labels: list[np.ndarray],
) -> tuple[np.floating, list[np.ndarray]]:
    """Alignment pull of every view toward the common-view frame.

    Every batch sample is pulled toward the centroid of its common
    cluster (per view, the final-level common label of each batch row):
    the sample's heavy-tailed assignment distribution is scored against
    that centroid (cross-entropy), so whole clusters migrate onto the
    shared frame. Each view is weighted (V-1)/V^2, the double sum over
    ordered view pairs, so a single view contributes nothing.

    Per view of b rows with targets t, the value is
    -(w/b) sum_i log max(q_it, floor), summed over views. Its gradient
    in the squared distances is (w/b) (k_it [j = t] - q_ij k_ij) for the
    live kernel k, 0 on a row whose q_it is at the floor; in z_i it is
    2 (sum_j g_ij z_i - sum_j g_ij c_j).
    """
    n_views = len(z_batches)
    weight = (n_views - 1) / (n_views * n_views)
    centroids = centroids.astype(z_batches[0].dtype, copy=False)
    value = 0.0
    grads = []
    for z, targets in zip(z_batches, batch_common_labels):
        b = targets.shape[0]
        rows = np.arange(b)
        q, kernel = student_assignments(z, centroids)
        picked = q[rows, targets]
        value -= weight / b * float(np.log(np.maximum(picked, DISTRIBUTION_FLOOR)).sum())
        g = -(q * kernel)
        g[rows, targets] += kernel[rows, targets]
        g[picked <= DISTRIBUTION_FLOOR] = 0.0
        g *= 2.0 * weight / b
        grad_z = g.sum(axis=1, keepdims=True) * z
        grad_z -= g @ centroids
        grads.append(grad_z)
    return z_batches[0].dtype.type(value), grads


# ---------------------------------------------------------------------------
# combination


def total_loss(l_ae, l_in, l_co, l_cr, weights: LossWeights) -> np.floating:
    """l_ae + lambda2 l_in + lambda3 l_co + lambda4 l_cr, summed in float64
    and held in the dtype of `l_ae`."""
    terms = ((l_ae, 1.0), (l_in, weights.lambda2), (l_co, weights.lambda3), (l_cr, weights.lambda4))
    return np.asarray(l_ae).dtype.type(sum(float(t) * w for t, w in terms))
