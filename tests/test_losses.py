"""Loss builders: hand cases, brute-force pair oracles, gradient behavior."""

import math
import tracemalloc

import numpy as np
import pytest

from oracles import (
    blockwise_common_contrastive,
    brute_common_contrastive,
    brute_cross_view_guidance,
    brute_inner_contrastive,
    brute_pair_sets,
    finite_difference_gradients,
    max_relative_gradient_error,
)
from umclust import losses
from umclust.cluster import match_views
from umclust.data import SyntheticSpec, synthesize
from umclust.errors import ConfigError, ShapeError
from umclust.losses import (
    TEMPERATURE,
    ClusterSet,
    LossWeights,
    _from_unit_rows,
    _unit_rows,
    build_inner_pairs,
    common_contrastive_loss,
    cross_view_guidance_loss,
    inner_contrastive_loss,
    recon_orth_term,
    total_loss,
)
from umclust.nn import build_bundle
from umclust.train import TrainConfig, refresh_level_state, walk_back


# ---------------------------------------------------------------------------
# weights and level sets


def test_loss_weights_validation():
    with pytest.raises(ConfigError, match="lambda2"):
        LossWeights(lambda2=-1.0)
    with pytest.raises(TypeError):
        LossWeights(temperature=0.1)  # a constant, losses.TEMPERATURE, not a weight
    assert LossWeights(lambda4=0.0).lambda4 == 0.0


def test_cluster_set_default():
    assert ClusterSet.default(10).levels == (2, 5, 10)
    assert ClusterSet.default(5).levels == (2, 3, 5)
    assert ClusterSet.default(4).levels == (2, 4)   # ceil(K/2) collides with k1
    assert ClusterSet.default(3).levels == (2, 3)
    assert ClusterSet.default(2).levels == (2,)


def test_cluster_set_prefix_and_validation():
    cs = ClusterSet((2, 5, 10))
    assert [cs.active(t, 8) for t in (1, 2, 3, 4, 5, 8)] == [(2,), (2,), (2, 5), (2, 5), (2, 5, 10), (2, 5, 10)]
    # with fewer levels than phases every phase takes what there is
    assert [ClusterSet((3,)).active(t, 4) for t in range(1, 5)] == [(3,)] * 4
    assert [ClusterSet((2, 3)).active(t, 4) for t in range(1, 5)] == [(2,), (2, 3), (2, 3), (2, 3)]
    with pytest.raises(ConfigError):
        ClusterSet((5, 2))


# ---------------------------------------------------------------------------
# reconstruction + orthogonality


def test_recon_orth_zero_for_perfect_autoencoder_orthonormal_rows():
    z = np.eye(3)[:2]  # orthonormal rows
    x = np.random.default_rng(0).normal(size=(2, 4))
    value, grad_x_hat, grad_z = recon_orth_term(x, x, z, lambda1=1.0)
    assert value == pytest.approx(0.0, abs=1e-15)
    assert not grad_x_hat.any() and not grad_z.any()


def test_recon_orth_lambda_zero_is_pure_reconstruction():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    xh = rng.normal(size=(3, 4))
    z = rng.normal(size=(3, 2))
    got, grad_x_hat, grad_z = recon_orth_term(x, xh, z, lambda1=0.0)
    assert got == pytest.approx(((x - xh) ** 2).sum() / 3, rel=1e-12)
    assert np.allclose(grad_x_hat, 2 * (xh - x) / 3, rtol=1e-12, atol=0) and not grad_z.any()


def test_recon_orth_hand_case():
    # two samples, hand-evaluated reconstruction and gram terms
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    xh = np.array([[0.5, 0.0], [0.0, 1.0]])
    z = np.array([[1.0, 1.0], [1.0, -1.0]])
    lam = 0.7
    rec = ((x - xh) ** 2).sum() / 2
    gram = z @ z.T - np.eye(2)
    reg = (gram**2).sum() / 4
    got, _, grad_z = recon_orth_term(x, xh, z, lambda1=lam)
    assert got == pytest.approx(rec + lam * reg, abs=1e-10)
    assert np.allclose(grad_z, 4 * lam * gram @ z / 4, rtol=1e-12, atol=0)


def test_recon_orth_rejects_empty_batch():
    with pytest.raises(ShapeError):
        recon_orth_term(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)), 1.0)


# ---------------------------------------------------------------------------
# inner-view pair sets


def test_single_level_pairs_degenerate():
    labels = {2: np.array([0, 0, 1, 1])}
    pairs = build_inner_pairs(labels, np.arange(4))
    assert set(np.flatnonzero(pairs.tp[0])) == {1}
    assert set(np.flatnonzero(pairs.tn[0])) == {2, 3}


def test_two_level_exclusion_case():
    # levels L1=[0,0,1,1], L2=[0,1,1,0]: sample 0 keeps no positives and
    # only sample 2 as a negative
    labels = {2: np.array([0, 0, 1, 1]), 4: np.array([0, 1, 1, 0])}
    pairs = build_inner_pairs(labels, np.arange(4))
    assert not pairs.tp[0].any()
    assert set(np.flatnonzero(pairs.tn[0])) == {2}


def test_all_same_cluster_pairs():
    labels = {2: np.zeros(5, dtype=int), 3: np.zeros(5, dtype=int)}
    pairs = build_inner_pairs(labels, np.arange(5))
    assert not pairs.tn.any()
    assert all(set(np.flatnonzero(pairs.tp[i])) == set(range(5)) - {i} for i in range(5))


def test_pairs_against_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 64))
        n_levels = int(rng.integers(1, 4))
        levels = {lv: rng.integers(0, int(rng.integers(2, 6)), size=n) for lv in range(n_levels)}
        pairs = build_inner_pairs(levels, np.arange(n))
        tp_o, tn_o = brute_pair_sets(list(levels.values()), n)
        for i in range(n):
            assert set(np.flatnonzero(pairs.tp[i])) == tp_o[i]
            assert set(np.flatnonzero(pairs.tn[i])) == tn_o[i]


def test_pairs_respect_batch_restriction():
    labels = {2: np.array([0, 1, 0, 1, 0])}
    pairs = build_inner_pairs(labels, np.array([0, 2, 3]))
    # positions are batch-local: batch sample 0 (global 0) pairs with batch sample 1 (global 2)
    assert set(np.flatnonzero(pairs.tp[0])) == {1}
    assert set(np.flatnonzero(pairs.tn[0])) == {2}


def test_adding_levels_shrinks_pair_sets():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = 20
        l1 = rng.integers(0, 3, n)
        l2 = rng.integers(0, 4, n)
        one = build_inner_pairs({2: l1}, np.arange(n))
        two = build_inner_pairs({2: l1, 3: l2}, np.arange(n))
        assert (two.tp <= one.tp).all()
        assert (two.tn <= one.tn).all()


# ---------------------------------------------------------------------------
# inner-view contrastive loss


def test_inner_loss_zero_without_negatives():
    z = np.random.default_rng(0).normal(size=(4, 3))
    pairs = build_inner_pairs({2: np.zeros(4, dtype=int)}, np.arange(4))
    value, _ = inner_contrastive_loss([z], [pairs])
    assert value == 0.0


def test_inner_loss_hand_value():
    # anchors 0 and 1 are mutual positives with similarity 1; sample 2 is the
    # only negative with similarity 0: each term is -log(e^10 / e^0) = -10,
    # weighted 1/(V * b * m_i) = 1/3
    z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    pairs = build_inner_pairs({2: np.array([0, 0, 1])}, np.arange(3))
    value, _ = inner_contrastive_loss([z], [pairs])
    assert value == pytest.approx(-20.0 / 3.0, abs=1e-10)


def test_inner_loss_decreases_when_positive_similarity_rises():
    def loss_at(theta):
        z = np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)], [-0.3, 1.0]])
        pairs = build_inner_pairs({2: np.array([0, 0, 1])}, np.arange(3))
        return inner_contrastive_loss([z], [pairs])[0]

    assert loss_at(0.2) < loss_at(0.8) < loss_at(1.4)


def test_inner_loss_gradient_flows():
    z = np.random.default_rng(1).normal(size=(5, 3))
    pairs = build_inner_pairs({2: np.array([0, 0, 1, 1, 0])}, np.arange(5))
    _, (grad,) = inner_contrastive_loss([z], [pairs])
    assert grad.shape == z.shape and np.isfinite(grad).all() and grad.any()


# ---------------------------------------------------------------------------
# common-view contrastive loss


def _simple_common_setup():
    # one view, two samples on orthogonal axes, two common clusters
    z = np.array([[1.0, 0.0], [0.0, 1.0]])
    common_labels = {2: np.array([0, 1])}
    return [z], common_labels


def test_common_loss_hand_value():
    # each anchor's only positive is itself (similarity 1), its only negative
    # the other row (similarity 0): each positive term is -log(e^10/e^0) = -10
    # with weight 1/(N_b * V * b_v) = 1/4
    zs, cl = _simple_common_setup()
    value, _ = common_contrastive_loss(zs, cl)
    assert value == pytest.approx(-10.0 * 2 / 4, abs=1e-10)


def test_common_loss_skips_anchor_without_negatives():
    # one common cluster -> no negatives anywhere -> loss contributes 0
    z = np.array([[1.0, 0.0], [0.8, 0.2]])
    value, (grad,) = common_contrastive_loss([z], {2: np.array([0, 0])})
    assert value == 0.0 and not grad.any()


def test_common_loss_relabeling_invariance():
    rng = np.random.default_rng(3)
    zs = [rng.normal(size=(5, 4)), rng.normal(size=(4, 4))]
    k = 3
    cl = {k: rng.integers(0, k, size=9)}
    base = common_contrastive_loss(zs, cl)[0]
    # renaming the common clusters changes no pair
    perm = np.array([2, 0, 1])
    permuted = common_contrastive_loss(zs, {k: perm[cl[k]]})[0]
    assert permuted == base


def test_common_loss_multi_level_average():
    zs, cl = _simple_common_setup()
    one = common_contrastive_loss(zs, cl)[0]
    two = common_contrastive_loss(zs, {2: cl[2], 3: cl[2]})[0]
    assert two == pytest.approx(one, abs=1e-12)  # identical levels average to the same value


def test_common_loss_gradient_flows_to_all_views():
    rng = np.random.default_rng(4)
    zs = [rng.normal(size=(4, 3)) for _ in range(2)]
    k = 2
    cl = {k: rng.integers(0, k, size=8)}
    _, grads = common_contrastive_loss(zs, cl)
    for z, grad in zip(zs, grads):
        assert grad.shape == z.shape and np.isfinite(grad).all() and grad.any()


# ---------------------------------------------------------------------------
# both contrastive losses against the brute-force oracles


LEVELS = (2, 3, 4)
SIZES = (6, 9)


def _contrastive_case(seed: int):
    """Two views of unequal batch size at three levels, with an all-zero
    latent row and an inner anchor without negatives. Per level, common
    cluster g of each view is its cluster perm[g] for a random index map
    perm; the common labels follow from it, and so do the
    (common x view-cluster) matrices the oracles read."""
    rng = np.random.default_rng(seed)
    zs = [rng.normal(size=(b, 4)) for b in SIZES]
    zs[0][2] = 0.0
    view_labels = {k: [rng.integers(0, k, size=b) for b in SIZES] for k in LEVELS}
    # view 1, anchor 0: every sample shares its cluster at level 2 or at level 3
    first, second = view_labels[2][1], view_labels[3][1]
    first[0] = 0
    second[first != 0] = second[0]
    perms = {k: [rng.permutation(k) for _ in SIZES] for k in LEVELS}
    common_labels = {
        k: np.concatenate([np.argsort(perm)[labels] for perm, labels in zip(perms[k], view_labels[k])])
        for k in LEVELS
    }
    matchings = {k: [np.eye(k, dtype=np.int64)[perm] for perm in perms[k]] for k in LEVELS}
    return zs, view_labels, common_labels, matchings


def _matrices(common_labels, view_labels):
    """Per level, one (common x view-cluster) 0/1 matrix per view: entry
    (g, c) is 1 when a sample of view cluster c has common label g."""
    out = {}
    for k, per_view in view_labels.items():
        ends = np.cumsum([labels.size for labels in per_view])[:-1]
        out[k] = []
        for labels, common in zip(per_view, np.split(common_labels[k], ends)):
            a = np.zeros((k, k), dtype=np.int64)
            a[common, labels] = 1
            out[k].append(a)
    return out


def _refresh_case(batch: int = 7):
    """A real refresh state and the first `batch` rows of each view, with
    the correspondence matrices read off the common labels `match_views`
    gives on the refreshed latents."""
    ds = synthesize(
        SyntheticSpec(clusters=4, views=2, dims=(5, 6), samples_per_cluster=6, separation=5.0, noise_std=1.0, seed=2)
    )
    cfg = TrainConfig(epochs=4, latent_dim=4, hidden_dims=(8,))
    bundle = build_bundle(ds.feature_dims(), cfg.latent_dim, cfg.hidden_dims, True, 1)
    cluster_set = ClusterSet((2, 3, 4))
    state, latents = refresh_level_state(bundle, ds.feature_matrices(), cluster_set, cluster_set.levels, cfg, {})
    matchings = _matrices(match_views(latents, state.view_labels, cluster_set.final), state.view_labels)
    rows = np.concatenate([offset + np.arange(batch) for offset in ds.row_offsets()])
    zs = [z[:batch] for z in latents]
    view_labels = {k: [labels[:batch] for labels in state.view_labels[k]] for k in cluster_set.levels}
    common_labels = {k: state.common_labels[k][rows] for k in cluster_set.levels}
    return state, zs, view_labels, common_labels, matchings


def _pair_sets(view_labels, active):
    return [
        build_inner_pairs({k: view_labels[k][v] for k in active}, np.arange(b))
        for v, b in enumerate(SIZES)
    ]


def _inner_loss(zs, view_labels, active):
    return inner_contrastive_loss(zs, _pair_sets(view_labels, active))


def test_contrastive_case_covers_the_edge_rows():
    zs, view_labels, common_labels, matchings = _contrastive_case(0)
    pairs = _pair_sets(view_labels, LEVELS)
    assert not pairs[1].tn[0].any()
    assert any((~p.tp.any(axis=1) & p.tn.any(axis=1)).any() for p in pairs)
    assert not zs[0][2].any()
    for k in LEVELS:
        for a in matchings[k]:
            assert np.array_equal(a @ a.T, np.eye(k, dtype=np.int64))


@pytest.fixture
def temperature(request, monkeypatch):
    """Runs both NT-Xent terms at tau = `request.param`: the closed forms
    must follow `losses.TEMPERATURE`, whatever its value."""
    monkeypatch.setattr(losses, "TEMPERATURE", request.param)
    return request.param


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("active", [(2,), (2, 3), LEVELS])
@pytest.mark.parametrize("temperature", [TEMPERATURE, 0.5], indirect=True)
def test_contrastive_losses_match_oracles(seed, active, temperature):
    zs, view_labels, common_labels, matchings = _contrastive_case(seed)
    pairs = _pair_sets(view_labels, active)
    tp_sets = [[set(np.flatnonzero(p.tp[i])) for i in range(b)] for p, b in zip(pairs, SIZES)]
    tn_sets = [[set(np.flatnonzero(p.tn[i])) for i in range(b)] for p, b in zip(pairs, SIZES)]
    inner = _inner_loss(zs, view_labels, active)[0]
    assert inner == pytest.approx(brute_inner_contrastive(zs, tp_sets, tn_sets, temperature), rel=1e-12)
    common = common_contrastive_loss(zs, {k: common_labels[k] for k in active})[0]
    expected = brute_common_contrastive(zs, common_labels, view_labels, matchings, active, temperature)
    assert common == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("temperature", [TEMPERATURE, 0.5], indirect=True)
def test_common_loss_on_a_refresh_state_matches_the_matching_oracle(temperature):
    _, zs, view_labels, common_labels, matchings = _refresh_case()
    levels = tuple(common_labels)
    # every view's clusters map one-to-one onto the common clusters
    for k in levels:
        for a in matchings[k]:
            assert np.array_equal(a.sum(axis=0), np.ones(k)) and np.array_equal(a.sum(axis=1), np.ones(k))
    value = common_contrastive_loss(zs, common_labels)[0]
    expected = brute_common_contrastive(zs, common_labels, view_labels, matchings, levels, temperature)
    assert value == pytest.approx(expected, rel=1e-12)


def _guidance_targets(common_labels, rng):
    """Centroids for the final level plus one far centroid, and per-view
    targets read off the final-level common labels, except that view 0's
    first row targets the far centroid: its assignment to it sits below
    `DISTRIBUTION_FLOOR`."""
    k = LEVELS[-1]
    centroids = np.vstack([rng.normal(size=(k, 4)), np.full((1, 4), 5e4)])
    targets = np.split(common_labels[k].copy(), np.cumsum(SIZES)[:-1])
    targets[0][0] = k
    return centroids, targets


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("active", [(2, 3), LEVELS])
@pytest.mark.parametrize("which", ["inner", "common", "guidance", "recon"])
def test_contrastive_gradients_match_finite_differences(seed, active, which):
    zs, view_labels, common_labels, matchings = _contrastive_case(seed)
    rng = np.random.default_rng(seed)
    params = {f"z{v}": z for v, z in enumerate(zs)}
    centroids, targets = _guidance_targets(common_labels, rng)
    xs = [rng.normal(size=(b, 3)) for b in SIZES]
    x_hats = [rng.normal(size=(b, 3)) for b in SIZES]
    if which == "recon":
        params.update({f"x_hat{v}": x_hat for v, x_hat in enumerate(x_hats)})

    def build():
        """The term's value and its gradient in every array of `params`."""
        if which == "inner":
            value, grads = _inner_loss(zs, view_labels, active)
        elif which == "common":
            value, grads = common_contrastive_loss(zs, {k: common_labels[k] for k in active})
        elif which == "guidance":
            value, grads = cross_view_guidance_loss(zs, centroids, targets)
        else:  # summed over both views, as recon_orth_loss sums it
            terms = [recon_orth_term(x, xh, z, 0.7) for x, xh, z in zip(xs, x_hats, zs)]
            value = sum(t[0] for t in terms)
            grads = [gz for *_, gz in terms] + [gx for _, gx, _ in terms]
        return value, dict(zip(params, grads))

    _, grads = build()
    numeric = finite_difference_gradients(params, lambda: build()[0])
    assert all(np.isfinite(g).all() for g in grads.values())
    if which == "guidance":
        # the row whose target assignment sits at the floor passes nothing back
        assert np.all(grads["z0"][0] == 0.0) and np.any(grads["z0"][1:] != 0.0)
    if which in ("inner", "common"):
        # row normalization is not differentiable at the all-zero row,
        # which passes back exactly 0; every other row must match
        assert np.all(grads["z0"][2] == 0.0)
        numeric["z0"][2] = 0.0
    assert max_relative_gradient_error(grads, numeric) < 1e-6


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("which", ["inner", "common"])
def test_an_all_zero_latent_row_gives_a_finite_value_and_a_zero_gradient(which, dtype):
    zs, view_labels, common_labels, _ = _contrastive_case(0)
    assert not zs[0][2].any()
    zs = [z.astype(dtype) for z in zs]
    if which == "inner":
        value, grads = _inner_loss(zs, view_labels, (2,))
    else:
        value, grads = common_contrastive_loss(zs, common_labels)
    assert value.dtype == dtype and np.isfinite(value)
    assert all(g.dtype == dtype and np.isfinite(g).all() for g in grads)
    assert np.all(grads[0][2] == 0.0)
    assert np.all((grads[0] != 0.0).any(axis=1)[[0, 1, 3, 4, 5]])


@pytest.mark.parametrize("which", ["inner", "common"])
def test_contrastive_losses_stay_non_finite_on_non_finite_latents(which):
    zs, view_labels, common_labels, matchings = _contrastive_case(0)
    zs[1][4, 0] = np.nan
    if which == "inner":
        value, _ = _inner_loss(zs, view_labels, LEVELS)
    else:
        value, _ = common_contrastive_loss(zs, common_labels)
    assert not np.isfinite(value)


def test_common_loss_graph_holds_no_anchor_by_view_arrays():
    # views8 shape: 8 views x 256 rows, D=32, 3 levels. Similarities are
    # N x b_v per view and level; none of them may outlive the call, so
    # what it returns (the value and the latent gradients) holds no more
    # than the N x D latent union.
    rng = np.random.default_rng(11)
    n_views, b, dim, levels = 8, 256, 32, (2, 5, 10)
    zs = [rng.normal(size=(b, dim)) for _ in range(n_views)]
    cl = {k: rng.integers(0, k, size=n_views * b) for k in levels}
    tracemalloc.start()
    try:
        value, grads = common_contrastive_loss(zs, cl)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [g.shape for g in grads] == [z.shape for z in zs]
    assert held <= n_views * b * dim * 8 + (1 << 16)


def _blockwise_case(sizes, dim, levels, seed=0, absent=False, single=False):
    """Latent batches of `sizes` rows with a zero row and a duplicated row
    (within a view and across views), and random common labels per level.
    `absent` draws each level's labels from a subset of its k ids;
    `single` adds a level at which every row shares one cluster."""
    rng = np.random.default_rng(seed)
    zs = [rng.normal(size=(b, dim)) for b in sizes]
    zs[0][0] = 0.0
    zs[0][-1] = zs[0][1]
    zs[-1][-1] = zs[0][1]
    n = sum(sizes)
    labels = {}
    for k in levels:
        ids = rng.choice(k, size=max(2, k // 2), replace=False) if absent and k > 2 else np.arange(k)
        labels[k] = rng.choice(ids, size=n)
    if single:
        labels[1] = np.zeros(n, dtype=np.int64)
    return zs, labels


BLOCKWISE_CASES = {
    "views8": ((256,) * 8, 32, (2, 5, 10), {}),
    "views8_last_step": ((144,) * 8, 32, (2, 5, 10), {}),
    "many_samples": ((128,) * 4, 32, (2, 10, 20), {}),
    "wide": ((128,) * 3, 128, (2, 5, 10), {}),
    "one_level": ((40, 30), 8, (3,), {}),
    "two_levels": ((40, 30), 8, (3, 6), {}),
    "unequal_batches": ((256, 144, 7, 1), 16, (2, 5, 10), {}),
    "absent_cluster_ids": ((64, 48), 8, (2, 10, 20), {"absent": True}),
    "single_cluster_level": ((64, 48), 8, (4, 9), {"single": True}),
    "only_a_single_cluster": ((9, 5), 4, (), {"single": True}),
}


def _assert_matches_blockwise(zs, labels, temperature):
    value, grads = common_contrastive_loss(zs, labels)
    ref_value, ref_grads = blockwise_common_contrastive(zs, labels, temperature)
    assert value == pytest.approx(ref_value, rel=1e-12)
    for g, ref in zip(grads, ref_grads):
        assert np.isfinite(g).all()
        assert g == pytest.approx(ref, rel=1e-12, abs=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("temperature", [TEMPERATURE, 0.5], indirect=True)
@pytest.mark.parametrize("case", list(BLOCKWISE_CASES))
def test_common_loss_matches_the_blockwise_reference(case, temperature):
    sizes, dim, levels, extra = BLOCKWISE_CASES[case]
    zs, labels = _blockwise_case(sizes, dim, levels, **extra)
    if len(levels) > 1:
        # some pair is positive at one level and negative at another
        first, last = labels[levels[0]], labels[levels[-1]]
        assert ((first[:, None] == first[None, :]) != (last[:, None] == last[None, :])).any()
    _assert_matches_blockwise(zs, labels, temperature)


def test_common_loss_backward_stays_within_its_memory_bound():
    # views8 shape: one b x N float64 array is 4 MB here; the call, which
    # computes the value and its gradients, may hold at most four of them
    # at once
    rng = np.random.default_rng(12)
    n_views, b, dim, levels = 8, 256, 32, (2, 5, 10)
    zs = [rng.normal(size=(b, dim)) for _ in range(n_views)]
    cl = {k: rng.integers(0, k, size=n_views * b) for k in levels}
    tracemalloc.start()
    try:
        common_contrastive_loss(zs, cl)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * b * (n_views * b) * 8


# ---------------------------------------------------------------------------
# guidance


def test_guidance_hand_case_pulls_every_view():
    # both views' samples sit in common clusters [0, 1]; each view weighs (2-1)/2^2
    z0 = np.array([[0.0, 0.0], [1.0, 0.0]])
    z1 = np.array([[1.0, 1.0], [2.0, 0.0]])
    centroids = np.array([[0.0, 0.0], [3.0, 0.0]])
    value, grads = cross_view_guidance_loss([z0, z1], centroids, [np.array([0, 1]), np.array([0, 1])])
    # view 0: sample 0 has q = (1, 0.1)/1.1, target 0; sample 1 has q = (0.5, 0.2)/0.7, target 1
    # view 1: sample 0 has q = (1/3, 1/6)/(1/2), target 0; sample 1 has q = (0.2, 0.5)/0.7, target 1
    view0 = (math.log(1.1) + math.log(3.5)) / 2
    view1 = (math.log(1.5) + math.log(1.4)) / 2
    assert value == pytest.approx((view0 + view1) / 4, rel=1e-12)
    for grad in grads:
        assert np.any(grad != 0)


def test_guidance_zero_without_reliable_peers():
    # one view has no peer: its weight (1-1)/1^2 is 0
    z = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 5.0]])
    value, (grad,) = cross_view_guidance_loss([z], np.eye(2), [np.array([0, 1, 0])])
    assert value == 0.0
    assert not np.any(grad)


@pytest.mark.parametrize("seed", range(4))
def test_guidance_matches_the_matching_oracle(seed):
    zs, view_labels, common_labels, matchings = _contrastive_case(seed)
    k = LEVELS[-1]
    centroids = np.random.default_rng(seed).normal(size=(k, 4))
    split = np.split(common_labels[k], np.cumsum(SIZES)[:-1])
    value = cross_view_guidance_loss(zs, centroids, split)[0]
    expected = brute_cross_view_guidance(zs, centroids, matchings[k], view_labels[k])
    assert value == pytest.approx(expected, rel=1e-12)


def test_guidance_on_a_refresh_state_matches_the_matching_oracle():
    state, zs, view_labels, common_labels, matchings = _refresh_case()
    k = max(common_labels)
    split = np.split(common_labels[k], len(zs))
    value = cross_view_guidance_loss(zs, state.final_centroids, split)[0]
    expected = brute_cross_view_guidance(zs, state.final_centroids, matchings[k], view_labels[k])
    assert value == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# total


def test_total_loss_weighted_sum():
    w = LossWeights(lambda1=1.0, lambda2=2.0, lambda3=3.0, lambda4=4.0)
    assert total_loss(1.0, 1.0, 1.0, 1.0, w) == pytest.approx(10.0)
    w0 = LossWeights(lambda2=0.0, lambda3=0.0, lambda4=0.0)
    assert total_loss(5.0, 1.0, 1.0, 1.0, w0) == pytest.approx(5.0)


class _Walk:
    """A network's output for `walk_back`: records the gradient it is
    walked back from, and returns `input_grad`."""

    def __init__(self, input_grad=None):
        self.input_grad, self.walked = input_grad, []

    def backward(self, grad, update):
        self.walked.append(grad.copy())
        return self.input_grad


def test_total_loss_gradient_is_weighted_sum():
    # each encoder is walked back from l_ae's latent gradient, plus its
    # decoder's input gradient, plus lambda2, lambda3 and lambda4 times the
    # other terms', added in that order in the latents' dtype
    rng = np.random.default_rng(8)
    w = LossWeights(lambda2=0.01, lambda3=3.0, lambda4=1000.0)
    arrays = lambda: [rng.normal(size=(4, 3)).astype(np.float32) for _ in range(2)]
    ae_x_hat, ae_z, decoded, inner, common, guidance = (arrays() for _ in range(6))
    zs, x_hats = [_Walk() for _ in range(2)], [_Walk(d) for d in decoded]
    weighted = [(w.lambda2, list(inner)), (w.lambda3, list(common)), (w.lambda4, list(guidance))]
    walk_back(list(zs), list(x_hats), [(x, z.copy()) for x, z in zip(ae_x_hat, ae_z)], weighted, None)
    for v in range(2):
        expected = ae_z[v] + decoded[v]
        for weight, grads in ((w.lambda2, inner), (w.lambda3, common), (w.lambda4, guidance)):
            expected += np.float32(weight) * grads[v]
        assert [g.dtype for g in x_hats[v].walked + zs[v].walked] == [np.float32] * 2
        assert np.array_equal(x_hats[v].walked[0], ae_x_hat[v])
        assert np.array_equal(zs[v].walked[0], expected)


def test_total_loss_is_summed_in_float64_and_held_in_the_dtype_of_l_ae():
    w = LossWeights(lambda2=0.01, lambda3=0.01, lambda4=1000.0)
    terms = [np.float32(v) for v in (0.3, 1.7, -2.9, 1e-4)]
    total = total_loss(*terms, w)
    assert total.dtype == np.float32
    assert total == np.float32(float(terms[0]) + 0.01 * float(terms[1]) + 0.01 * float(terms[2]) + 1000.0 * float(terms[3]))


# ---------------------------------------------------------------------------
# row normalization under the contrastive terms


def row_normalize(z: np.ndarray, weights: np.ndarray | None = None):
    """The unit rows u of `z`, normalized as the contrastive terms do, then
    sum(weights * u), or sum(u * u) without `weights`, and its gradient in `z`."""
    u, norm = _unit_rows(z)
    if weights is None:
        value, grad = (u * u).sum(), 2.0 * u
    else:
        value, grad = (u * weights).sum(), weights.astype(u.dtype)
    return u, float(value), _from_unit_rows(grad, u, norm)


def test_row_normalize_grad():
    rng = np.random.default_rng(7)
    z, w = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
    numeric = finite_difference_gradients({"z": z}, lambda: row_normalize(z, w)[1], h=1e-6)
    assert np.allclose(row_normalize(z, w)[2], numeric["z"], atol=1e-6, rtol=1e-4)


def test_row_normalize_zero_row_is_safe():
    out, _, grad = row_normalize(np.array([[0.0, 0.0], [3.0, 4.0]]))
    assert np.allclose(out, [[0.0, 0.0], [0.6, 0.8]])
    assert np.isfinite(grad).all()
    assert np.allclose(grad[0], 0.0)


def test_row_normalize_zero_row_passes_zero_gradient():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 3))
    data[1] = 0.0
    w = rng.normal(size=(4, 3))  # non-zero upstream on the zero row too
    out, _, grad = row_normalize(data, w)
    assert np.array_equal(out[1], np.zeros(3))
    assert np.array_equal(grad[1], np.zeros(3))
    # the other rows match the same rows normalized without the zero row,
    # bit for bit, and the unmasked formula
    rows = np.array([0, 2, 3])
    ref_out, _, ref_grad = row_normalize(data[rows], w[rows])
    assert np.array_equal(out[rows], ref_out)
    assert np.array_equal(grad[rows], ref_grad)
    norm = np.sqrt((data[rows] ** 2).sum(axis=1, keepdims=True))
    u = data[rows] / norm
    assert np.allclose(out[rows], u, rtol=1e-14, atol=0.0)
    expected = (w[rows] - u * (u * w[rows]).sum(axis=1, keepdims=True)) / norm
    assert np.allclose(grad[rows], expected, rtol=1e-12, atol=1e-15)


def test_row_normalize_zero_row_is_safe_in_float32():
    # a fixed 1e-60 floor flushes to 0 in float32, and 0 / 0 warns
    out, _, grad = row_normalize(np.array([[0.0, 0.0], [3.0, 4.0]], np.float32))
    assert out.dtype == np.float32
    assert np.array_equal(out[0], [0.0, 0.0]) and np.allclose(out[1], [0.6, 0.8], atol=1e-7)
    assert grad.dtype == np.float32 and np.array_equal(grad[0], [0.0, 0.0])


def test_row_normalize_zero_row_passes_zero_gradient_in_float32():
    rng = np.random.default_rng(7)
    data = rng.normal(size=(4, 3)).astype(np.float32)
    data[1] = 0.0
    w = rng.normal(size=(4, 3)).astype(np.float32)
    _, _, grad = row_normalize(data, w)
    assert grad.dtype == np.float32
    assert np.array_equal(grad[1], np.zeros(3)) and np.isfinite(grad).all()
