"""Loss builders: hand cases, brute-force pair oracles, gradient behavior."""

import math

import numpy as np
import pytest

from oracles import brute_pair_sets
from umclust.errors import ConfigError, ShapeError
from umclust.losses import (
    ClusterSet,
    LossWeights,
    build_inner_pairs,
    common_contrastive_loss,
    cross_view_guidance_loss,
    inner_contrastive_loss,
    recon_orth_term,
    select_reliable,
    total_loss,
)
from umclust.nn.tensor import Tensor


# ---------------------------------------------------------------------------
# weights and level sets


def test_loss_weights_validation():
    with pytest.raises(ConfigError):
        LossWeights(lambda2=-1.0)
    with pytest.raises(ConfigError):
        LossWeights(temperature=0.0)


def test_cluster_set_default():
    assert ClusterSet.default(10).levels == (2, 5, 10)
    assert ClusterSet.default(5).levels == (2, 3, 5)
    assert ClusterSet.default(4).levels == (2, 4)   # ceil(K/2) collides with k1
    assert ClusterSet.default(3).levels == (2, 3)
    assert ClusterSet.default(2).levels == (2,)


def test_cluster_set_prefix_and_validation():
    cs = ClusterSet((2, 5, 10))
    assert cs.prefix(1) == (2,)
    assert cs.prefix(2) == (2, 5)
    assert cs.prefix(3) == (2, 5, 10)
    assert cs.prefix(7) == (2, 5, 10)
    with pytest.raises(ConfigError):
        ClusterSet((5, 2))


# ---------------------------------------------------------------------------
# reconstruction + orthogonality


def test_recon_orth_zero_for_perfect_autoencoder_orthonormal_rows():
    z = Tensor(np.eye(3)[:2])  # orthonormal rows
    x = Tensor(np.random.default_rng(0).normal(size=(2, 4)))
    assert recon_orth_term(x, x, z, lambda1=1.0).item() == pytest.approx(0.0, abs=1e-15)


def test_recon_orth_lambda_zero_is_pure_reconstruction():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, 4))
    xh = rng.normal(size=(3, 4))
    z = rng.normal(size=(3, 2))
    got = recon_orth_term(Tensor(x), Tensor(xh), Tensor(z), lambda1=0.0).item()
    assert got == pytest.approx(((x - xh) ** 2).sum() / 3, rel=1e-12)


def test_recon_orth_hand_case():
    # two samples, hand-evaluated reconstruction and gram terms
    x = np.array([[1.0, 0.0], [0.0, 2.0]])
    xh = np.array([[0.5, 0.0], [0.0, 1.0]])
    z = np.array([[1.0, 1.0], [1.0, -1.0]])
    lam = 0.7
    rec = ((x - xh) ** 2).sum() / 2
    gram = z @ z.T - np.eye(2)
    reg = (gram**2).sum() / 4
    got = recon_orth_term(Tensor(x), Tensor(xh), Tensor(z), lambda1=lam).item()
    assert got == pytest.approx(rec + lam * reg, abs=1e-10)


def test_recon_orth_rejects_empty_batch():
    with pytest.raises(ShapeError):
        recon_orth_term(Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2))), Tensor(np.zeros((0, 2))), 1.0)


# ---------------------------------------------------------------------------
# inner-view pair sets


def test_single_level_pairs_degenerate():
    labels = {2: np.array([0, 0, 1, 1])}
    pairs = build_inner_pairs(labels, np.arange(4))
    assert set(pairs.tp_indices(0)) == {1}
    assert set(pairs.tn_indices(0)) == {2, 3}


def test_two_level_exclusion_case():
    # levels L1=[0,0,1,1], L2=[0,1,1,0]: sample 0 keeps no positives and
    # only sample 2 as a negative
    labels = {2: np.array([0, 0, 1, 1]), 4: np.array([0, 1, 1, 0])}
    pairs = build_inner_pairs(labels, np.arange(4))
    assert pairs.tp_indices(0).size == 0
    assert set(pairs.tn_indices(0)) == {2}


def test_all_same_cluster_pairs():
    labels = {2: np.zeros(5, dtype=int), 3: np.zeros(5, dtype=int)}
    pairs = build_inner_pairs(labels, np.arange(5))
    assert all(pairs.n[i] == 0 for i in range(5))
    assert all(set(pairs.tp_indices(i)) == set(range(5)) - {i} for i in range(5))


def test_pairs_against_brute_force_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 64))
        n_levels = int(rng.integers(1, 4))
        levels = {lv: rng.integers(0, int(rng.integers(2, 6)), size=n) for lv in range(n_levels)}
        pairs = build_inner_pairs(levels, np.arange(n))
        tp_o, tn_o = brute_pair_sets(list(levels.values()), n)
        for i in range(n):
            assert set(pairs.tp_indices(i)) == tp_o[i]
            assert set(pairs.tn_indices(i)) == tn_o[i]


def test_pairs_respect_batch_restriction():
    labels = {2: np.array([0, 1, 0, 1, 0])}
    pairs = build_inner_pairs(labels, np.array([0, 2, 3]))
    # positions are batch-local: batch sample 0 (global 0) pairs with batch sample 1 (global 2)
    assert set(pairs.tp_indices(0)) == {1}
    assert set(pairs.tn_indices(0)) == {2}


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
    z = Tensor(np.random.default_rng(0).normal(size=(4, 3)), requires_grad=True)
    pairs = build_inner_pairs({2: np.zeros(4, dtype=int)}, np.arange(4))
    loss = inner_contrastive_loss([z], [pairs], temperature=0.1)
    assert loss.item() == 0.0


def test_inner_loss_hand_value():
    # anchors 0 and 1 are mutual positives with similarity 1; sample 2 is the
    # only negative with similarity 0: each term is -log(e^10 / e^0) = -10,
    # weighted 1/(V * b * m_i) = 1/3
    z = Tensor(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    pairs = build_inner_pairs({2: np.array([0, 0, 1])}, np.arange(3))
    loss = inner_contrastive_loss([z], [pairs], temperature=0.1)
    assert loss.item() == pytest.approx(-20.0 / 3.0, abs=1e-10)


def test_inner_loss_decreases_when_positive_similarity_rises():
    def loss_at(theta):
        z = Tensor(np.array([[1.0, 0.0], [math.cos(theta), math.sin(theta)], [-0.3, 1.0]]))
        pairs = build_inner_pairs({2: np.array([0, 0, 1])}, np.arange(3))
        return inner_contrastive_loss([z], [pairs], temperature=0.1).item()

    assert loss_at(0.2) < loss_at(0.8) < loss_at(1.4)


def test_inner_loss_gradient_flows():
    z = Tensor(np.random.default_rng(1).normal(size=(5, 3)), requires_grad=True)
    pairs = build_inner_pairs({2: np.array([0, 0, 1, 1, 0])}, np.arange(5))
    loss = inner_contrastive_loss([z], [pairs], temperature=0.5)
    loss.backward()
    assert z.grad is not None and np.isfinite(z.grad).all()


# ---------------------------------------------------------------------------
# common-view contrastive loss


def _simple_common_setup():
    # one view, two samples on orthogonal axes, two clusters, identity matching
    z = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    common_labels = {2: np.array([0, 1])}
    view_labels = {2: [np.array([0, 1])]}
    matchings = {2: [np.eye(2, dtype=np.int64)]}
    return [z], common_labels, view_labels, matchings


def test_common_loss_hand_value():
    # matched pairs have similarity 1, unmatched 0: each positive term is
    # -log(e^10/e^0) = -10 with weight 1/(N_b * V * b_v) = 1/4
    zs, cl, vl, m = _simple_common_setup()
    loss = common_contrastive_loss(zs, cl, vl, m, active_levels=(2,), temperature=0.1)
    assert loss.item() == pytest.approx(-10.0 * 2 / 4, abs=1e-10)


def test_common_loss_skips_anchor_without_negatives():
    # everything matched -> no negatives anywhere -> loss contributes 0
    z = Tensor(np.array([[1.0, 0.0], [0.8, 0.2]]))
    cl = {2: np.array([0, 0])}
    vl = {2: [np.array([0, 0])]}
    m = {2: [np.eye(2, dtype=np.int64)]}
    loss = common_contrastive_loss([z], cl, vl, m, active_levels=(2,), temperature=0.1)
    assert loss.item() == 0.0


def test_common_loss_relabeling_invariance():
    rng = np.random.default_rng(3)
    zs = [Tensor(rng.normal(size=(5, 4))), Tensor(rng.normal(size=(4, 4)))]
    k = 3
    cl = {k: rng.integers(0, k, size=9)}
    vl = {k: [rng.integers(0, k, size=5), rng.integers(0, k, size=4)]}
    matchings = {k: [np.eye(k, dtype=np.int64), np.eye(k, dtype=np.int64)[::-1]]}
    base = common_contrastive_loss(zs, cl, vl, matchings, (k,), 0.1).item()
    # permute view-0 cluster ids and the matching columns consistently
    perm = np.array([2, 0, 1])
    vl2 = {k: [perm[vl[k][0]], vl[k][1]]}
    a0 = matchings[k][0][:, np.argsort(perm)]
    m2 = {k: [a0, matchings[k][1]]}
    permuted = common_contrastive_loss(zs, cl, vl2, m2, (k,), 0.1).item()
    assert permuted == pytest.approx(base, abs=1e-10)


def test_common_loss_multi_level_average():
    zs, cl, vl, m = _simple_common_setup()
    one = common_contrastive_loss(zs, cl, vl, m, (2,), 0.1).item()
    cl2 = {2: cl[2], 3: cl[2]}
    vl2 = {2: vl[2], 3: vl[2]}
    m2 = {2: m[2], 3: m[2]}
    two = common_contrastive_loss(zs, cl2, vl2, m2, (2, 3), 0.1).item()
    assert two == pytest.approx(one, abs=1e-12)  # identical levels average to the same value


def test_common_loss_gradient_flows_to_all_views():
    rng = np.random.default_rng(4)
    zs = [Tensor(rng.normal(size=(4, 3)), requires_grad=True) for _ in range(2)]
    k = 2
    cl = {k: rng.integers(0, k, size=8)}
    vl = {k: [rng.integers(0, k, size=4), rng.integers(0, k, size=4)]}
    m = {k: [np.eye(k, dtype=np.int64)] * 2}
    loss = common_contrastive_loss(zs, cl, vl, m, (k,), 0.1)
    loss.backward()
    for z in zs:
        assert z.grad is not None and np.isfinite(z.grad).all()


# ---------------------------------------------------------------------------
# reliable views and guidance


def test_select_reliable_strictly_increasing():
    sils = np.array([0.1, 0.2, 0.3])
    out = select_reliable(sils, coeff=1.0)
    assert out == [[1, 2], [2], []]


def test_select_reliable_all_equal_empty():
    assert select_reliable(np.array([0.4, 0.4, 0.4]), 1.0) == [[], [], []]


def test_select_reliable_spec_example():
    out = select_reliable(np.array([0.5, 0.2, 0.4]), coeff=1.5)
    assert out[1] == [0, 2]
    assert out[0] == []
    assert out[2] == []


def test_select_reliable_negative_silhouette_additive_margin():
    # threshold for view 0 is -0.2 + 1.5*0.2 = 0.1, not 1.5*(-0.2) = -0.3
    out = select_reliable(np.array([-0.2, 0.05, 0.2]), coeff=1.5)
    assert out[0] == [2]


def test_guidance_hand_case_pulls_guided_view_only():
    # view 0 is guided by view 1; its clusters map to common clusters through
    # the anti-diagonal matching, so view labels [1, 0] target commons [0, 1]
    z0 = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]), requires_grad=True)
    z1 = Tensor(np.array([[5.0, 5.0], [6.0, 5.0]]), requires_grad=True)
    centroids = np.array([[0.0, 0.0], [3.0, 0.0]])
    anti = np.fliplr(np.eye(2, dtype=np.int64))
    loss = cross_view_guidance_loss(
        [z0, z1], centroids, [anti, np.eye(2, dtype=np.int64)],
        [np.array([1, 0]), np.array([0, 1])], reliable=[[1], []],
    )
    # sample 0: q = (1, 0.1)/1.1, target 0; sample 1: q = (0.5, 0.2)/0.7, target 1
    expected = (math.log(1.1) + math.log(3.5)) / 2 * (1 / 4)
    assert loss.item() == pytest.approx(expected, rel=1e-12)
    loss.backward()
    assert z0.grad is not None and np.any(z0.grad != 0)
    assert z1.grad is None


def test_guidance_zero_without_reliable_peers():
    z = Tensor(np.ones((3, 2)))
    labels = np.array([0, 1, 0])
    loss = cross_view_guidance_loss(
        [z, z], np.eye(2), [np.eye(2, dtype=np.int64)] * 2, [labels, labels], reliable=[[], []]
    )
    assert loss.item() == 0.0


# ---------------------------------------------------------------------------
# total


def test_total_loss_weighted_sum():
    w = LossWeights(lambda1=1.0, lambda2=2.0, lambda3=3.0, lambda4=4.0)
    one = Tensor(1.0)
    assert total_loss(one, one, one, one, w).item() == pytest.approx(10.0)
    w0 = LossWeights(lambda2=0.0, lambda3=0.0, lambda4=0.0)
    assert total_loss(Tensor(5.0), one, one, one, w0).item() == pytest.approx(5.0)


def test_total_loss_gradient_is_weighted_sum():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def parts():
        return (x * x).sum(), (x * 2.0).sum(), (x * -1.0).sum(), (x * 0.5).sum()

    w = LossWeights(lambda2=2.0, lambda3=3.0, lambda4=4.0)
    total_loss(*parts(), w).backward()
    expected = 2 * x.data + 2 * 2.0 + 3 * -1.0 + 4 * 0.5
    assert np.allclose(x.grad, expected, atol=1e-12)
