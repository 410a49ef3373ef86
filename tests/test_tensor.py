"""Autodiff engine checks: every op against central finite differences."""

import numpy as np
import pytest

from umclust.errors import ShapeError
from umclust.nn.tensor import Tensor, closed_form, concat_rows, row_normalize


def numeric_grad(build_loss, leaf: Tensor, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(leaf.data)
    flat = leaf.data.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = build_loss().item()
        flat[i] = orig - h
        down = build_loss().item()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def check_op(build_loss, *leaves: Tensor, tol: float = 1e-6):
    for leaf in leaves:
        leaf.zero_grad()
    loss = build_loss()
    loss.backward()
    for leaf in leaves:
        numeric = numeric_grad(build_loss, leaf)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert np.allclose(analytic, numeric, atol=tol, rtol=1e-4), (
            f"grad mismatch: max diff {np.abs(analytic - numeric).max()}"
        )


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_add_mul_broadcast(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    check_op(lambda: ((a + b) * (a * 2.0 - 1.0)).sum(), a, b)


def test_div_broadcast(rng):
    a = Tensor(rng.normal(size=(3, 4)) + 3.0, requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1)) + 3.0, requires_grad=True)
    check_op(lambda: (a / b).sum(), a, b)


def test_matmul(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    check_op(lambda: (a @ b).square().sum(), a, b)


def test_transpose_and_gram(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    check_op(lambda: ((a @ a.T) - Tensor(np.eye(3))).square().sum(), a)


def test_sum_axis_and_mean(rng):
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    check_op(lambda: (a.sum(axis=0) * a.mean(axis=1).sum()).sum(), a)


def test_exp_log_sqrt(rng):
    a = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    check_op(lambda: (a.exp().log() + a.sqrt()).sum(), a)


def test_relu_and_clip(rng):
    a = Tensor(rng.normal(size=(5, 5)) * 2, requires_grad=True)
    check_op(lambda: (a.relu() + a.clip_min(0.25)).square().sum(), a)


def test_concat_rows(rng):
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    check_op(lambda: concat_rows([a, b]).square().sum(), a, b)


def test_row_normalize_grad(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)))
    check_op(lambda: (row_normalize(a) * w).sum(), a)


def test_row_normalize_zero_row_is_safe():
    z = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
    out = row_normalize(z)
    assert np.allclose(out.data, [[0.0, 0.0], [0.6, 0.8]])
    out.square().sum().backward()
    assert np.isfinite(z.grad).all()
    assert np.allclose(z.grad[0], 0.0)


def test_diamond_graph_accumulates(rng):
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    check_op(lambda: (a * a + a * 3.0).sum(), a)


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (a * 2.0).backward()


def test_detach_blocks_gradient(rng):
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    loss = (a.detach() * a).sum()
    loss.backward()
    assert np.allclose(a.grad, a.data)  # only the non-detached factor contributes


def test_softmax_composite(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    target = rng.uniform(0.5, 1.0, size=(3, 4))

    def loss():
        e = a.exp()
        p = e / e.sum(axis=1, keepdims=True)
        return (p * Tensor(target)).sum()

    check_op(loss, a)


def test_closed_form_scales_its_gradient_by_upstream(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    g = rng.normal(size=(3, 2))
    loss = closed_form(a, 1.5, g) * 2.5 + (a * 1.0).sum()
    assert loss.item() == pytest.approx(3.75 + a.data.sum())
    loss.backward()
    assert np.allclose(a.grad, 2.5 * g + 1.0)


def test_closed_form_without_grad_parent_is_a_constant(rng):
    a = Tensor(rng.normal(size=(3, 2)))
    out = closed_form(a, 0.5, np.ones((3, 2)))
    assert out.item() == 0.5
    assert not out.requires_grad and out._parents == ()
    out.backward()
    assert a.grad is None
