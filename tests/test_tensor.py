"""Autodiff engine checks: every op against central finite differences."""

import numpy as np
import pytest

from umclust.errors import ShapeError
from umclust.nn.mlp import BatchNorm, Linear
from umclust.nn.tensor import Tensor, closed_form, concat_rows, no_graph, row_normalize


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


def test_sum_axis(rng):
    a = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    check_op(lambda: (a.sum(axis=0) * a.sum(axis=1).sum()).sum(), a)


def test_log_sqrt(rng):
    a = Tensor(rng.uniform(0.5, 2.0, size=(3, 3)), requires_grad=True)
    check_op(lambda: (a.log() + a.sqrt()).sum(), a)


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


def test_row_normalize_zero_row_passes_zero_gradient(rng):
    data = rng.normal(size=(4, 3))
    data[1] = 0.0
    w = rng.normal(size=(4, 3))  # non-zero upstream on the zero row too
    z = Tensor(data.copy(), requires_grad=True)
    out = row_normalize(z)
    (out * Tensor(w)).sum().backward()
    assert np.array_equal(out.data[1], np.zeros(3))
    assert np.array_equal(z.grad[1], np.zeros(3))
    # the other rows match the unmasked formula bit for bit
    rows = np.array([0, 2, 3])
    ref = Tensor(data[rows].copy(), requires_grad=True)
    ref_out = ref / ref.square().sum(axis=1, keepdims=True).clip_min(1e-60).sqrt()
    (ref_out * Tensor(w[rows])).sum().backward()
    assert np.array_equal(out.data[rows], ref_out.data)
    assert np.array_equal(z.grad[rows], ref.grad)


def test_row_normalize_zero_row_is_safe_in_float32():
    # a fixed 1e-60 floor flushes to 0 in float32, and 0 / 0 warns
    z = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]], np.float32), requires_grad=True)
    out = row_normalize(z)
    assert out.data.dtype == np.float32
    assert np.array_equal(out.data[0], [0.0, 0.0]) and np.allclose(out.data[1], [0.6, 0.8], atol=1e-7)
    out.square().sum().backward()
    assert z.grad.dtype == np.float32 and np.array_equal(z.grad[0], [0.0, 0.0])


def test_row_normalize_zero_row_passes_zero_gradient_in_float32(rng):
    data = rng.normal(size=(4, 3)).astype(np.float32)
    data[1] = 0.0
    w = rng.normal(size=(4, 3)).astype(np.float32)
    z = Tensor(data, requires_grad=True)
    (row_normalize(z) * Tensor(w)).sum().backward()
    assert z.grad.dtype == np.float32
    assert np.array_equal(z.grad[1], np.zeros(3)) and np.isfinite(z.grad).all()


def test_diamond_graph_accumulates(rng):
    a = Tensor(rng.normal(size=(3,)), requires_grad=True)
    check_op(lambda: (a * a + a * 3.0).sum(), a)


def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        (a * 2.0).backward()


def test_softmax_composite(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    target = rng.uniform(0.5, 1.0, size=(3, 4))

    def loss():
        q = 1.0 / (a.square() + 1.0)  # the heavy-tailed kernel of student_assignments
        p = q / q.sum(axis=1, keepdims=True)
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


def test_no_graph_computes_the_same_values_and_records_nothing(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    recorded = (a @ a.T).relu().sum(axis=1)
    with no_graph():
        plain = (a @ a.T).relu().sum(axis=1)
    assert np.array_equal(plain.data, recorded.data)
    assert recorded.requires_grad and recorded._parents
    assert not plain.requires_grad and plain._parents == () and plain._backward is None


def test_no_graph_restores_recording_on_exit_and_on_an_exception(rng):
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with no_graph():
        with no_graph():
            pass
        assert (a * 2.0)._parents == ()
    assert (a * 2.0)._parents
    with pytest.raises(RuntimeError, match="inside"):
        with no_graph():
            raise RuntimeError("inside")
    out = (a * 2.0).sum()
    out.backward()
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))


OWNERSHIP_CASES = {
    "a_plus_a": lambda a, b: a + a,
    "a_plus_b": lambda a, b: a + b,
    "transpose": lambda a, b: a.T,
    "concat_rows": lambda a, b: concat_rows([a, b]),
    "linear": lambda a, b: Linear(4, 5, np.random.default_rng(0))(a),
}


def _graph(root: Tensor) -> list[Tensor]:
    found, stack = {}, [root]
    while stack:
        t = stack.pop()
        if id(t) not in found:
            found[id(t)] = t
            stack.extend(t._parents)
    return list(found.values())


@pytest.mark.parametrize("case", OWNERSHIP_CASES)
def test_every_leaf_owns_its_gradient(rng, case):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = OWNERSHIP_CASES[case](a, b)
    root = (out * Tensor(rng.normal(size=out.shape))).sum()
    root.backward()
    tensors = _graph(root)
    leaves = [t for t in tensors if t.requires_grad and not t._parents]
    assert leaves and all(t.grad is not None for t in leaves)
    for leaf in leaves:
        for other in tensors:
            assert not np.shares_memory(leaf.grad, other.data)
            if other is not leaf and other.grad is not None:
                assert leaf.grad is not other.grad and not np.shares_memory(leaf.grad, other.grad)
    for leaf in leaves:
        before = {id(t): (t.data.copy(), None if t.grad is None else np.copy(t.grad)) for t in tensors}
        leaf.grad += 1.0
        for t in tensors:
            data, grad = before[id(t)]
            assert np.array_equal(t.data, data)
            if t is not leaf and grad is not None:
                assert np.array_equal(t.grad, grad)


def test_backward_frees_interior_state_and_keeps_leaf_gradients(rng):
    # interior nodes of every kind: a layer node, a train-mode batch-norm
    # node (whose rule keeps batch-sized arrays), a closed-form loss, row
    # stacking and op-by-op arithmetic
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    lin = Linear(4, 5, np.random.default_rng(1))
    norm = BatchNorm(5)
    h = norm(lin(x), train=True)
    z = row_normalize(concat_rows([h, h * 2.0]))
    root = (z * Tensor(rng.normal(size=z.shape))).sum() + closed_form(h, 0.5, rng.normal(size=h.shape))
    root.backward()
    tensors = _graph(root)
    interior = [t for t in tensors if t._parents]
    leaves = [t for t in tensors if t.requires_grad and not t._parents]
    assert root in interior and len(interior) > 10
    assert all(t.grad is None and t._backward is None for t in interior)
    assert {id(t) for t in leaves} == {id(p) for p in (x, lin.weight, lin.bias, norm.gamma, norm.beta)}
    assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)
