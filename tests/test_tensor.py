"""Autodiff engine checks: the graph walk, `closed_form`, the row
normalization under the contrastive terms, gradient ownership and the
freeing of interior state, on the nodes the package has."""

import numpy as np
import pytest

from umclust.errors import ShapeError
from umclust.losses import _from_unit_rows, _unit_rows
from umclust.nn.mlp import BatchNorm, Linear, hidden_layer
from umclust.nn.tensor import Tensor, closed_form, no_graph


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
        leaf.grad = None
    loss = build_loss()
    loss.backward()
    for leaf in leaves:
        numeric = numeric_grad(build_loss, leaf)
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        assert np.allclose(analytic, numeric, atol=tol, rtol=1e-4), (
            f"grad mismatch: max diff {np.abs(analytic - numeric).max()}"
        )


def weighted_sum(out: Tensor, weights: np.ndarray) -> Tensor:
    """sum(out * weights) as one node: its gradient in `out` is `weights`."""
    return closed_form(float((out.data * weights).sum()), (out, weights))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def test_diamond_graph_accumulates(float64_model, rng):
    # `a` reaches the root directly and through a hidden layer (linear
    # map and ReLU); both contributions must add up
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    lin = Linear(4, 5, rng)

    def loss():
        h = hidden_layer(a, lin, None, train=True)
        value = float((h.data * h.data).sum() + 3.0 * a.data.sum())
        return closed_form(value, (h, 2.0 * h.data), (a, np.full(a.shape, 3.0)))

    check_op(loss, a, lin.weight, lin.bias)


def test_backward_requires_scalar(rng):
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        Linear(2, 2, rng)(a).backward()


def test_closed_form_scales_its_gradient_by_upstream(rng):
    a = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    g = rng.normal(size=(3, 2))
    inner = closed_form(1.5, (a, g))
    loss = closed_form(2.5 * 1.5 + a.data.sum(), (inner, 2.5), (a, np.ones((3, 2))))
    assert loss.item() == pytest.approx(3.75 + a.data.sum())
    loss.backward()
    assert np.allclose(a.grad, 2.5 * g + 1.0)


def test_closed_form_without_grad_parent_is_a_constant(rng):
    a = Tensor(rng.normal(size=(3, 2)))
    out = closed_form(0.5, (a, np.ones((3, 2))))
    assert out.item() == 0.5
    assert not out.requires_grad and out._parents == ()
    out.backward()
    assert a.grad is None


def test_closed_form_holds_its_value_in_the_first_parents_dtype(rng):
    a = Tensor(rng.normal(size=(2,)).astype(np.float32), requires_grad=True)
    b = Tensor(rng.normal(size=(2,)), requires_grad=True)
    out = closed_form(0.1, (a, np.ones(2, np.float32)), (b, np.ones(2)))
    assert out.data.dtype == np.float32
    out.backward()
    assert a.grad.dtype == np.float32 and b.grad.dtype == np.float64


def test_no_graph_computes_the_same_values_and_records_nothing(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    lin = Linear(3, 5, rng)
    recorded = hidden_layer(a, lin, None, train=True)
    with no_graph():
        plain = hidden_layer(a, lin, None, train=True)
    assert np.array_equal(plain.data, recorded.data)
    assert recorded.requires_grad and recorded._parents
    assert not plain.requires_grad and plain._parents == () and plain._backward is None


def test_no_graph_restores_recording_on_exit_and_on_an_exception(rng):
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    lin = Linear(2, 2, rng)
    with no_graph():
        with no_graph():
            pass
        assert lin(a)._parents == ()
    assert lin(a)._parents
    with pytest.raises(RuntimeError, match="inside"):
        with no_graph():
            raise RuntimeError("inside")
    out = closed_form(0.0, (a, np.full((2, 2), 2.0)))
    out.backward()
    assert np.array_equal(a.grad, np.full((2, 2), 2.0))


def row_normalize(z: Tensor, weights: np.ndarray | None = None) -> tuple[np.ndarray, Tensor]:
    """The unit rows u of `z`, normalized as the contrastive terms do, and
    one node for sum(weights * u), or sum(u * u) without `weights`."""
    u, norm = _unit_rows(z.data)
    if weights is None:
        value, grad = (u * u).sum(), 2.0 * u
    else:
        value, grad = (u * weights).sum(), weights.astype(u.dtype)
    return u, closed_form(float(value), (z, _from_unit_rows(grad, u, norm)))


def test_row_normalize_grad(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = rng.normal(size=(4, 3))
    check_op(lambda: row_normalize(a, w)[1], a)


def test_row_normalize_zero_row_is_safe():
    z = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]]), requires_grad=True)
    out, loss = row_normalize(z)
    assert np.allclose(out, [[0.0, 0.0], [0.6, 0.8]])
    loss.backward()
    assert np.isfinite(z.grad).all()
    assert np.allclose(z.grad[0], 0.0)


def test_row_normalize_zero_row_passes_zero_gradient(rng):
    data = rng.normal(size=(4, 3))
    data[1] = 0.0
    w = rng.normal(size=(4, 3))  # non-zero upstream on the zero row too
    z = Tensor(data.copy(), requires_grad=True)
    out, loss = row_normalize(z, w)
    loss.backward()
    assert np.array_equal(out[1], np.zeros(3))
    assert np.array_equal(z.grad[1], np.zeros(3))
    # the other rows match the same rows normalized without the zero row,
    # bit for bit, and the unmasked formula
    rows = np.array([0, 2, 3])
    ref = Tensor(data[rows].copy(), requires_grad=True)
    ref_out, ref_loss = row_normalize(ref, w[rows])
    ref_loss.backward()
    assert np.array_equal(out[rows], ref_out)
    assert np.array_equal(z.grad[rows], ref.grad)
    norm = np.sqrt((data[rows] ** 2).sum(axis=1, keepdims=True))
    u = data[rows] / norm
    assert np.allclose(out[rows], u, rtol=1e-14, atol=0.0)
    expected = (w[rows] - u * (u * w[rows]).sum(axis=1, keepdims=True)) / norm
    assert np.allclose(z.grad[rows], expected, rtol=1e-12, atol=1e-15)


def test_row_normalize_zero_row_is_safe_in_float32():
    # a fixed 1e-60 floor flushes to 0 in float32, and 0 / 0 warns
    z = Tensor(np.array([[0.0, 0.0], [3.0, 4.0]], np.float32), requires_grad=True)
    out, loss = row_normalize(z)
    assert out.dtype == np.float32
    assert np.array_equal(out[0], [0.0, 0.0]) and np.allclose(out[1], [0.6, 0.8], atol=1e-7)
    loss.backward()
    assert z.grad.dtype == np.float32 and np.array_equal(z.grad[0], [0.0, 0.0])


def test_row_normalize_zero_row_passes_zero_gradient_in_float32(rng):
    data = rng.normal(size=(4, 3)).astype(np.float32)
    data[1] = 0.0
    w = rng.normal(size=(4, 3)).astype(np.float32)
    z = Tensor(data, requires_grad=True)
    row_normalize(z, w)[1].backward()
    assert z.grad.dtype == np.float32
    assert np.array_equal(z.grad[1], np.zeros(3)) and np.isfinite(z.grad).all()


def _latent_read_by_decoder_and_loss(a, b, rng):
    z = Linear(4, 5, rng)(a)
    x_hat = Linear(5, 4, rng)(z)
    return closed_form(0.0, (x_hat, rng.normal(size=x_hat.shape)), (z, rng.normal(size=z.shape)))


OWNERSHIP_CASES = {
    "latent_read_by_decoder_and_loss": _latent_read_by_decoder_and_loss,
    "closed_form_lists_a_parent_twice": lambda a, b, rng: closed_form(
        0.0, (a, rng.normal(size=a.shape)), (b, rng.normal(size=b.shape)), (a, rng.normal(size=a.shape))
    ),
    "linear": lambda a, b, rng: weighted_sum(Linear(4, 5, rng)(a), rng.normal(size=(3, 5))),
    "train_batchnorm": lambda a, b, rng: weighted_sum(
        hidden_layer(a, Linear(4, 5, rng), BatchNorm(5), train=True), rng.normal(size=(3, 5))
    ),
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
    root = OWNERSHIP_CASES[case](a, b, rng)
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
    # interior nodes of every kind: layer nodes (a train-mode batch-norm
    # hidden layer keeps batch-sized arrays, a ReLU one its output), loss
    # nodes that read a latent beside the decoder, and a total over the
    # loss nodes
    x = Tensor(rng.normal(size=(6, 4)), requires_grad=True)
    lin, norm, head, dec = Linear(4, 5, rng), BatchNorm(5), Linear(5, 3, rng), Linear(3, 4, rng)
    z = head(hidden_layer(x, lin, norm, train=True))
    x_hat = hidden_layer(z, dec, None, train=True)
    l_ae = closed_form(0.5, (x_hat, rng.normal(size=x_hat.shape)), (z, rng.normal(size=z.shape)))
    l_cr = closed_form(0.25, (z, rng.normal(size=z.shape)))
    root = closed_form(0.5 + 2.0 * 0.25, (l_ae, 1.0), (l_cr, 2.0))
    root.backward()
    tensors = _graph(root)
    interior = [t for t in tensors if t._parents]
    leaves = [t for t in tensors if t.requires_grad and not t._parents]
    assert root in interior and len(interior) == 6
    assert all(t.grad is None and t._backward is None for t in interior)
    params = (x, norm.gamma, norm.beta, *(p for layer in (lin, head, dec) for p in (layer.weight, layer.bias)))
    assert {id(t) for t in leaves} == {id(p) for p in params}
    assert all(t.grad is not None and t.grad.shape == t.shape for t in leaves)


def test_backward_reports_each_leaf_after_the_last_node_that_lists_it(float64_model, rng):
    # `second` and `unused` both read `first`'s output; the root sends a
    # gradient to `second` only. Each parameter is reported once, right
    # after its own layer's rule: `second`'s before `first`'s rule has run,
    # with the gradient a plain backward gives, and `unused`'s with none
    first, second, unused = Linear(3, 2, rng), Linear(2, 2, rng), Linear(2, 1, rng)
    x = Tensor(rng.normal(size=(4, 3)))

    def loss():
        h = first(x)
        out, side = second(h), unused(h)
        return Tensor._result(np.asarray(0.0), (out, side), lambda g, out=out: out._accumulate(np.ones(out.shape)))

    layers = {"first": first, "second": second, "unused": unused}
    params = {f"{n}.{p}": getattr(layer, p) for n, layer in layers.items() for p in ("weight", "bias")}
    loss().backward()
    expected = {name: p.grad for name, p in params.items()}
    assert expected["unused.weight"] is None and expected["first.weight"] is not None
    for p in params.values():
        p.grad = None
    names = {id(p): name for name, p in params.items()}
    reported = []
    loss().backward(lambda leaf: reported.append((names[id(leaf)], leaf.grad, first.weight.grad is None)))
    assert sorted(name for name, _, _ in reported) == sorted(params)
    for name, grad, first_pending in reported:
        assert (grad is None) if expected[name] is None else np.array_equal(grad, expected[name]), name
        assert first_pending == (not name.startswith("first")), name
