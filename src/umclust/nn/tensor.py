"""Reverse-mode automatic differentiation on dense floating-point arrays.

A Tensor wraps a numpy array and records the operation that produced it.
Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``. Only the operations needed by the
training objective are implemented; all of them broadcast the same way
numpy does, and gradients of broadcast operands are summed back to the
operand's shape.

A tensor keeps the floating dtype of the array it is given (anything
else becomes float64), and results follow numpy's promotion between
tensors. An operand that is not a tensor (a Python number, a constant
array) is a constant in the other operand's dtype, so a float32 graph
stays float32 however its constants are written.

Backward consumes the graph's interior state: once a node's rule has
run, the node drops its gradient and its rule, and with the rule every
array the rule kept (a batch-norm node's normalized input, a
``closed_form`` gradient), so a step holds each of them only until
backward has passed its node. Leaves keep their gradients and every
node keeps its parents, so the graph can still be walked; it cannot be
differentiated a second time.

A loss whose gradient is cheaper to derive by hand than to record op by
op enters the graph through ``closed_form``: one scalar node that holds
its value and its gradient with respect to one parent, both computed in
the forward pass, instead of every intermediate array.

Inside ``with no_graph():`` operations compute the same arrays but
record nothing, so a forward pass nobody differentiates (a full-data
encode) frees each intermediate as soon as the next layer has used it.

Gradient ownership: a tensor's ``.grad`` is its own array in its own
data's dtype, never shared with another tensor's gradient or data, so
``+=`` into it touches nothing else. The first contribution a tensor
receives becomes its ``.grad`` as is when it is an array of the
tensor's dtype that owns its memory (what a backward rule computes
fresh); a view is copied, and a contribution of another dtype is cast
once, so a float32 leaf of a float64 graph still holds a float32
gradient. A rule that passes on the upstream gradient itself, as ``+``
does, copies it first.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import ShapeError


def _as_array(x) -> np.ndarray:
    a = np.asarray(x)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


def _constant(x, like: "Tensor") -> "Tensor":
    """`x` itself if it is a tensor, else a constant tensor in `like`'s dtype."""
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Collapse leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_recording = True


@contextlib.contextmanager
def no_graph():
    """Results made inside the block keep no parents and no backward rule;
    the previous setting returns on exit, also on an exception."""
    global _recording
    saved = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = saved


class Tensor:
    """Node in the autodiff graph: an array plus an optional backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def _result(data, parents: tuple["Tensor", ...], backward) -> "Tensor":
        """A node that keeps `backward` only when the graph is recorded and
        some parent requires a gradient, so a single-parent backward may
        assume its parent does."""
        out = Tensor(data)
        if _recording and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        return out

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        other = _constant(other, self)

        def backward(grad, a=self, b=other):
            for t in (a, b):
                if t.requires_grad:
                    g = _unbroadcast(grad, t.data.shape)
                    t._accumulate(g.copy(order="K") if g is grad else g)

        return Tensor._result(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad, a=self):
            a._accumulate(-grad)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = _constant(other, self)
        return self + (-other)

    def __mul__(self, other) -> "Tensor":
        other = _constant(other, self)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

        return Tensor._result(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _constant(other, self)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.data.shape))

        return Tensor._result(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _constant(other, self) / self

    def __matmul__(self, other) -> "Tensor":
        other = _constant(other, self)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeError("matmul expects 2-D operands")

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(grad @ b.data.T)
            if b.requires_grad:
                b._accumulate(a.data.T @ grad)

        return Tensor._result(self.data @ other.data, (self, other), backward)

    # -- shape ops ---------------------------------------------------------------

    @property
    def T(self) -> "Tensor":
        def backward(grad, a=self):
            a._accumulate(grad.T)

        return Tensor._result(self.data.T, (self,), backward)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad, a=self, axis=axis, keepdims=keepdims):
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            a._accumulate(np.broadcast_to(grad, a.data.shape).copy())

        return Tensor._result(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    # -- elementwise nonlinearities -----------------------------------------------

    def log(self) -> "Tensor":
        def backward(grad, a=self):
            a._accumulate(grad / a.data)

        return Tensor._result(np.log(self.data), (self,), backward)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward(grad, a=self, od=out_data):
            a._accumulate(grad * 0.5 / od)

        return Tensor._result(out_data, (self,), backward)

    def square(self) -> "Tensor":
        def backward(grad, a=self):
            a._accumulate(grad * 2.0 * a.data)

        return Tensor._result(self.data * self.data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad, a=self, mask=mask):
            a._accumulate(grad * mask)

        return Tensor._result(np.where(mask, self.data, 0.0), (self,), backward)

    def clip_min(self, floor: float) -> "Tensor":
        """Elementwise max(self, floor); gradient passes only where self > floor."""
        mask = self.data > floor

        def backward(grad, a=self, mask=mask):
            a._accumulate(grad * mask)

        return Tensor._result(np.where(mask, self.data, floor), (self,), backward)

    # -- graph execution -----------------------------------------------------------

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            owned = grad.base is None and grad.dtype == self.data.dtype
            self.grad = grad if owned else grad.astype(self.data.dtype, copy=True)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        `self` must be a scalar (size-1) tensor. Each interior node
        (one with a backward rule, `self` included) ends with `.grad`
        and its rule set to None, freed as soon as the rule has run.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen and parent.requires_grad:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None


def closed_form(parent: Tensor, value: float, grad: np.ndarray) -> Tensor:
    """Scalar node with a precomputed value and d(value)/d(parent) = `grad`.

    Backward sends `upstream * grad` to `parent`; `grad` must have the
    parent's shape. The value is held in the parent's dtype.
    """

    def backward(upstream, a=parent, g=grad):
        a._accumulate(upstream * g)

    return Tensor._result(np.asarray(value, dtype=parent.data.dtype), (parent,), backward)


def concat_rows(tensors: list[Tensor]) -> Tensor:
    """Stack 2-D tensors along axis 0, differentiable in each block."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=0)
    offsets = np.cumsum([0] + [d.shape[0] for d in datas])

    def backward(grad, parts=tuple(tensors), offs=offsets):
        for t, lo, hi in zip(parts, offs[:-1], offs[1:]):
            if t.requires_grad:
                t._accumulate(grad[lo:hi])

    return Tensor._result(out_data, tuple(tensors), backward)


def row_normalize(z: Tensor) -> Tensor:
    """Rows scaled to unit Euclidean norm; all-zero rows map to zero rows.

    The squared norm is clamped at the smallest normal number of `z`'s
    dtype before the square root, so a zero row divides by a tiny
    constant instead of producing NaNs (a fixed floor such as 1e-60
    would flush to 0 in float32). The result is then masked to 0 on
    all-zero rows, so those rows also pass a gradient of exactly 0
    rather than the upstream gradient divided by the clamped norm; every
    other row is multiplied by 1.0 and keeps its value and gradient bit
    for bit.
    """
    sq = z.square().sum(axis=1, keepdims=True)
    norm = sq.clip_min(np.finfo(z.data.dtype).tiny).sqrt()
    nonzero = (z.data != 0).any(axis=1, keepdims=True).astype(z.data.dtype)
    return (z / norm) * nonzero
