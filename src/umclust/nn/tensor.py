"""Reverse-mode automatic differentiation on dense float64 arrays.

A Tensor wraps a numpy array and records the operation that produced it.
Calling ``backward()`` on a scalar result walks the recorded graph in
reverse topological order and accumulates gradients into every tensor
created with ``requires_grad=True``. Only the operations needed by the
training objective are implemented; all of them broadcast the same way
numpy does, and gradients of broadcast operands are summed back to the
operand's shape.

A loss whose gradient is cheaper to derive by hand than to record op by
op enters the graph through ``closed_form``: one scalar node that holds
its value and its gradient with respect to one parent, both computed in
the forward pass, instead of every intermediate array.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError


def _as_array(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


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
        """A node that keeps `backward` only when some parent requires a
        gradient, so a single-parent backward may assume its parent does."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
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
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad, b.data.shape))

        return Tensor._result(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad, a=self):
            a._accumulate(-grad)

        return Tensor._result(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad * b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(grad * a.data, b.data.shape))

        return Tensor._result(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)

        def backward(grad, a=self, b=other):
            if a.requires_grad:
                a._accumulate(_unbroadcast(grad / b.data, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-grad * a.data / (b.data * b.data), b.data.shape))

        return Tensor._result(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
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

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

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
            self.grad = grad.astype(np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        `self` must be a scalar (size-1) tensor.
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
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def closed_form(parent: Tensor, value: float, grad: np.ndarray) -> Tensor:
    """Scalar node with a precomputed value and d(value)/d(parent) = `grad`.

    Backward sends `upstream * grad` to `parent`; `grad` must have the
    parent's shape.
    """

    def backward(upstream, a=parent, g=grad):
        a._accumulate(upstream * g)

    return Tensor._result(value, (parent,), backward)


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


def check_like(kind: str, given: dict[str, np.ndarray], own: dict) -> None:
    """Refuse `given` unless it has exactly `own`'s names, each with the
    shape of `own`'s array or tensor of that name."""
    if set(given) != set(own):
        raise ShapeError(f"{kind} name set mismatch")
    for name, arr in given.items():
        if arr.shape != own[name].shape:
            raise ShapeError(f"shape mismatch for {kind} {name}")


MIN_SQ_NORM = 1e-60


def row_normalize(z: Tensor) -> Tensor:
    """Rows scaled to unit Euclidean norm; all-zero rows map to zero rows.

    The squared norm is clamped before the square root so a zero row
    divides by a tiny constant instead of producing NaNs. The result is
    then masked to 0 on all-zero rows, so those rows also pass a
    gradient of exactly 0 rather than the upstream gradient divided by
    the clamped norm; every other row is multiplied by 1.0 and keeps
    its value and gradient bit for bit.
    """
    sq = z.square().sum(axis=1, keepdims=True)
    norm = sq.clip_min(MIN_SQ_NORM).sqrt()
    nonzero = (z.data != 0).any(axis=1, keepdims=True).astype(np.float64)
    return (z / norm) * nonzero
