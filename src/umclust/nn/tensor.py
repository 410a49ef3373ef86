"""Reverse-mode automatic differentiation over a list of hand-derived nodes.

A Tensor wraps a numpy array and, when it is the result of a node,
that node's parents and backward rule. Calling ``backward()`` on a
scalar result walks the recorded graph in reverse topological order
and accumulates gradients into every tensor created with
``requires_grad=True``. There are no generic operators: every node
computes its value in numpy and states its own backward rule. The
model's layers are nodes of `nn.mlp`, and each loss term, and the
weighted total of the terms, is one ``closed_form`` node: a scalar
that holds its value and its gradient in each of its parents, all
computed in the forward pass.

A tensor keeps the floating dtype of the array it is given (anything
else becomes float64). A ``closed_form`` value is held in its first
parent's dtype.

Backward consumes the graph's interior state: once a node's rule has
run, the node drops its gradient and its rule, and with the rule every
array the rule kept (a batch-norm hidden layer's centered linear
output, a ``closed_form`` gradient), so a step holds each of them only
until backward has passed its node. Every node keeps its parents, so the
graph can still be walked; it cannot be differentiated a second time.

A leaf's gradient is final once the walk has passed the last node that
lists the leaf as a parent; ``backward(on_leaf_done)`` calls
``on_leaf_done(leaf)`` there, with ``.grad`` None when no such node
contributed. `nn.adam` updates each parameter and drops its gradient in
that call, so the whole model's gradients are never alive at once.
Without a callback, leaves keep their gradients.

Inside ``with no_graph():`` nodes compute the same arrays but record
nothing, so a forward pass nobody differentiates (a full-data encode)
frees each intermediate as soon as the next layer has used it.

Gradient ownership: a tensor's ``.grad`` is its own array in its own
data's dtype, never shared with another tensor's gradient or data, so
``+=`` into it touches nothing else. The first contribution a tensor
receives becomes its ``.grad`` as is when it is an array of the
tensor's dtype that owns its memory (what a backward rule computes
fresh); a view is copied, and a contribution of another dtype is cast
once, so a float32 leaf of a float64 graph still holds a float32
gradient.
"""

from __future__ import annotations

import contextlib

import numpy as np

from ..errors import ShapeError


def _as_array(x) -> np.ndarray:
    a = np.asarray(x)
    return a if a.dtype.kind == "f" else a.astype(np.float64)


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

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            owned = isinstance(grad, np.ndarray) and grad.base is None and grad.dtype == self.data.dtype
            self.grad = grad if owned else np.array(grad, dtype=self.data.dtype)
        else:
            self.grad += grad

    def backward(self, on_leaf_done=None) -> None:
        """Accumulate d(self)/d(leaf) into every requires_grad leaf.

        `self` must be a scalar (size-1) tensor. Each interior node
        (one with a backward rule, `self` included) ends with `.grad`
        and its rule set to None, freed as soon as the rule has run.
        `on_leaf_done(leaf)`, when given, is called for every
        requires_grad leaf right after the rule of the last node that
        lists it as a parent; the leaf's `.grad` is then final, or None.
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
        walk = order[::-1]
        done_after: dict[int, list[Tensor]] = {}
        if on_leaf_done is not None:
            last = {id(parent): i for i, node in enumerate(walk) for parent in node._parents}
            for i, node in enumerate(walk):
                if node._backward is None and node.requires_grad:
                    done_after.setdefault(last.get(id(node), i), []).append(node)
        self.grad = np.ones_like(self.data)
        for i, node in enumerate(walk):
            if node._backward is not None:
                if node.grad is not None:
                    node._backward(node.grad)
                node.grad = node._backward = None
            for leaf in done_after.get(i, ()):
                on_leaf_done(leaf)


def closed_form(value: float, *pairs: tuple[Tensor, np.ndarray | float]) -> Tensor:
    """Scalar node with a precomputed value and, for each (parent, grad)
    pair, d(value)/d(parent) = `grad`.

    Backward sends `upstream * grad` to each parent that requires a
    gradient; `grad` must have its parent's shape (a number for a scalar
    parent). A parent listed twice receives both gradients. The value is
    held in the first parent's dtype.
    """

    def backward(upstream, pairs=pairs):
        for parent, grad in pairs:
            if parent.requires_grad:
                parent._accumulate(upstream * grad)

    parents = tuple(parent for parent, _ in pairs)
    return Tensor._result(np.asarray(value, dtype=parents[0].data.dtype), parents, backward)
