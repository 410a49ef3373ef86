"""The output of one encoder or decoder, and its backward walk.

A training step forwards each view's encoder and decoder, computes each
loss term's value and its gradients in plain arrays (`umclust.losses`),
then walks each decoder and each encoder backward once. A recorded
forward of a network (`nn.mlp.Mlp`) returns a `Tensor`: the network's
output, `data`, plus one backward rule per layer.

``backward(grad, update)`` walks those rules from the last layer to the
first, starting from `grad`, the gradient in `data`. It hands each
parameter's gradient to ``update(param, grad)`` and returns the gradient
in the network's input, or None for an encoder, whose input is data.
The walk runs once. It drops each rule before the next one runs, and
with the rule every array that layer kept. A layer hands over its
parameters' gradients only after it has computed its input gradient,
which reads the weights, and after its kept arrays and the upstream
gradient are dropped. So `update` may move a parameter in place. Each
gradient is freed as soon as it is applied.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A network's output and its layers' backward rules, walked once.

    A rule takes the gradient in its layer's output and whether to compute
    the one in its input; it returns that input gradient (or None) and its
    (parameter, gradient) pairs. The first layer computes its input
    gradient only with `input_grad`, which a decoder sets."""

    __slots__ = ("data", "_rules", "_input_grad")

    def __init__(self, data: np.ndarray, rules: list | None = None, input_grad: bool = False):
        self.data = data
        self._rules = rules
        self._input_grad = input_grad

    def backward(self, grad: np.ndarray, update) -> np.ndarray | None:
        """Walk the layers back from `grad`, handing `update(param, grad)`
        every parameter's gradient; the gradient in the input, or None."""
        rules, self._rules = self._rules, None
        if rules is None:
            raise RuntimeError("no recorded forward to walk back: not recorded, or walked already")
        while rules:
            rule = rules.pop()
            grad, pairs = rule(grad, bool(rules) or self._input_grad)
            del rule
            while pairs:
                update(*pairs.pop())
        return grad
