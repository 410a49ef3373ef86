"""Per-view MLP autoencoders with hand-written backward rules.

`Mlp(dims, batchnorm, rng)` runs through the widths in `dims`: every
hidden layer is a linear map followed by (optional) batch normalization
and ReLU, the final layer is purely linear. Weights use He-style uniform
fan-in initialization from a seeded generator.

Every array of the model (weights, batch-norm parameters and running
statistics) is of one dtype, `DTYPE`, float32: a layer's products take
about half their float64 time, and the parameters, Adam's moments, the
activations and the checkpoint half the memory. Weights are drawn in
float64 from the same generator stream whatever `DTYPE` is, then cast.
`encode` and `decode` cast a plain-array input to the model's dtype;
`encode_all` hands back float64 latents, because everything that
clusters or scores them runs in float64.

A forward names its mode: `train` normalizes by batch statistics, eval
mode applies the running ones. A train-mode forward is recorded unless
`record=False`. A recorded forward moves the running statistics and
returns a `Tensor` that keeps one backward rule per layer, which
`Tensor.backward` walks once (see `nn.tensor`). An unrecorded forward
(a full-data encode) keeps nothing and leaves the statistics alone, so
each layer's output is freed once the next layer has read it. Whether
a walk returns the gradient in the network's input is its caller's
choice, so an encoder and a decoder are the same `Mlp`.

A rule takes the gradient in its layer's output and whether to compute
the one in its input, and returns that input gradient (or None) and its
(parameter, gradient) pairs. The last layer is a `Linear`, whose rule
keeps only its input. A hidden layer (`hidden_layer`) is the linear map,
then batch norm and ReLU, or ReLU alone. It writes the linear output
into an array of its own and normalizes and rectifies it there, in
place. A batch-norm layer's rule keeps the centered linear output, the
per-feature denominator and the layer's output; it recomputes the
normalized input and the ReLU mask from them, bit for bit the forward's
values. Without batch norm the rule keeps only the output. Eval mode
records nothing.

A hidden layer, and `Mlp` after its last layer, refuse a non-finite
linear output with `NumericalError` naming the layer. The check comes
before the activation, because ReLU maps NaN and -inf to 0 and would
hide them.

`build_bundle` gives each view an encoder and its mirror-image decoder.
`AutoencoderBundle` names the model's state once, when it is built: a
parameter map (``v{v}.enc.lin{i}.weight`` ...) and a map of batch-norm
running statistics, which the layers update in place. Restoring a
checkpoint fills these same arrays in place (`load_checkpoint`'s
`into`); the bundle has no loader of its own.

Scoring a saved model runs only the encoders, so
``build_bundle(..., encoders_only=True)`` builds the eval model: the
encoders alone, their arrays left uninitialized for the loader to fill
(no weights are drawn). `AutoencoderBundle.model_arrays` is the one
place that decides which arrays are the encoders' half: with
`encoders_only` it gives the arrays an eval model registers, under the
same names, which is all a finished run saves and all eval reads.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import Tensor

DTYPE = np.float32  # of every model array; tests set float64 to compare with exact oracles


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None):
        """Weights drawn from `rng`; with `rng` None both arrays are left
        uninitialized, for a checkpoint to fill."""
        if rng is None:
            self.weight, self.bias = np.empty((in_dim, out_dim), DTYPE), np.empty(out_dim, DTYPE)
        else:
            bound = np.sqrt(6.0 / in_dim)
            self.weight = rng.uniform(-bound, bound, size=(in_dim, out_dim)).astype(DTYPE, copy=False)
            self.bias = np.zeros(out_dim, DTYPE)

    def product(self, x: np.ndarray) -> np.ndarray:
        """x @ weight + bias in a fresh array."""
        out = x @ self.weight
        out += self.bias
        return out

    def backward(self, x: np.ndarray, grad: np.ndarray, input_grad: bool) -> tuple[np.ndarray | None, list]:
        """The gradient in `x` (None unless `input_grad`) and the
        (parameter, gradient) pairs, given the gradient of `product(x)`."""
        pairs = [(self.bias, grad.sum(axis=0)), (self.weight, x.T @ grad)]
        return (grad @ self.weight.T if input_grad else None), pairs


class BatchNorm:
    """The parameters and running statistics of one hidden layer's
    feature-wise batch normalization; `hidden_layer` applies them.

    Train mode normalizes by the biased batch variance (so a batch of
    one row hits the epsilon floor instead of dividing by zero) and, in
    a recorded forward, updates the running mean/variance in place with
    momentum. Eval mode applies the frozen running statistics, making
    the layer an affine map before its ReLU.
    """

    eps = 1e-5
    momentum = 0.9

    def __init__(self, dim: int):
        self.gamma = np.ones(dim, DTYPE)
        self.beta = np.zeros(dim, DTYPE)
        self.running_mean = np.zeros(dim, DTYPE)
        self.running_var = np.ones(dim, DTYPE)


def hidden_layer(
    x: np.ndarray, lin: Linear, norm: BatchNorm | None, train: bool, record: bool = True, layer: int = 0
):
    """relu(batchnorm(lin(x))), or relu(lin(x)) with `norm` None, and its
    backward rule: None unless `train` and `record`, which also moves the
    running statistics. `layer` names the layer when the linear output is
    not finite."""
    h = lin.product(x)
    if not np.isfinite(h).all():
        raise NumericalError(f"non-finite linear output in layer {layer}")
    if norm is None:
        np.copyto(h, 0.0, where=h <= 0)

        def relu_backward(grad, input_grad):
            return lin.backward(x, grad * (h > 0), input_grad)

        return h, relu_backward if train and record else None
    gamma, beta = norm.gamma, norm.beta
    if not train:
        h -= norm.running_mean
        h *= 1.0 / np.sqrt(norm.running_var + norm.eps)
        h *= gamma
        h += beta
        np.copyto(h, 0.0, where=h <= 0)
        return h, None
    n = h.shape[0]
    mu = h.sum(axis=0) * (1.0 / n)
    h -= mu  # h is now the centered linear output
    var = (h * h).sum(axis=0) * (1.0 / n)
    if record:
        for stat, batch in ((norm.running_mean, mu), (norm.running_var, var)):
            stat *= norm.momentum
            stat += (1 - norm.momentum) * batch
    denom = np.sqrt(var + norm.eps)
    out = h / denom  # the normalized input, xhat, until the affine map and ReLU below
    out *= gamma
    out += beta
    np.copyto(out, 0.0, where=~(out > 0))  # NaN too, as the mask `out > 0` in backward reads it
    if not record:
        return out, None

    def backward(grad, input_grad, centered=h):
        g = grad * (out > 0)
        d_beta = g.sum(axis=0)
        xhat = centered / denom
        xhat *= g
        d_gamma = xhat.sum(axis=0)
        del xhat
        g *= gamma  # d/d xhat
        t = -g
        t *= centered
        t /= denom * denom
        d_sq = t.sum(axis=0) * 0.5 / denom * (1.0 / n)  # to each squared deviation, through denom
        g /= denom
        np.multiply(d_sq * 2.0, centered, out=t)
        g += t  # d/d centered: the direct path plus the variance path
        del t
        g += -g.sum(axis=0) * (1.0 / n)  # through mu
        grad_x, pairs = lin.backward(x, g, input_grad)
        return grad_x, [*pairs, (gamma, d_gamma), (beta, d_beta)]

    return out, backward


class Mlp:
    """Hidden layers (`hidden_layer`) through `dims`, then one purely
    linear layer."""

    def __init__(self, dims: tuple[int, ...], batchnorm: bool, rng: np.random.Generator | None):
        self.linears = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.norms = [BatchNorm(d) if batchnorm else None for d in dims[1:-1]] + [None]

    def __call__(self, x: np.ndarray, train: bool, record: bool = True) -> Tensor:
        """The output; `train` and `record` keep every layer's backward
        rule in it and move the running statistics."""
        rules = []
        last = len(self.linears) - 1
        for i, (lin, norm) in enumerate(zip(self.linears[:last], self.norms)):
            x, rule = hidden_layer(x, lin, norm, train, record, i)
            rules.append(rule)
        head = self.linears[last]
        out = head.product(x)
        if not np.isfinite(out).all():
            raise NumericalError(f"non-finite linear output in layer {last}")
        if not (train and record):
            return Tensor(out)
        return Tensor(out, [*rules, functools.partial(head.backward, x)])


class AutoencoderBundle:
    """One encoder and one mirror-image decoder per view, or the encoders
    alone (`decoders` empty).

    Every forward call names its mode: `train=True` normalizes by batch
    statistics, `train=False` applies the running ones. `dtype` is the
    `DTYPE` the bundle was built with.
    """

    def __init__(
        self,
        input_dims: list[int],
        latent_dim: int,
        encoders: list[Mlp],
        decoders: list[Mlp],
    ):
        self.input_dims = input_dims
        self.latent_dim = latent_dim
        self.encoders = encoders
        self.decoders = decoders
        self.dtype = np.dtype(DTYPE)
        self._params: dict[str, np.ndarray] = {}
        self._stats: dict[str, np.ndarray] = {}
        for v, encoder in enumerate(encoders):
            self._register(f"v{v}.enc", encoder)
            if decoders:
                self._register(f"v{v}.dec", decoders[v])

    def _register(self, prefix: str, mlp: Mlp) -> None:
        for i, lin in enumerate(mlp.linears):
            self._params[f"{prefix}.lin{i}.weight"] = lin.weight
            self._params[f"{prefix}.lin{i}.bias"] = lin.bias
        for i, norm in enumerate(mlp.norms):
            if norm is not None:
                self._params[f"{prefix}.bn{i}.gamma"] = norm.gamma
                self._params[f"{prefix}.bn{i}.beta"] = norm.beta
                self._stats[f"{prefix}.bn{i}.running_mean"] = norm.running_mean
                self._stats[f"{prefix}.bn{i}.running_var"] = norm.running_var

    # -- forward ------------------------------------------------------------

    def encode(self, view: int, x, train: bool, record: bool = True) -> Tensor:
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2 or x.shape[1] != self.input_dims[view]:
            raise ShapeError(f"view {view} expects input dim {self.input_dims[view]}, got shape {x.shape}")
        return self.encoders[view](x, train, record)

    def decode(self, view: int, z, train: bool) -> Tensor:
        z = np.asarray(z, dtype=self.dtype)
        if z.ndim != 2 or z.shape[1] != self.latent_dim:
            raise ShapeError(f"view {view} expects latent dim {self.latent_dim}, got shape {z.shape}")
        return self.decoders[view](z, train)

    def encode_all(self, mats: list[np.ndarray], train: bool) -> list[np.ndarray]:
        """Plain float64 latents for every view, for use outside a training
        step: nothing is recorded, the running statistics stay frozen, and
        each view's latents are upcast once, after its last layer."""
        return [
            self.encode(v, m, train=train, record=False).data.astype(np.float64, copy=False)
            for v, m in enumerate(mats)
        ]

    # -- parameter access ------------------------------------------------------

    def named_parameters(self) -> dict[str, np.ndarray]:
        """Every trainable array by name; the same dict on every call."""
        return self._params

    def named_stats(self) -> dict[str, np.ndarray]:
        """Every live batch-norm running statistic by name; the same dict on every call."""
        return self._stats

    def model_arrays(self, encoders_only: bool = False) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """(parameters, statistics): the live arrays by name, as a checkpoint
        saves and restores them. `encoders_only` keeps the encoders' alone,
        exactly the names an `encoders_only` bundle registers."""
        def keep(name: str) -> bool:
            return not encoders_only or name.split(".")[1] == "enc"

        return (
            {k: p for k, p in self._params.items() if keep(k)},
            {k: s for k, s in self._stats.items() if keep(k)},
        )


def build_bundle(
    input_dims: list[int],
    latent_dim: int,
    hidden_dims: tuple[int, ...],
    batchnorm: bool,
    seed: int,
    *,
    encoders_only: bool = False,
) -> AutoencoderBundle:
    """View v's encoder runs through (input_dims[v], *hidden_dims, latent_dim)
    and its decoder back through the reversed dims. Each view draws its
    weights, encoder then decoder, from its own generator seeded by (seed, v).

    `encoders_only` builds the eval model: no decoders and no weights drawn
    (every array is left for `load_checkpoint` to fill)."""
    encoders, decoders = [], []
    for v, d in enumerate(input_dims):
        dims = (d, *hidden_dims, latent_dim)
        if min(dims) < 1:
            raise ShapeError(f"all layer dims must be >= 1, got {dims}")
        if encoders_only:
            encoders.append(Mlp(dims, batchnorm, None))
            continue
        rng = np.random.default_rng(np.random.SeedSequence([seed, v]))
        encoders.append(Mlp(dims, batchnorm, rng))
        decoders.append(Mlp(dims[::-1], batchnorm, rng))
    return AutoencoderBundle(list(input_dims), latent_dim, encoders, decoders)
