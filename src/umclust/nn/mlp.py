"""Per-view MLP autoencoders built on the autodiff tensor.

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

Each layer enters the autodiff graph as one node with a hand-written
backward rule. The last layer is a `Linear` node, which keeps only its
input and parameters. A hidden layer is one `hidden_layer` node: the
linear map, then batch norm and ReLU, or ReLU alone. It writes the
linear output into an array of its own and normalizes and rectifies it
there, in place. In train mode a batch-norm node keeps the centered
linear output, the per-feature denominator and its output; backward
recomputes the normalized input and the ReLU mask from them, bit for
bit the forward's values. Without batch norm the node keeps only its
output. Eval-mode batch norm records no graph, so a full-data encode
holds one layer-sized temporary per layer.

A hidden-layer node, and `Mlp` after its last layer, refuse a
non-finite linear output with `NumericalError` naming the layer. The
check comes before the activation, because ReLU maps NaN and -inf to 0
and would hide them.

`build_bundle` gives each view an encoder and its mirror-image decoder.
`AutoencoderBundle` names the model's state once, when it is built: a
parameter map (``v{v}.enc.lin{i}.weight`` ...) and a map of batch-norm
running statistics, which the layers update in place. Restoring a
checkpoint fills these same arrays in place (`load_checkpoint` with
destinations); the bundle has no loader of its own.

Scoring a saved model runs only the encoders, so
``build_bundle(..., encoders_only=True)`` builds the eval model: the
encoders alone, their arrays left uninitialized for the loader to fill
(no weights are drawn). `AutoencoderBundle.model_arrays` is the one
place that decides which arrays are the encoders' half: with
`encoders_only` it gives the arrays an eval model registers, under the
same names, which is all a finished run saves and all eval reads.
"""

from __future__ import annotations

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import Tensor, no_graph

DTYPE = np.float32  # of every model array; tests set float64 to compare with exact oracles


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator | None):
        """Weights drawn from `rng`; with `rng` None both arrays are left
        uninitialized, for a checkpoint to fill."""
        if rng is None:
            weight, bias = np.empty((in_dim, out_dim), DTYPE), np.empty(out_dim, DTYPE)
        else:
            bound = np.sqrt(6.0 / in_dim)
            weight = rng.uniform(-bound, bound, size=(in_dim, out_dim)).astype(DTYPE, copy=False)
            bias = np.zeros(out_dim, DTYPE)
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(bias, requires_grad=True)

    def product(self, x: np.ndarray) -> np.ndarray:
        """x @ weight + bias in a fresh array."""
        out = x @ self.weight.data
        out += self.bias.data
        return out

    def backward(self, grad: np.ndarray, x: Tensor) -> None:
        """Send the gradient of `product(x.data)`, `grad`, to the weight,
        the bias and `x`, each where it requires one."""
        if self.bias.requires_grad:
            self.bias._accumulate(grad.sum(axis=0))
        if self.weight.requires_grad:
            self.weight._accumulate(x.data.T @ grad)
        if x.requires_grad:
            x._accumulate(grad @ self.weight.data.T)

    def __call__(self, x: Tensor) -> Tensor:
        """x @ weight + bias as one node."""

        def backward(grad, x=x):
            self.backward(grad, x)

        return Tensor._result(self.product(x.data), (x, self.weight, self.bias), backward)


class BatchNorm:
    """The parameters and running statistics of one hidden layer's
    feature-wise batch normalization; `hidden_layer` applies them.

    Train mode normalizes by the biased batch variance (so a batch of
    one row hits the epsilon floor instead of dividing by zero) and
    updates the running mean/variance in place with momentum. Eval mode
    applies the frozen running statistics, making the layer an affine
    map before its ReLU.
    """

    eps = 1e-5
    momentum = 0.9

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, DTYPE), requires_grad=True)
        self.running_mean = np.zeros(dim, DTYPE)
        self.running_var = np.ones(dim, DTYPE)


def hidden_layer(
    x: Tensor, lin: Linear, norm: BatchNorm | None, train: bool, update_stats: bool = True, layer: int = 0
) -> Tensor:
    """relu(batchnorm(lin(x))), or relu(lin(x)) with `norm` None, as one
    node; `layer` names the layer when the linear output is not finite."""
    h = lin.product(x.data)
    if not np.isfinite(h).all():
        raise NumericalError(f"non-finite linear output in layer {layer}")
    if norm is None:
        np.copyto(h, 0.0, where=h <= 0)

        def relu_backward(grad, x=x, out=h):
            lin.backward(grad * (out > 0), x)

        return Tensor._result(h, (x, lin.weight, lin.bias), relu_backward)
    gamma, beta = norm.gamma, norm.beta
    if not train:
        h -= norm.running_mean
        h *= 1.0 / np.sqrt(norm.running_var + norm.eps)
        h *= gamma.data
        h += beta.data
        np.copyto(h, 0.0, where=h <= 0)
        return Tensor(h)
    n = h.shape[0]
    mu = h.sum(axis=0) * (1.0 / n)
    h -= mu  # h is now the centered linear output
    var = (h * h).sum(axis=0) * (1.0 / n)
    if update_stats:
        for stat, batch in ((norm.running_mean, mu), (norm.running_var, var)):
            stat *= norm.momentum
            stat += (1 - norm.momentum) * batch
    denom = np.sqrt(var + norm.eps)
    out = h / denom  # the normalized input, xhat, until the affine map and ReLU below
    out *= gamma.data
    out += beta.data
    np.copyto(out, 0.0, where=~(out > 0))  # NaN too, as the mask `out > 0` in backward reads it

    def backward(grad, x=x, centered=h, out=out):
        g = grad * (out > 0)
        if beta.requires_grad:
            beta._accumulate(g.sum(axis=0))
        if gamma.requires_grad:
            xhat = centered / denom
            xhat *= g
            gamma._accumulate(xhat.sum(axis=0))
            del xhat
        g *= gamma.data  # d/d xhat
        t = -g
        t *= centered
        t /= denom * denom
        d_sq = t.sum(axis=0) * 0.5 / denom * (1.0 / n)  # to each squared deviation, through denom
        g /= denom
        np.multiply(d_sq * 2.0, centered, out=t)
        g += t  # d/d centered: the direct path plus the variance path
        del t
        g += -g.sum(axis=0) * (1.0 / n)  # through mu
        lin.backward(g, x)

    return Tensor._result(out, (x, lin.weight, lin.bias, gamma, beta), backward)


class Mlp:
    """Hidden layers (`hidden_layer`) through `dims`, then one purely
    linear layer."""

    def __init__(self, dims: tuple[int, ...], batchnorm: bool, rng: np.random.Generator | None):
        self.linears = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.norms = [BatchNorm(d) if batchnorm else None for d in dims[1:-1]] + [None]

    def __call__(self, x: Tensor, train: bool, update_stats: bool = True) -> Tensor:
        last = len(self.linears) - 1
        for i, (lin, norm) in enumerate(zip(self.linears[:last], self.norms)):
            x = hidden_layer(x, lin, norm, train, update_stats, i)
        x = self.linears[last](x)
        if not np.isfinite(x.data).all():
            raise NumericalError(f"non-finite linear output in layer {last}")
        return x


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
        self._params: dict[str, Tensor] = {}
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

    def encode(self, view: int, x, train: bool, update_stats: bool = True) -> Tensor:
        x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=self.dtype))
        if x.data.ndim != 2 or x.data.shape[1] != self.input_dims[view]:
            raise ShapeError(
                f"view {view} expects input dim {self.input_dims[view]}, got shape {x.data.shape}"
            )
        return self.encoders[view](x, train, update_stats)

    def decode(self, view: int, z, train: bool) -> Tensor:
        z = z if isinstance(z, Tensor) else Tensor(np.asarray(z, dtype=self.dtype))
        if z.data.ndim != 2 or z.data.shape[1] != self.latent_dim:
            raise ShapeError(
                f"view {view} expects latent dim {self.latent_dim}, got shape {z.data.shape}"
            )
        return self.decoders[view](z, train)

    def encode_all(self, mats: list[np.ndarray], train: bool) -> list[np.ndarray]:
        """Plain float64 latents for every view, for use outside loss graphs:
        no graph is recorded, the running statistics stay frozen, and each
        view's latents are upcast once, after its last layer."""
        with no_graph():
            return [
                self.encode(v, m, train=train, update_stats=False).data.astype(np.float64, copy=False)
                for v, m in enumerate(mats)
            ]

    # -- parameter access ------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor by name; the same dict on every call."""
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
            {k: p.data for k, p in self._params.items() if keep(k)},
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
