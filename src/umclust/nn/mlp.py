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
backward rule: `Linear` keeps only its input and parameters, a
train-mode `BatchNorm` (which includes its ReLU) keeps the centered
input, the normalized input, the per-feature denominator and the ReLU
mask, and the ReLU of a layer without batch norm (`relu`) keeps its
mask. Eval-mode `BatchNorm` records no graph: it applies the frozen
statistics and the ReLU in place on one array, so a full-data encode
holds one layer-sized temporary per layer.

`Mlp` refuses a non-finite linear output with `NumericalError` naming
the layer. It checks before the activation, because ReLU (and the ReLU
that ends a batch-norm node) maps NaN and -inf to 0 and would hide them.

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

    def __call__(self, x: Tensor) -> Tensor:
        """x @ weight + bias as one node."""
        out = x.data @ self.weight.data
        out += self.bias.data

        def backward(grad, x=x, w=self.weight, b=self.bias):
            if b.requires_grad:
                b._accumulate(grad.sum(axis=0))
            if w.requires_grad:
                w._accumulate(x.data.T @ grad)
            if x.requires_grad:
                x._accumulate(grad @ w.data.T)

        return Tensor._result(out, (x, self.weight, self.bias), backward)


class BatchNorm:
    """Feature-wise batch normalization with running statistics, followed
    by ReLU: a call returns relu(normalized * gamma + beta).

    Train mode normalizes by the biased batch variance (so a batch of
    one row hits the epsilon floor instead of dividing by zero) and
    updates the running mean/variance in place with momentum. Eval mode
    applies the frozen running statistics, making the layer an affine
    map before its ReLU, and records no graph.
    """

    eps = 1e-5
    momentum = 0.9

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim, DTYPE), requires_grad=True)
        self.beta = Tensor(np.zeros(dim, DTYPE), requires_grad=True)
        self.running_mean = np.zeros(dim, DTYPE)
        self.running_var = np.ones(dim, DTYPE)

    def __call__(self, x: Tensor, train: bool, update_stats: bool = True) -> Tensor:
        if not train:
            y = x.data - self.running_mean
            y *= 1.0 / np.sqrt(self.running_var + self.eps)
            y *= self.gamma.data
            y += self.beta.data
            np.copyto(y, 0.0, where=y <= 0)
            return Tensor(y)
        n = x.data.shape[0]
        mu = x.data.sum(axis=0) * (1.0 / n)
        centered = x.data - mu
        var = (centered * centered).sum(axis=0) * (1.0 / n)
        if update_stats:
            for stat, batch in ((self.running_mean, mu), (self.running_var, var)):
                stat *= self.momentum
                stat += (1 - self.momentum) * batch
        denom = np.sqrt(var + self.eps)
        xhat = centered / denom
        y = xhat * self.gamma.data
        y += self.beta.data
        mask = y > 0

        def backward(grad, x=x, gamma=self.gamma, beta=self.beta):
            g = grad * mask
            if beta.requires_grad:
                beta._accumulate(g.sum(axis=0))
            if gamma.requires_grad:
                gamma._accumulate((g * xhat).sum(axis=0))
            if not x.requires_grad:
                return
            g *= gamma.data  # d/d xhat
            t = -g
            t *= centered
            t /= denom * denom
            d_sq = t.sum(axis=0) * 0.5 / denom * (1.0 / n)  # to each squared deviation, through denom
            g /= denom
            np.multiply(d_sq * 2.0, centered, out=t)
            g += t  # d/d centered: the direct path plus the variance path
            g += -g.sum(axis=0) * (1.0 / n)  # through mu
            x._accumulate(g)

        return Tensor._result(np.where(mask, y, 0.0), (x, self.gamma, self.beta), backward)


def relu(x: Tensor) -> Tensor:
    """max(x, 0) as one node; the gradient passes where x > 0."""
    mask = x.data > 0

    def backward(grad, x=x, mask=mask):
        x._accumulate(grad * mask)

    return Tensor._result(np.where(mask, x.data, 0.0), (x,), backward)


class Mlp:
    """Linear layers through `dims`; the last one is purely linear."""

    def __init__(self, dims: tuple[int, ...], batchnorm: bool, rng: np.random.Generator | None):
        self.linears = [Linear(a, b, rng) for a, b in zip(dims, dims[1:])]
        self.norms = [BatchNorm(d) if batchnorm else None for d in dims[1:-1]] + [None]

    def __call__(self, x: Tensor, train: bool, update_stats: bool = True) -> Tensor:
        last = len(self.linears) - 1
        for i, (lin, norm) in enumerate(zip(self.linears, self.norms)):
            x = lin(x)
            if not np.isfinite(x.data).all():
                raise NumericalError(f"non-finite linear output in layer {i}")
            if i < last:
                x = norm(x, train, update_stats) if norm is not None else relu(x)
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
