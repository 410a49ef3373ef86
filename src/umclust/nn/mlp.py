"""Per-view MLP autoencoders built on the autodiff tensor.

Encoder and decoder are mirror-image MLPs: every hidden layer is a
linear map followed by (optional) batch normalization and ReLU, the
final layer is purely linear. Weights use He-style uniform fan-in
initialization from a seeded generator, so a bundle is reproducible
from (dims, seed) alone.

`AutoencoderBundle` names the model's state once, when it is built: a
parameter map (``v{v}.enc.lin{i}.weight`` ...) and a map of batch-norm
running statistics, which the layers update in place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import NumericalError, ShapeError
from .tensor import Tensor, check_like


@dataclass(frozen=True)
class MlpSpec:
    """Shape of one MLP: input -> hidden... -> output.

    The final layer has no activation, so encoder latents are plain
    affine outputs and decoder outputs live in feature space.
    """

    input_dim: int
    hidden_dims: tuple[int, ...]
    output_dim: int
    batchnorm: bool = True

    def __post_init__(self):
        dims = (self.input_dim, *self.hidden_dims, self.output_dim)
        if any(int(d) < 1 for d in dims):
            raise ShapeError(f"all layer dims must be >= 1, got {dims}")
        object.__setattr__(self, "hidden_dims", tuple(int(d) for d in self.hidden_dims))

    def mirrored(self) -> "MlpSpec":
        """Spec of the decoder matching this encoder."""
        return MlpSpec(
            input_dim=self.output_dim,
            hidden_dims=tuple(reversed(self.hidden_dims)),
            output_dim=self.input_dim,
            batchnorm=self.batchnorm,
        )


class Linear:
    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        bound = np.sqrt(6.0 / in_dim)
        self.weight = Tensor(rng.uniform(-bound, bound, size=(in_dim, out_dim)), requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return x @ self.weight + self.bias


class BatchNorm:
    """Feature-wise batch normalization with running statistics.

    Train mode normalizes by the biased batch variance (so a batch of
    one row hits the epsilon floor instead of dividing by zero) and
    updates the running mean/variance in place with momentum. Eval mode
    applies the frozen running statistics, making the layer an affine map.
    """

    eps = 1e-5
    momentum = 0.9

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)

    def __call__(self, x: Tensor, train: bool, update_stats: bool = True) -> Tensor:
        if train:
            mu = x.mean(axis=0)
            centered = x - mu
            var = centered.square().mean(axis=0)
            if update_stats:
                for stat, batch in ((self.running_mean, mu.data), (self.running_var, var.data)):
                    stat *= self.momentum
                    stat += (1 - self.momentum) * batch
            denom = (var + self.eps).sqrt()
            return centered / denom * self.gamma + self.beta
        scale = 1.0 / np.sqrt(self.running_var + self.eps)
        return (x - self.running_mean) * Tensor(scale) * self.gamma + self.beta


class Mlp:
    def __init__(self, spec: MlpSpec, rng: np.random.Generator):
        self.linears: list[Linear] = []
        self.norms: list[BatchNorm | None] = []
        dims = (spec.input_dim, *spec.hidden_dims, spec.output_dim)
        for i in range(len(dims) - 1):
            self.linears.append(Linear(dims[i], dims[i + 1], rng))
            hidden = i < len(dims) - 2
            self.norms.append(BatchNorm(dims[i + 1]) if (hidden and spec.batchnorm) else None)

    def __call__(self, x: Tensor, train: bool, update_stats: bool = True) -> Tensor:
        h = x
        last = len(self.linears) - 1
        for i, (lin, norm) in enumerate(zip(self.linears, self.norms)):
            h = lin(h)
            if i < last:
                if norm is not None:
                    h = norm(h, train, update_stats)
                h = h.relu()
            if not np.isfinite(h.data).all():
                raise NumericalError(f"non-finite activation after layer {i}")
        return h


class Autoencoder:
    def __init__(self, encoder_spec: MlpSpec, rng: np.random.Generator):
        self.encoder = Mlp(encoder_spec, rng)
        self.decoder = Mlp(encoder_spec.mirrored(), rng)


class AutoencoderBundle:
    """One autoencoder per view.

    Every forward call names its mode: `train=True` normalizes by batch
    statistics, `train=False` applies the running ones.
    """

    def __init__(self, specs: list[MlpSpec], seed: int):
        self.specs = list(specs)
        self.views: list[Autoencoder] = []
        self._params: dict[str, Tensor] = {}
        self._stats: dict[str, np.ndarray] = {}
        for v, spec in enumerate(self.specs):
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), v]))
            ae = Autoencoder(spec, rng)
            self.views.append(ae)
            for prefix, mlp in ((f"v{v}.enc", ae.encoder), (f"v{v}.dec", ae.decoder)):
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
        x = x if isinstance(x, Tensor) else Tensor(x)
        spec = self.specs[view]
        if x.data.ndim != 2 or x.data.shape[1] != spec.input_dim:
            raise ShapeError(
                f"view {view} expects input dim {spec.input_dim}, got shape {x.data.shape}"
            )
        return self.views[view].encoder(x, train, update_stats)

    def decode(self, view: int, z, train: bool) -> Tensor:
        z = z if isinstance(z, Tensor) else Tensor(z)
        spec = self.specs[view]
        if z.data.ndim != 2 or z.data.shape[1] != spec.output_dim:
            raise ShapeError(
                f"view {view} expects latent dim {spec.output_dim}, got shape {z.data.shape}"
            )
        return self.views[view].decoder(z, train)

    def encode_all(self, mats: list[np.ndarray], train: bool, update_stats: bool = True) -> list[np.ndarray]:
        """Plain-array latents for every view (used outside loss graphs)."""
        return [self.encode(v, m, train=train, update_stats=update_stats).data for v, m in enumerate(mats)]

    # -- parameter access ------------------------------------------------------

    def named_parameters(self) -> dict[str, Tensor]:
        """Every trainable tensor by name; the same dict on every call."""
        return self._params

    def named_stats(self) -> dict[str, np.ndarray]:
        """Every live batch-norm running statistic by name; the same dict on every call."""
        return self._stats

    def gradients(self) -> dict[str, np.ndarray]:
        """Gradient per parameter; parameters off the loss path get zeros."""
        return {name: np.zeros_like(p.data) if p.grad is None else p.grad for name, p in self._params.items()}

    def zero_grad(self) -> None:
        for p in self._params.values():
            p.zero_grad()

    def load_arrays(self, params: dict[str, np.ndarray], stats: dict[str, np.ndarray]) -> None:
        """Copy saved arrays into the model; refused before any write
        unless both name sets and every shape match."""
        check_like("parameter", params, self._params)
        check_like("statistic", stats, self._stats)
        for name, arr in params.items():
            self._params[name].data = arr.astype(np.float64, copy=True)
        for name, arr in stats.items():
            self._stats[name][...] = arr


def build_bundle(
    input_dims: list[int],
    latent_dim: int,
    hidden_dims: tuple[int, ...],
    batchnorm: bool,
    seed: int,
) -> AutoencoderBundle:
    specs = [
        MlpSpec(
            input_dim=int(d),
            hidden_dims=tuple(hidden_dims),
            output_dim=int(latent_dim),
            batchnorm=batchnorm,
        )
        for d in input_dims
    ]
    return AutoencoderBundle(specs, seed)
