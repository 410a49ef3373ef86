"""YAML run configuration: strict parsing, defaults, canonical hashing.

The file has up to three sections — ``dataset``, ``train`` and
``sweep`` — mirroring the dataset sources, the trainer parameters and
the hyperparameter grid. Unknown keys anywhere are errors, not
warnings: a silently ignored typo in a hyperparameter name would
invalidate a reproduction. ``resolved_dict`` materializes every
default so a run directory can carry the exact effective
configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import yaml

from .data import STRATEGIES, SyntheticSpec, UnpairRecipe
from .errors import ConfigError
from .losses import LossWeights
from .train import TrainConfig


def _expect_mapping(obj, path: str) -> dict:
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"config section '{path}' must be a mapping")
    return obj


def _reject_unknown(section: dict, allowed: set[str], path: str) -> None:
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown config key '{path}.{key}'")


def _castable(value, cast) -> bool:
    """Whether `cast(value)` keeps what the YAML said.

    A bool takes only a YAML boolean; an int takes an integer or a float
    with no fractional part; a float takes a number or a string, since
    PyYAML reads `1e-3` as one. No number field takes a bool.
    """
    if cast is bool:
        return isinstance(value, bool)
    if isinstance(value, bool):
        return cast not in (int, float)
    if cast is int:
        return isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if cast is float:
        return isinstance(value, (int, float, str))
    return True


def _cast(value, cast, where: str):
    """`cast(value)` where `_castable` allows it, else a `ConfigError` naming `where`."""
    try:
        if _castable(value, cast):
            return cast(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"config key '{where}' has invalid value {value!r}")


def _get(section: dict, key: str, default, path: str, cast=None):
    value = section.get(key, default)
    if value is None or cast is None:
        return value
    return _cast(value, cast, f"{path}.{key}")


def _seed(section: dict, path: str) -> int:
    """`section`'s `seed` (default 0); numpy seeds take no negative value."""
    seed = _get(section, "seed", 0, path, int)
    if seed < 0:
        raise ConfigError(f"config key '{path}.seed' must be non-negative, got {seed}")
    return seed


@dataclass
class DatasetSection:
    manifest: str | None = None
    scale: str = "minmax"
    synthetic: SyntheticSpec | None = None
    synthetic_seed: int = 0
    unpair_source: str | None = None
    unpair_recipe: UnpairRecipe | None = None


@dataclass
class RunConfig:
    dataset: DatasetSection
    train: TrainConfig
    sweep: dict[str, list[float]] = field(default_factory=dict)

    def resolved_dict(self) -> dict:
        out: dict = {
            "dataset": {
                "manifest": self.dataset.manifest,
                "scale": self.dataset.scale,
            },
            "train": _plain(asdict(self.train)),
        }
        if self.dataset.synthetic is not None:
            s = self.dataset.synthetic
            out["dataset"]["synthetic"] = {
                "clusters": s.clusters,
                "views": s.views,
                "dims": list(s.dims),
                "samples_per_cluster": s.samples_per_cluster,
                "separation": s.separation,
                "noise_std": s.noise_std,
                "seed": self.dataset.synthetic_seed,
            }
        if self.dataset.unpair_recipe is not None:
            out["dataset"]["unpair"] = {
                "source_manifest": self.dataset.unpair_source,
                "strategy": self.dataset.unpair_recipe.strategy,
                "seed": self.dataset.unpair_recipe.seed,
            }
        if self.sweep:
            out["sweep"] = {k: list(v) for k, v in self.sweep.items()}
        return out


def _plain(obj):
    """`asdict` output with tuples turned into lists, as YAML expects."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return list(obj) if isinstance(obj, tuple) else obj


def _parse_dataset(section: dict) -> DatasetSection:
    _reject_unknown(section, {"manifest", "scale", "synthetic", "unpair"}, "dataset")
    out = DatasetSection()
    out.manifest = _get(section, "manifest", None, "dataset", str)
    out.scale = _get(section, "scale", "minmax", "dataset", str)
    if out.scale not in ("minmax", "zscore", "none"):
        raise ConfigError(f"config key 'dataset.scale' must be minmax|zscore|none, got '{out.scale}'")
    if "synthetic" in section:
        path = "dataset.synthetic"
        syn = _expect_mapping(section["synthetic"], path)
        allowed = {"clusters", "views", "dims", "samples_per_cluster", "separation", "noise_std", "seed"}
        _reject_unknown(syn, allowed, path)
        for key in ("clusters", "views", "dims", "samples_per_cluster", "separation", "noise_std"):
            if key not in syn:
                raise ConfigError(f"missing config key '{path}.{key}'")
        dims = syn["dims"]
        if not isinstance(dims, (list, tuple)):
            raise ConfigError(f"config key '{path}.dims' must be a list, got {dims!r}")
        out.synthetic = SyntheticSpec(
            clusters=_cast(syn["clusters"], int, f"{path}.clusters"),
            views=_cast(syn["views"], int, f"{path}.views"),
            dims=tuple(_cast(d, int, f"{path}.dims[{i}]") for i, d in enumerate(dims)),
            samples_per_cluster=_cast(syn["samples_per_cluster"], int, f"{path}.samples_per_cluster"),
            separation=_cast(syn["separation"], float, f"{path}.separation"),
            noise_std=_cast(syn["noise_std"], float, f"{path}.noise_std"),
        )
        out.synthetic_seed = _seed(syn, path)
    if "unpair" in section:
        up = _expect_mapping(section["unpair"], "dataset.unpair")
        _reject_unknown(up, {"source_manifest", "strategy", "seed"}, "dataset.unpair")
        if "source_manifest" not in up:
            raise ConfigError("missing config key 'dataset.unpair.source_manifest'")
        strategy = _get(up, "strategy", "stratified-round-robin", "dataset.unpair", str)
        if strategy not in STRATEGIES:
            raise ConfigError(f"config key 'dataset.unpair.strategy' must be one of {STRATEGIES}")
        out.unpair_source = str(up["source_manifest"])
        out.unpair_recipe = UnpairRecipe(seed=_seed(up, "dataset.unpair"), strategy=strategy)
    return out


def _parse_dataclass(cls, section: dict, path: str):
    """`section` as a `cls` instance, its layout read from the dataclass.

    Unknown keys are errors and absent keys keep the field's default.
    A field whose default is a dataclass parses its mapping recursively;
    a scalar is cast to its default's type where `_castable` allows; a
    sequence, or a value for a field that defaults to None, goes to
    `__post_init__` as given. A `ConfigError` from `__post_init__`
    starts with the field it refuses, so `path` is put in front of it.
    """
    known = fields(cls)
    _reject_unknown(section, {f.name for f in known}, path)
    defaults = cls()
    values = {}
    for f in known:
        if f.name not in section:
            continue
        default = getattr(defaults, f.name)
        if is_dataclass(default):
            sub = f"{path}.{f.name}"
            values[f.name] = _parse_dataclass(type(default), _expect_mapping(section[f.name], sub), sub)
        elif default is None or isinstance(default, tuple):
            values[f.name] = section[f.name]
        else:
            values[f.name] = _get(section, f.name, default, path, type(default))
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _parse_sweep(section: dict) -> dict[str, list[float]]:
    _reject_unknown(section, set(LossWeights.LAMBDAS), "sweep")
    grid: dict[str, list[float]] = {}
    for key, values in section.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"config key 'sweep.{key}' must be a non-empty list")
        grid[key] = [float(v) for v in values]
    return grid


def parse_config(raw: dict) -> RunConfig:
    raw = _expect_mapping(raw, "<root>")
    _reject_unknown(raw, {"dataset", "train", "sweep"}, "<root>")
    try:
        return RunConfig(
            dataset=_parse_dataset(_expect_mapping(raw.get("dataset"), "dataset")),
            train=_parse_dataclass(TrainConfig, _expect_mapping(raw.get("train"), "train"), "train"),
            sweep=_parse_sweep(_expect_mapping(raw.get("sweep"), "sweep")),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing config file {path}")
    try:
        raw = yaml.safe_load(path.read_text(encoding="utf-8"))
    except yaml.YAMLError as exc:
        raise ConfigError(f"unparseable config {path}: {exc}") from exc
    return parse_config(raw if raw is not None else {})


def write_resolved(config: RunConfig, path: str | Path) -> None:
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(config.resolved_dict(), fh, sort_keys=True)


def apply_seed_override(config: RunConfig, seed: int) -> RunConfig:
    """Re-seed every stochastic component from one CLI-provided value."""
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    dataset = config.dataset
    new_dataset = replace(
        dataset,
        synthetic_seed=seed if dataset.synthetic is not None else dataset.synthetic_seed,
        unpair_recipe=replace(dataset.unpair_recipe, seed=seed) if dataset.unpair_recipe is not None else None,
    )
    return RunConfig(dataset=new_dataset, train=config.train.reseeded(seed), sweep=dict(config.sweep))


def with_weights(config: RunConfig, **lambda_overrides: float) -> RunConfig:
    """New config with some lambdas replaced (used by the sweep runner)."""
    return RunConfig(
        dataset=config.dataset, train=config.train.with_weights(**lambda_overrides), sweep=dict(config.sweep)
    )
