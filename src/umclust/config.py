"""YAML run configuration: strict parsing, defaults, canonical hashing.

The YAML layout is the dataclass layout. The file has up to three
sections: ``dataset`` is a `DatasetSection` (its ``synthetic`` a
`data.SyntheticSpec`, its ``unpair`` a `data.UnpairRecipe`), ``train``
is a `train.TrainConfig` (its ``weights`` a `losses.LossWeights`), and
``sweep`` maps lambda names to the values of the hyperparameter grid.
Keys, types and defaults are read from those dataclasses, so this
module keeps no key list and no default; constants such as
`losses.TEMPERATURE` have no key. Unknown keys anywhere are errors,
not warnings: a silently ignored typo in a hyperparameter name would
invalidate a reproduction. ``resolved_dict`` materializes every default
so a run directory can carry the exact effective configuration.
"""

from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import yaml

from .data import SCALINGS, SyntheticSpec, UnpairRecipe, is_integer
from .errors import ConfigError, UmclustError
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

    A bool takes only a YAML boolean and a str only a string; an int
    takes an integer or a float with no fractional part; a float takes a
    number or a string, since PyYAML reads `1e-3` as one. No number
    field takes a bool.
    """
    if cast in (bool, str):
        return isinstance(value, cast)
    if cast is int:
        return is_integer(value)
    return not isinstance(value, bool) and isinstance(value, (int, float, str))


def _cast(value, cast, where: str):
    """`cast(value)` where `_castable` allows it, else a `ConfigError` naming `where`."""
    try:
        if _castable(value, cast):
            return cast(value)
    except (TypeError, ValueError):
        pass
    raise ConfigError(f"config key '{where}' has invalid value {value!r}")


@dataclass(frozen=True)
class DatasetSection:
    """Where the data comes from: a manifest to load, or a recipe to make one."""

    manifest: str | None = None
    scale: str = SCALINGS[0]
    synthetic: SyntheticSpec | None = None
    unpair: UnpairRecipe | None = None

    def __post_init__(self):
        if self.scale not in SCALINGS:
            raise ConfigError(f"scale must be one of {SCALINGS}, got '{self.scale}'")


@dataclass
class RunConfig:
    dataset: DatasetSection
    train: TrainConfig
    sweep: dict[str, list[float]] = field(default_factory=dict)

    def resolved_dict(self) -> dict:
        return _plain(asdict(self))


def _plain(obj):
    """`asdict` output with tuples turned into lists, as YAML expects."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    return list(obj) if isinstance(obj, tuple) else obj


def _parse_value(hint, value, where: str):
    """`value` parsed as type `hint`: `X | None`, a dataclass, `tuple[T, ...]` or a scalar."""
    args = get_args(hint)
    if type(None) in args:
        if value is None:
            return None
        (hint,) = (a for a in args if a is not type(None))
    if is_dataclass(hint):
        return _parse_dataclass(hint, _expect_mapping(value, where), where)
    if get_origin(hint) is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"config key '{where}' must be a list, got {value!r}")
        return tuple(_cast(v, get_args(hint)[0], f"{where}[{i}]") for i, v in enumerate(value))
    return _cast(value, hint, where)


def _parse_dataclass(cls, section: dict, path: str):
    """`section` as a `cls` instance, its layout read from the dataclass.

    Unknown keys are errors, and an absent key keeps the field's
    default or, for a field without one, is an error. Each value is
    parsed from the field's type annotation by `_parse_value`. An error
    from `__post_init__` starts with the field it refuses, so `path`
    is put in front of it.
    """
    known = fields(cls)
    _reject_unknown(section, {f.name for f in known}, path)
    hints = get_type_hints(cls)
    values = {}
    for f in known:
        where = f"{path}.{f.name}"
        if f.name in section:
            values[f.name] = _parse_value(hints[f.name], section[f.name], where)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing config key '{where}'")
    try:
        return cls(**values)
    except UmclustError as exc:
        raise ConfigError(f"{path}.{exc}") from exc


def _parse_sweep(section: dict) -> dict[str, list[float]]:
    _reject_unknown(section, {f.name for f in fields(LossWeights)}, "sweep")
    grid: dict[str, list[float]] = {}
    for key, values in section.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"config key 'sweep.{key}' must be a non-empty list")
        grid[key] = [_cast(v, float, f"sweep.{key}[{i}]") for i, v in enumerate(values)]
        for v in grid[key]:
            try:
                LossWeights(**{key: v})
            except UmclustError as exc:
                raise ConfigError(f"sweep.{exc}, got {v!r}") from exc
    return grid


def parse_config(raw: dict) -> RunConfig:
    raw = _expect_mapping(raw, "<root>")
    _reject_unknown(raw, {f.name for f in fields(RunConfig)}, "<root>")
    try:
        return RunConfig(
            dataset=_parse_dataclass(DatasetSection, _expect_mapping(raw.get("dataset"), "dataset"), "dataset"),
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
    except (OSError, ValueError, yaml.YAMLError) as exc:
        raise ConfigError(f"unreadable config {path}: {exc}") from exc
    return parse_config(raw if raw is not None else {})


def write_resolved(config: RunConfig, path: str | Path) -> None:
    with open(Path(path), "w", encoding="utf-8", newline="\n") as fh:
        yaml.safe_dump(config.resolved_dict(), fh, sort_keys=True)


def _reseeded(obj, seed: int):
    """`obj` with every dataclass field named `seed`, at any depth, set to `seed`."""
    if not is_dataclass(obj):
        return obj
    return replace(
        obj, **{f.name: seed if f.name == "seed" else _reseeded(getattr(obj, f.name), seed) for f in fields(obj)}
    )


def apply_seed_override(config: RunConfig, seed: int) -> RunConfig:
    """Re-seed every stochastic component from one CLI-provided value."""
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")
    return _reseeded(config, seed)


def with_weights(config: RunConfig, **lambda_overrides: float) -> RunConfig:
    """New config with some lambdas replaced (used by the sweep runner)."""
    return replace(config, train=replace(config.train, weights=replace(config.train.weights, **lambda_overrides)))
