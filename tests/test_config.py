"""YAML run configuration: defaults come from the dataclasses they fill."""

import re

import pytest
import yaml

from umclust.config import apply_seed_override, parse_config, with_weights
from umclust.data import SyntheticSpec
from umclust.errors import ConfigError
from umclust.losses import LossWeights
from umclust.train import Reliability, Seeds, TrainConfig


def test_empty_train_section_equals_dataclass_defaults():
    assert parse_config({"train": {}}).train == TrainConfig()
    assert parse_config({}).train == TrainConfig()


def test_overrides_keep_every_other_field():
    base = parse_config({"train": {"epochs": 8, "batchnorm": False, "weights": {"lambda2": 0.5}}})
    reseeded = apply_seed_override(base, 10).train
    assert reseeded.seeds == Seeds(init=10, shuffle=11, kmeans=12)
    assert reseeded == TrainConfig(**{**base.train.__dict__, "seeds": reseeded.seeds})
    reweighted = with_weights(base, lambda4=7.0).train
    assert reweighted.weights.lambda4 == 7.0
    assert reweighted.weights.lambda2 == 0.5
    assert reweighted.batchnorm is False
    assert reweighted.weights.temperature == base.train.weights.temperature


NON_DEFAULT_TRAIN = {
    "epochs": 9,
    "batch_size": 17,
    "latent_dim": 5,
    "hidden_dims": [12, 6],
    "batchnorm": False,
    "learning_rate": 0.02,
    "final_restarts": 4,
    "kmeans_max_iter": 21,
    "cluster_levels": [2, 5],
    "weights": {"lambda1": 0.5, "lambda2": 0.2, "lambda3": 0.3, "lambda4": 40.0, "temperature": 0.7},
    "reliability": {"start": 1.25, "decay": 0.95, "floor": 0.5},
    "seeds": {"init": 11, "shuffle": 12, "kmeans": 13},
}


def test_train_section_round_trips_through_resolved_yaml():
    parsed = parse_config({"train": NON_DEFAULT_TRAIN})
    expected = TrainConfig(
        epochs=9,
        batch_size=17,
        latent_dim=5,
        hidden_dims=(12, 6),
        batchnorm=False,
        learning_rate=0.02,
        weights=LossWeights(lambda1=0.5, lambda2=0.2, lambda3=0.3, lambda4=40.0, temperature=0.7),
        reliability=Reliability(start=1.25, decay=0.95, floor=0.5),
        seeds=Seeds(init=11, shuffle=12, kmeans=13),
        final_restarts=4,
        kmeans_max_iter=21,
        cluster_levels=(2, 5),
    )
    assert parsed.train == expected
    dumped = yaml.safe_load(yaml.safe_dump(parsed.resolved_dict(), sort_keys=True))
    assert dumped["train"] == NON_DEFAULT_TRAIN
    assert parse_config(dumped).train == expected


@pytest.mark.parametrize(
    "train, path",
    [
        ({"guidance_temperature": 0.3}, "train.guidance_temperature"),
        ({"latent_activation": "linear"}, "train.latent_activation"),
        ({"reliability": {"start": "y"}}, "train.reliability.start"),
        ({"reliability": {"slope": 1.0}}, "train.reliability.slope"),
        ({"epochs": "x"}, "train.epochs"),
        ({"refresh_every": 1}, "train.refresh_every"),
        ({"beta1": 0.9}, "train.beta1"),
        ({"beta2": 0.999}, "train.beta2"),
        ({"adam_eps": 1e-8}, "train.adam_eps"),
        ({"kmeans_tol": 1e-6}, "train.kmeans_tol"),
    ],
)
def test_bad_train_keys_name_their_path(train, path):
    with pytest.raises(ConfigError, match=f"'{path}'"):
        parse_config({"train": train})


@pytest.mark.parametrize(
    "train, field, expected",
    [
        ({"batchnorm": False}, "batchnorm", False),
        ({"epochs": 8.0}, "epochs", 8),
        ({"learning_rate": "1e-3"}, "learning_rate", 1e-3),
        ({"learning_rate": 2}, "learning_rate", 2.0),
    ],
)
def test_scalars_keep_their_yaml_value(train, field, expected):
    value = getattr(parse_config({"train": train}).train, field)
    assert value == expected and type(value) is type(expected)


@pytest.mark.parametrize(
    "train, path",
    [
        ({"batchnorm": "false"}, "train.batchnorm"),
        ({"batchnorm": 0}, "train.batchnorm"),
        ({"epochs": 8.9}, "train.epochs"),
        ({"epochs": True}, "train.epochs"),
        ({"epochs": "8"}, "train.epochs"),
        ({"learning_rate": True}, "train.learning_rate"),
        ({"learning_rate": "fast"}, "train.learning_rate"),
        ({"learning_rate": [1e-3]}, "train.learning_rate"),
        ({"seeds": {"init": 1.5}}, "train.seeds.init"),
        ({"weights": {"lambda2": False}}, "train.weights.lambda2"),
    ],
)
def test_lossy_scalar_casts_are_refused(train, path):
    with pytest.raises(ConfigError, match=f"'{path}'"):
        parse_config({"train": train})


SYNTHETIC = {"clusters": 3, "views": 2, "dims": [4, 6], "samples_per_cluster": 8, "separation": 5.0, "noise_std": 0.5}


def test_synthetic_section_parses_to_the_same_spec():
    section = {**SYNTHETIC, "clusters": 3.0, "separation": 5, "noise_std": "5e-1", "seed": 4}
    parsed = parse_config({"dataset": {"synthetic": section}}).dataset
    expected = SyntheticSpec(clusters=3, views=2, dims=(4, 6), samples_per_cluster=8, separation=5.0, noise_std=0.5)
    assert parsed.synthetic == expected
    assert parsed.synthetic_seed == 4
    spec = parsed.synthetic
    assert [type(getattr(spec, f)) for f in ("clusters", "views", "samples_per_cluster")] == [int] * 3
    assert [type(d) for d in spec.dims] == [int, int]
    assert type(spec.separation) is float and type(spec.noise_std) is float


@pytest.mark.parametrize(
    "override, path",
    [
        ({"clusters": 2.7}, "dataset.synthetic.clusters"),
        ({"clusters": "3"}, "dataset.synthetic.clusters"),
        ({"views": True}, "dataset.synthetic.views"),
        ({"dims": [4.9, 6]}, "dataset.synthetic.dims[0]"),
        ({"dims": [4, "6"]}, "dataset.synthetic.dims[1]"),
        ({"dims": 4}, "dataset.synthetic.dims"),
        ({"samples_per_cluster": "8"}, "dataset.synthetic.samples_per_cluster"),
        ({"samples_per_cluster": None}, "dataset.synthetic.samples_per_cluster"),
        ({"separation": True}, "dataset.synthetic.separation"),
        ({"separation": "far"}, "dataset.synthetic.separation"),
        ({"noise_std": [0.5]}, "dataset.synthetic.noise_std"),
        ({"seed": 1.5}, "dataset.synthetic.seed"),
    ],
)
def test_lossy_synthetic_casts_are_refused(override, path):
    with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
        parse_config({"dataset": {"synthetic": {**SYNTHETIC, **override}}})


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"train": {"seeds": {"init": -1}}}, "train.seeds.init"),
        ({"train": {"seeds": {"kmeans": -5}}}, "train.seeds.kmeans"),
        ({"train": {"latent_dim": 0}}, "train.latent_dim"),
        ({"train": {"hidden_dims": [16, 0]}}, "train.hidden_dims"),
        ({"train": {"hidden_dims": [-4]}}, "train.hidden_dims"),
        ({"dataset": {"synthetic": {**SYNTHETIC, "seed": -3}}}, "dataset.synthetic.seed"),
        ({"dataset": {"unpair": {"source_manifest": "paired.json", "seed": -1}}}, "dataset.unpair.seed"),
    ],
)
def test_values_the_trainer_cannot_use_are_refused_at_parse_time(raw, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(raw)

