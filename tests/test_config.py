"""YAML run configuration: defaults come from the dataclasses they fill."""

import pytest
import yaml

from umclust.config import apply_seed_override, parse_config, with_weights
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
    "beta1": 0.8,
    "beta2": 0.99,
    "adam_eps": 1e-7,
    "refresh_every": 3,
    "final_restarts": 4,
    "kmeans_max_iter": 21,
    "kmeans_tol": 1e-4,
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
        beta1=0.8,
        beta2=0.99,
        adam_eps=1e-7,
        weights=LossWeights(lambda1=0.5, lambda2=0.2, lambda3=0.3, lambda4=40.0, temperature=0.7),
        reliability=Reliability(start=1.25, decay=0.95, floor=0.5),
        seeds=Seeds(init=11, shuffle=12, kmeans=13),
        refresh_every=3,
        final_restarts=4,
        kmeans_max_iter=21,
        kmeans_tol=1e-4,
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
