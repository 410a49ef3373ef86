"""YAML run configuration: defaults come from the dataclasses they fill."""

import math
import re
from dataclasses import replace

import pytest
import yaml

from umclust.config import DatasetSection, apply_seed_override, parse_config, with_weights
from umclust.data import SyntheticSpec, UnpairRecipe
from umclust.errors import ConfigError
from umclust.losses import LossWeights
from umclust.train import TrainConfig


SYNTHETIC = {"clusters": 3, "views": 2, "dims": [4, 6], "samples_per_cluster": 8, "separation": 5.0, "noise_std": 0.5}


def test_empty_train_section_equals_dataclass_defaults():
    assert parse_config({"train": {}}).train == TrainConfig()
    assert parse_config({}).train == TrainConfig()


def test_overrides_keep_every_other_field():
    base = parse_config({
        "dataset": {"synthetic": SYNTHETIC, "unpair": {"source_manifest": "paired.json", "seed": 3}},
        "train": {"epochs": 8, "batchnorm": False, "weights": {"lambda2": 0.5}},
    })
    overridden = apply_seed_override(base, 10)
    assert overridden.dataset == replace(
        base.dataset, synthetic=replace(base.dataset.synthetic, seed=10), unpair=replace(base.dataset.unpair, seed=10)
    )
    assert overridden.train == replace(base.train, seed=10)
    reweighted = with_weights(base, lambda4=7.0).train
    assert reweighted.weights.lambda4 == 7.0
    assert reweighted.weights.lambda2 == 0.5
    assert reweighted.batchnorm is False
    assert reweighted == replace(base.train, weights=replace(base.train.weights, lambda4=7.0))


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
    "weights": {"lambda1": 0.5, "lambda2": 0.2, "lambda3": 0.3, "lambda4": 40.0},
    "seed": 11,
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
        weights=LossWeights(lambda1=0.5, lambda2=0.2, lambda3=0.3, lambda4=40.0),
        seed=11,
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
        ({"reliability": {"start": 1.5}}, "train.reliability"),
        ({"weights": {"temperature": 0.1}}, "train.weights.temperature"),
        ({"epochs": "x"}, "train.epochs"),
        ({"refresh_every": 1}, "train.refresh_every"),
        ({"beta1": 0.9}, "train.beta1"),
        ({"beta2": 0.999}, "train.beta2"),
        ({"adam_eps": 1e-8}, "train.adam_eps"),
        ({"kmeans_tol": 1e-6}, "train.kmeans_tol"),
        ({"seeds": {"init": 1}}, "train.seeds"),
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
        ({"seed": 1.5}, "train.seed"),
        ({"weights": {"lambda2": False}}, "train.weights.lambda2"),
        ({"hidden_dims": [12.5]}, "train.hidden_dims[0]"),
        ({"cluster_levels": ["2", 3]}, "train.cluster_levels[0]"),
        ({"cluster_levels": 3}, "train.cluster_levels"),
    ],
)
def test_lossy_scalar_casts_are_refused(train, path):
    with pytest.raises(ConfigError, match=re.escape(f"'{path}'")):
        parse_config({"train": train})


def test_synthetic_section_parses_to_the_same_spec():
    section = {**SYNTHETIC, "clusters": 3.0, "separation": 5, "noise_std": "5e-1", "seed": 4}
    parsed = parse_config({"dataset": {"synthetic": section}}).dataset
    expected = SyntheticSpec(
        clusters=3, views=2, dims=(4, 6), samples_per_cluster=8, separation=5.0, noise_std=0.5, seed=4
    )
    assert parsed.synthetic == expected
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
        ({"train": {"seed": -1}}, "train.seed"),
        ({"train": {"kmeans_max_iter": 0}}, "train.kmeans_max_iter"),
        ({"train": {"latent_dim": 0}}, "train.latent_dim"),
        ({"train": {"hidden_dims": [16, 0]}}, "train.hidden_dims"),
        ({"train": {"hidden_dims": [-4]}}, "train.hidden_dims"),
        ({"dataset": {"synthetic": {**SYNTHETIC, "seed": -3}}}, "dataset.synthetic.seed"),
        ({"dataset": {"unpair": {"source_manifest": "paired.json", "seed": -1}}}, "dataset.unpair.seed"),
        ({"train": {"kmeans_max_iter": -1}}, "train.kmeans_max_iter"),
        ({"train": {"cluster_levels": [3, 2]}}, "train.cluster_levels must be strictly increasing"),
        ({"train": {"cluster_levels": []}}, "train.cluster_levels"),
        ({"train": {"weights": {"lambda4": math.nan}}}, "train.weights.lambda4"),
        ({"train": {"weights": {"lambda1": math.inf}}}, "train.weights.lambda1"),
        ({"train": {"weights": {"lambda2": -math.inf}}}, "train.weights.lambda2"),
        ({"train": {"learning_rate": math.inf}}, "train.learning_rate"),
        ({"train": {"learning_rate": math.nan}}, "train.learning_rate"),
        ({"train": {"learning_rate": "nan"}}, "train.learning_rate"),
        ({"dataset": {"synthetic": {**SYNTHETIC, "separation": math.nan}}}, "dataset.synthetic.separation"),
        ({"dataset": {"synthetic": {**SYNTHETIC, "separation": math.inf}}}, "dataset.synthetic.separation"),
        ({"dataset": {"synthetic": {**SYNTHETIC, "noise_std": math.inf}}}, "dataset.synthetic.noise_std"),
        ({"dataset": {"synthetic": {**SYNTHETIC, "noise_std": -math.inf}}}, "dataset.synthetic.noise_std"),
        ({"sweep": {"lambda3": [0.1, math.nan]}}, "sweep.lambda3"),
        ({"sweep": {"lambda4": [math.inf]}}, "sweep.lambda4"),
    ],
)
def test_values_the_trainer_cannot_use_are_refused_at_parse_time(raw, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config(raw)


def test_sweep_grid_values_parse_to_floats():
    assert parse_config({"sweep": {"lambda2": [0, "1e-2", 0.5], "lambda4": [2]}}).sweep == {
        "lambda2": [0.0, 0.01, 0.5],
        "lambda4": [2.0],
    }


@pytest.mark.parametrize(
    "values, key",
    [
        ([True, "1e-2"], "'sweep.lambda2[0]'"),
        ([0.1, "x"], "'sweep.lambda2[1]'"),
        ([[0.1]], "'sweep.lambda2[0]'"),
        ([-1.0], "sweep.lambda2 must be non-negative"),
        ([], "'sweep.lambda2' must be a non-empty list"),
    ],
)
def test_bad_sweep_values_name_their_key(values, key):
    with pytest.raises(ConfigError, match=re.escape(key)):
        parse_config({"sweep": {"lambda2": values}})


NON_DEFAULT_DATASET = {
    "manifest": "data/manifest.json",
    "scale": "zscore",
    "synthetic": {**SYNTHETIC, "seed": 4},
    "unpair": {"seed": 5, "strategy": "uniform-random", "source_manifest": "paired/manifest.json"},
}


def test_dataset_section_round_trips_through_resolved_yaml():
    parsed = parse_config({"dataset": NON_DEFAULT_DATASET})
    expected = DatasetSection(
        manifest="data/manifest.json",
        scale="zscore",
        synthetic=SyntheticSpec(
            clusters=3, views=2, dims=(4, 6), samples_per_cluster=8, separation=5.0, noise_std=0.5, seed=4
        ),
        unpair=UnpairRecipe(seed=5, strategy="uniform-random", source_manifest="paired/manifest.json"),
    )
    assert parsed.dataset == expected
    dumped = yaml.safe_load(yaml.safe_dump(parsed.resolved_dict(), sort_keys=True))
    assert dumped["dataset"] == NON_DEFAULT_DATASET
    assert parse_config(dumped).dataset == expected
    assert parse_config({}).dataset == DatasetSection()


@pytest.mark.parametrize(
    "dataset, path",
    [
        ({"manifest": 5}, "dataset.manifest"),
        ({"scale": "unit"}, "dataset.scale"),
        ({"synthetic": {"clusters": 3}}, "dataset.synthetic.views"),
        ({"unpair": {"strategy": "alphabetical"}}, "dataset.unpair.strategy"),
        ({"unpair": {"source": "paired.json"}}, "dataset.unpair.source"),
    ],
)
def test_bad_dataset_values_name_their_path(dataset, path):
    with pytest.raises(ConfigError, match=re.escape(path)):
        parse_config({"dataset": dataset})
