"""Dataset loading, unpairing, synthesis, scaling, batching."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umclust.cluster import kmeans
from umclust.data import (
    MultiViewDataset,
    PairedDataset,
    SyntheticSpec,
    UnpairRecipe,
    ViewData,
    load,
    load_paired,
    save_dataset,
    scale_dataset,
    synthesize,
    unpair,
    view_batches,
    write_csv,
)
from umclust.errors import DataError
from umclust.metrics import export_embeddings, nmi
from umclust.train import _write_loss_csv


def toy_unpaired() -> MultiViewDataset:
    return MultiViewDataset(
        name="toy",
        n_clusters=2,
        views=[
            ViewData(0, np.array([0, 1]), np.array([[0.0, 1.0], [2.0, 3.0]]), np.array([0, 1])),
            ViewData(1, np.array([2, 3]), np.array([[4.0], [5.0]]), np.array([0, 1])),
        ],
    )


def toy_paired(n_per_class=3, n_views=2, seed=0) -> PairedDataset:
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    return PairedDataset(
        name="paired-toy",
        n_clusters=2,
        ids=np.arange(n, dtype=np.int64),
        features=[rng.normal(size=(n, 2 + v)) for v in range(n_views)],
        labels=np.repeat([0, 1], n_per_class),
    )


# ---------------------------------------------------------------------------
# manifest round trips and validation


def test_save_load_roundtrip(tmp_path):
    ds = toy_unpaired()
    manifest = save_dataset(ds, tmp_path)
    loaded = load(manifest)
    assert loaded.name == "toy" and loaded.n_clusters == 2
    assert loaded.total_samples == 4 and loaded.n_views == 2
    for orig, back in zip(ds.views, loaded.views):
        assert np.array_equal(orig.ids, back.ids)
        assert np.array_equal(orig.features, back.features)  # full-precision floats
        assert np.array_equal(orig.labels, back.labels)


def test_csv_writers_print_each_float_at_its_dtypes_round_trip_digits(tmp_path):
    # the feature, embedding and loss-curve files print integers with %d and
    # floats with %.17g from float64 and %.9g from float32 arrays; feature
    # files are float64, the loaders' dtype, whatever the features' dtype
    hard = np.array([
        [0.1 + 0.2, 1 / 3, np.nextafter(1.0, 2.0), -0.0],
        [5e-324, 1e300, 123456789.12345679, -2.0 / 3.0],
    ])
    single = np.array([
        [0.1, 1 / 3, np.nextafter(np.float32(1), np.float32(2)), -0.0],
        [np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max, 16777217.0, -2.0 / 3.0],
    ], dtype=np.float32)
    printed = {
        "hard": [
            "0.30000000000000004,0.33333333333333331,1.0000000000000002,-0",
            "4.9406564584124654e-324,1.0000000000000001e+300,123456789.12345679,-0.66666666666666663",
        ],
        "single": ["0.100000001,0.333333343,1.00000012,-0", "1.40129846e-45,3.40282347e+38,16777216,-0.666666687"],
        "single as float64": [
            "0.10000000149011612,0.3333333432674408,1.0000001192092896,-0",
            "1.4012984643248171e-45,3.4028234663852886e+38,16777216,-0.66666668653488159",
        ],
    }
    ids, labels = np.array([7, 9]), np.array([0, 1])
    for floats, rows, feature_rows in [
        (hard, printed["hard"], printed["hard"]),
        (single, printed["single"], printed["single as float64"]),
    ]:
        save_dataset(MultiViewDataset(name="hard", n_clusters=2, views=[ViewData(0, ids, floats, labels)]), tmp_path)
        assert (tmp_path / "view0.csv").read_text() == f"7,{feature_rows[0]}\n9,{feature_rows[1]}\n"
        assert (tmp_path / "labels.csv").read_text() == "7,0\n9,1\n"

        export_embeddings(tmp_path / "emb.csv", ids, np.array([0, 1]), labels, labels[::-1], floats)
        assert (tmp_path / "emb.csv").read_text() == f"7,0,0,1,{rows[0]}\n9,1,1,0,{rows[1]}\n"

        table = np.column_stack([np.array([1, 2], dtype=floats.dtype), floats])
        _write_loss_csv(tmp_path / "loss.csv", ["epoch", "a", "b", "c", "d"], table)
        assert (tmp_path / "loss.csv").read_text() == f"epoch,a,b,c,d\n1,{rows[0]}\n2,{rows[1]}\n"


def _finite_values(dtype):
    """Finite values of `dtype`: its extremes and any bit pattern."""
    info = np.finfo(dtype)
    uint = np.dtype(f"uint{info.bits}")
    special = [0.0, -0.0, info.smallest_subnormal, info.tiny - info.smallest_subnormal, info.tiny, info.max]
    special += [-x for x in special] + [0.1, 1 / 3, np.nextafter(dtype(1), dtype(2))]
    patterns = st.integers(0, np.iinfo(uint).max).map(lambda b: np.array(b, dtype=uint).view(dtype)[()])
    return st.one_of(st.sampled_from([dtype(x) for x in special]), patterns.filter(np.isfinite))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_written_values_parse_back_bit_for_bit_in_their_dtype(tmp_path_factory, dtype, data):
    values = np.array(data.draw(st.lists(_finite_values(dtype), min_size=1, max_size=24)), dtype=dtype)
    floats = np.resize(values, (values.size + 2) // 3 * 3).reshape(-1, 3)
    path = tmp_path_factory.mktemp("csv") / "values.csv"
    write_csv(path, np.arange(floats.shape[0])[:, None], floats)
    bits = f"uint{floats.itemsize * 8}"
    for parsed in (
        np.loadtxt(path, delimiter=",", ndmin=2)[:, 1:].astype(dtype),
        np.array([[float(x) for x in row.split(",")[1:]] for row in path.read_text().splitlines()], dtype=dtype),
    ):
        assert np.array_equal(parsed.view(bits), floats.view(bits))


def test_toy_manifest_counts(tmp_path):
    manifest = save_dataset(toy_unpaired(), tmp_path)
    ds = load(manifest)
    assert [v.n for v in ds.views] == [2, 2]


def test_duplicate_id_across_views_rejected():
    with pytest.raises(DataError, match="violates unpaired condition"):
        MultiViewDataset(
            name="bad",
            n_clusters=2,
            views=[
                ViewData(0, np.array([0, 1]), np.zeros((2, 2)), np.array([0, 1])),
                ViewData(1, np.array([1, 2]), np.zeros((2, 2)), np.array([0, 1])),
            ],
        )


def test_repeated_view_id_rejected(tmp_path):
    manifest = save_dataset(toy_unpaired(), tmp_path)
    raw = json.loads(manifest.read_text(encoding="utf-8"))
    raw["views"][1]["id"] = 0  # view1.csv listed under view 0's id
    manifest.write_text(json.dumps(raw), encoding="utf-8")
    with pytest.raises(DataError, match="view id 0 is used by more than one view"):
        load(manifest)


def test_missing_files_and_bad_labels(tmp_path):
    with pytest.raises(DataError, match="missing manifest"):
        load(tmp_path / "nope.json")
    manifest = save_dataset(toy_unpaired(), tmp_path)
    (tmp_path / "view1.csv").unlink()
    with pytest.raises(DataError, match="missing feature file"):
        load(manifest)


@pytest.mark.parametrize("what", ["feature", "labels"])
def test_empty_csv_is_refused(tmp_path, what):
    manifest = save_dataset(toy_unpaired(), tmp_path)
    path = tmp_path / {"feature": "view1.csv", "labels": "labels.csv"}[what]
    for blank in ("", "\n  \n\n"):
        path.write_text(blank, encoding="utf-8")
        with pytest.raises(DataError, match=f"empty {what} file .*{path.name}"):
            load(manifest)


def test_dim_mismatch_vs_manifest(tmp_path):
    manifest = save_dataset(toy_unpaired(), tmp_path)
    text = manifest.read_text().replace('"dim": 2', '"dim": 5')
    manifest.write_text(text)
    with pytest.raises(DataError, match="declares dim 5"):
        load(manifest)


def test_label_out_of_range():
    with pytest.raises(DataError, match="out of range"):
        MultiViewDataset(
            name="bad",
            n_clusters=2,
            views=[ViewData(0, np.array([0]), np.zeros((1, 2)), np.array([5]))],
        )


def test_unlabeled_sample_rejected(tmp_path):
    manifest = save_dataset(toy_unpaired(), tmp_path)
    labels = (tmp_path / "labels.csv").read_text().splitlines()
    (tmp_path / "labels.csv").write_text("\n".join(labels[:-1]) + "\n")
    with pytest.raises(DataError, match="has no label"):
        load(manifest)


def test_repeated_label_id_rejected(tmp_path):
    manifest = save_dataset(toy_unpaired(), tmp_path)
    with open(tmp_path / "labels.csv", "a", encoding="utf-8") as fh:
        fh.write("0,1\n")  # id 0 is already class 0
    with pytest.raises(DataError, match="sample id 0 is listed more than once"):
        load(manifest)


@pytest.mark.parametrize(
    "edit, key",
    [
        (lambda m: m.update(clusters="three"), "'clusters'"),
        (lambda m: m.update(clusters=True), "'clusters'"),
        (lambda m: m.update(clusters=2.5), "'clusters'"),
        (lambda m: m.update(views=5), "'views'"),
        (lambda m: m.update(views=[]), "'views'"),
        (lambda m: m.update(views=["view0.csv"]), "'views'"),
        (lambda m: m["views"][0].update(id=0.5), "'views[0].id'"),
        (lambda m: m["views"][1].update(dim="x"), "'views[1].dim'"),
        (lambda m: m["views"][1].update(dim=0), "'views[1].dim'"),
        (lambda m: m.update(labels=5), "'labels'"),
        (lambda m: m["views"][1].update(path=None), "'views[1].path'"),
    ],
    ids=[
        "clusters-str", "clusters-bool", "clusters-fraction", "views-int", "views-empty",
        "views-of-str", "id-fraction", "dim-str", "dim-zero", "labels-int", "path-null",
    ],
)
def test_malformed_manifest_names_the_key(tmp_path, edit, key):
    manifest = save_dataset(toy_unpaired(), tmp_path)
    raw = json.loads(manifest.read_text())
    edit(raw)
    manifest.write_text(json.dumps(raw))
    with pytest.raises(DataError, match=re.escape(f"manifest key {key}")):
        load(manifest)


def test_load_paired_requires_identical_ids(tmp_path):
    manifest = save_dataset(toy_unpaired(), tmp_path)  # disjoint ids per view
    with pytest.raises(DataError, match="identical id lists"):
        load_paired(manifest)
    paired_manifest = save_dataset(toy_paired(), tmp_path / "paired")
    paired = load_paired(paired_manifest)
    assert paired.n_views == 2 and paired.ids.shape[0] == 6


# ---------------------------------------------------------------------------
# unpairing


def test_unpair_six_samples_balanced():
    ds = unpair(toy_paired(n_per_class=3), UnpairRecipe(seed=1))
    assert sorted(v.n for v in ds.views) == [3, 3]
    for v in ds.views:
        counts = np.bincount(v.labels, minlength=2)
        assert abs(counts[0] - counts[1]) <= 1


def test_unpair_deterministic():
    p = toy_paired(n_per_class=10)
    d1 = unpair(p, UnpairRecipe(seed=7))
    d2 = unpair(p, UnpairRecipe(seed=7))
    for v1, v2 in zip(d1.views, d2.views):
        assert np.array_equal(v1.ids, v2.ids)
        assert np.array_equal(v1.features, v2.features)


def test_unpair_partition_property():
    p = toy_paired(n_per_class=17, n_views=3)
    ds = unpair(p, UnpairRecipe(seed=3))
    assert sorted(ds.all_ids().tolist()) == sorted(p.ids.tolist())


def test_unpair_digit_scale_counts():
    # 2000 samples, 10 balanced classes, 6 views: per-view counts in {333, 334}
    rng = np.random.default_rng(0)
    n = 2000
    paired = PairedDataset(
        name="digitlike",
        n_clusters=10,
        ids=np.arange(n, dtype=np.int64),
        features=[rng.normal(size=(n, 4)) for _ in range(6)],
        labels=np.repeat(np.arange(10), 200),
    )
    ds = unpair(paired, UnpairRecipe(seed=5))
    counts = [v.n for v in ds.views]
    assert set(counts) <= {333, 334}
    assert sum(counts) == 2000
    for v in ds.views:
        per_class = np.bincount(v.labels, minlength=10)
        assert per_class.min() >= 33 and per_class.max() <= 34


def test_unpair_uniform_random_strategy():
    p = toy_paired(n_per_class=50, n_views=3)
    ds = unpair(p, UnpairRecipe(seed=2, strategy="uniform-random"))
    assert ds.total_samples == 100
    assert sorted(ds.all_ids().tolist()) == sorted(p.ids.tolist())


def test_unpair_rejects_single_view_and_empty_class():
    single = PairedDataset(
        name="x", n_clusters=2, ids=np.arange(4),
        features=[np.zeros((4, 2))], labels=np.array([0, 0, 1, 1]),
    )
    with pytest.raises(DataError, match="at least two views"):
        unpair(single, UnpairRecipe(seed=0))
    missing_class = PairedDataset(
        name="x", n_clusters=3, ids=np.arange(4),
        features=[np.zeros((4, 2)), np.zeros((4, 2))], labels=np.array([0, 0, 1, 1]),
    )
    with pytest.raises(DataError, match="cannot stratify"):
        unpair(missing_class, UnpairRecipe(seed=0))


def test_unpair_rejects_unknown_strategy():
    with pytest.raises(DataError, match="strategy must be one of"):
        UnpairRecipe(seed=0, strategy="alphabetical")


# ---------------------------------------------------------------------------
# synthesis


def test_synthesize_separated_blobs_cluster_cleanly():
    spec = SyntheticSpec(clusters=3, views=2, dims=(6, 9), samples_per_cluster=40,
                         separation=10.0, noise_std=1.0, seed=0)
    ds = synthesize(spec)
    assert ds.total_samples == 3 * 40 * 2
    for v in ds.views:
        assignment, _ = kmeans(v.features, 3, seed=1, restarts=5)
        assert nmi(assignment.labels, v.labels) >= 0.95


def test_synthesize_deterministic():
    spec = SyntheticSpec(clusters=2, views=2, dims=(4, 5), samples_per_cluster=10,
                         separation=5.0, noise_std=1.0, seed=3)
    d1 = synthesize(spec)
    d2 = synthesize(spec)
    for v1, v2 in zip(d1.views, d2.views):
        assert np.array_equal(v1.features, v2.features)


def test_synthesize_validation():
    with pytest.raises(DataError):
        SyntheticSpec(clusters=3, views=2, dims=(4, 5), samples_per_cluster=0,
                      separation=5.0, noise_std=1.0)
    with pytest.raises(DataError):
        SyntheticSpec(clusters=3, views=2, dims=(4,), samples_per_cluster=5,
                      separation=5.0, noise_std=1.0)
    with pytest.raises(DataError):
        SyntheticSpec(clusters=3, views=1, dims=(4,), samples_per_cluster=5,
                      separation=-1.0, noise_std=1.0)


def test_synthesize_center_separation_is_exact():
    spec = SyntheticSpec(clusters=4, views=1, dims=(7,), samples_per_cluster=200,
                         separation=8.0, noise_std=1e-9, seed=1)
    ds = synthesize(spec)
    # with negligible noise, per-class means approximate the embedded centers
    means = np.stack([ds.views[0].features[ds.views[0].labels == c].mean(axis=0) for c in range(4)])
    dists = [np.linalg.norm(means[i] - means[j]) for i in range(4) for j in range(i + 1, 4)]
    assert min(dists) == pytest.approx(8.0, rel=1e-5)


# ---------------------------------------------------------------------------
# scaling


def test_minmax_basic_and_constant_columns():
    ds = MultiViewDataset(
        name="s", n_clusters=2,
        views=[ViewData(0, np.arange(2), np.array([[1.0, 7.0], [3.0, 7.0]]), np.array([0, 1]))],
    )
    scaled = scale_dataset(ds, "minmax")
    assert np.allclose(scaled.views[0].features[:, 0], [0.0, 1.0])
    assert np.allclose(scaled.views[0].features[:, 1], [0.0, 0.0])


def test_zscore_moments():
    rng = np.random.default_rng(1)
    ds = MultiViewDataset(
        name="s", n_clusters=2,
        views=[ViewData(0, np.arange(50), rng.normal(5, 3, size=(50, 4)), rng.integers(0, 2, 50))],
    )
    scaled = scale_dataset(ds, "zscore")
    x = scaled.views[0].features
    assert np.abs(x.mean(axis=0)).max() < 1e-9
    assert np.abs(x.std(axis=0) - 1.0).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(st.lists(st.lists(st.floats(-100, 100), min_size=3, max_size=3), min_size=2, max_size=8))
def test_minmax_idempotent(rows):
    ds = MultiViewDataset(
        name="s", n_clusters=1,
        views=[ViewData(0, np.arange(len(rows)), np.array(rows), np.zeros(len(rows), dtype=int))],
    )
    once = scale_dataset(ds, "minmax")
    twice = scale_dataset(once, "minmax")
    assert np.allclose(once.views[0].features, twice.views[0].features, atol=1e-12)


# ---------------------------------------------------------------------------
# batching


def _take(stream, count):
    return [next(stream) for _ in range(count)]


def test_batch_plan_epoch_coverage():
    stream = view_batches(seed=0, batch_size=4, epoch=3, view=1, n=11)
    batches = _take(stream, 3)
    assert [len(b) for b in batches] == [4, 4, 3]
    assert sorted(np.concatenate(batches).tolist()) == list(range(11))
    assert len(next(stream)) == 4  # the next pass starts with a full batch


def test_batch_plan_deterministic_and_epoch_varying():
    a = np.concatenate(_take(view_batches(0, 4, 1, 0, 10), 3))
    b = np.concatenate(_take(view_batches(0, 4, 1, 0, 10), 3))
    c = np.concatenate(_take(view_batches(0, 4, 2, 0, 10), 3))
    d = np.concatenate(_take(view_batches(0, 4, 1, 1, 10), 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    # a pass is the permutation drawn from SeedSequence([seed, epoch, view, pass])
    assert np.array_equal(a, np.random.default_rng(np.random.SeedSequence([0, 1, 0, 0])).permutation(10))


def test_batch_plan_cycles_differ():
    batches = _take(view_batches(0, 8, 1, 0, 16), 4)
    first, second = np.concatenate(batches[:2]), np.concatenate(batches[2:])
    assert sorted(first.tolist()) == sorted(second.tolist()) == list(range(16))
    assert not np.array_equal(first, second)
    assert np.array_equal(second, np.random.default_rng(np.random.SeedSequence([0, 1, 0, 1])).permutation(16))
