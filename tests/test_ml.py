"""Classifiers against brute-force oracles, fold hygiene, and persistence."""

import numpy as np
import pytest

from maldoc import ModelSpec
from maldoc.ml import (
    CvReport,
    FeatureScaler,
    LabeledSet,
    VecModel,
    accuracy,
    cross_validate,
    cross_validate_builder,
    load_model,
    predict_batch,
    save_model,
    stratified_folds,
    train_knn,
    train_model,
)

from maldoc import ml
from oracles import knn_bruteforce, knn_scores_one_block, tree_scores_reference


def make_blobs(rng, n=60, d=5, gap=4.0):
    """Two well-separated Gaussian clouds."""
    half = n // 2
    x0 = rng.standard_normal((half, d))
    x1 = rng.standard_normal((n - half, d)) + gap
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return LabeledSet(x, y, "blob")


# ---------------------------------------------------------------- knn

def test_knn_matches_bruteforce():
    rng = np.random.default_rng(0)
    train = LabeledSet(rng.standard_normal((80, 6)), rng.integers(0, 2, 80), "r")
    model = train_knn(train, k=5)
    queries = rng.standard_normal((40, 6))
    labels, scores = predict_batch(model, queries)
    for i, q in enumerate(queries):
        exp_label, exp_score = knn_bruteforce(train.vectors, train.labels, q, 5)
        assert labels[i] == exp_label
        assert scores[i] == pytest.approx(exp_score, abs=1e-12)


def test_knn_query_blocks_match_one_block():
    """Query counts 1-100 against 300 training rows of 200 tie-heavy dims,
    16 queries per block at the module's cap."""
    rng = np.random.default_rng(12)
    train = LabeledSet(rng.integers(0, 3, (300, 200)).astype(float), rng.integers(0, 2, 300), "r")
    model = train_knn(train, k=5)
    assert ml.KNN_BLOCK_ELEMENTS // (300 * 200) == 16
    queries = rng.integers(0, 3, (100, 200)).astype(float)
    for q in range(1, 101):
        blocked = ml._knn_scores(model, queries[:q])
        assert blocked.tobytes() == knn_scores_one_block(model, queries[:q]).tobytes(), q


@pytest.mark.parametrize("rows_per_block", [1, 3, 7])
def test_knn_small_blocks_match_one_block(monkeypatch, rows_per_block):
    rng = np.random.default_rng(rows_per_block)
    for _ in range(20):
        n, d, q = (int(v) for v in rng.integers(3, 60, 3))
        train = LabeledSet(rng.standard_normal((n, d)), rng.integers(0, 2, n), "r")
        model = train_knn(train, k=3)
        queries = rng.standard_normal((q, d))
        monkeypatch.setattr(ml, "KNN_BLOCK_ELEMENTS", rows_per_block * n * d)
        blocked = ml._knn_scores(model, queries)
        assert blocked.tobytes() == knn_scores_one_block(model, queries).tobytes(), (n, d, q)


def test_knn_tie_on_distance_prefers_lower_index():
    # two identical points with opposite labels: index order must decide
    x = np.array([[0.0, 0.0], [0.0, 0.0], [9.0, 9.0]])
    y = np.array([1, 0, 0])
    model = train_knn(LabeledSet(x, y, "t"), k=1)
    labels, scores = predict_batch(model, np.array([0.0, 0.0]))
    assert labels.tolist() == [1]
    assert scores.tolist() == [1.0]


def test_knn_k_validation():
    rng = np.random.default_rng(1)
    train = LabeledSet(rng.standard_normal((6, 2)), np.array([0, 1] * 3), "t")
    with pytest.raises(ValueError, match="odd"):
        train_knn(train, k=2)
    with pytest.raises(ValueError, match=r"\[1, 6\]"):
        train_knn(train, k=7)


def test_knn_score_is_malware_fraction():
    x = np.array([[0.0], [0.1], [0.2], [10.0], [10.1]])
    y = np.array([1, 1, 0, 0, 0])
    model = train_knn(LabeledSet(x, y, "t"), k=3)
    labels, scores = predict_batch(model, np.array([0.0]))
    assert labels.tolist() == [1]
    assert scores[0] == pytest.approx(2 / 3)


# ---------------------------------------------------------------- forest

def test_forest_fits_xor():
    # a single axis-aligned split cannot solve XOR; an ensemble of deep
    # trees must reach perfect training accuracy
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, (200, 2))
    y = ((x[:, 0] > 0) ^ (x[:, 1] > 0)).astype(int)
    model = train_model(ModelSpec("rf", n_trees=101), LabeledSet(x, y, "xor"), seed=0)
    labels, _ = predict_batch(model, x)
    assert accuracy(labels, y) == 1.0


def test_forest_is_bit_deterministic():
    rng = np.random.default_rng(3)
    data = make_blobs(rng, n=40)
    queries = rng.standard_normal((25, 5))
    m1 = train_model(ModelSpec("rf", n_trees=32), data, seed=7)
    m2 = train_model(ModelSpec("rf", n_trees=32), data, seed=7)
    l1, s1 = predict_batch(m1, queries)
    l2, s2 = predict_batch(m2, queries)
    assert np.array_equal(l1, l2)
    assert np.array_equal(s1, s2)


def test_forest_rejects_single_class():
    rng = np.random.default_rng(4)
    data = LabeledSet(rng.standard_normal((10, 3)), np.zeros(10, dtype=int), "t")
    with pytest.raises(ValueError, match="both classes"):
        train_model(ModelSpec("rf", n_trees=5), data, seed=0)


@pytest.mark.parametrize(
    "low, high",
    [
        (1.0, np.nextafter(1.0, 2.0)),  # the midpoint rounds to 1.0
        (1.0e308, 1.7e308),  # the midpoint overflows to inf
        (-1.7e308, -1.0e308),  # and to -inf
    ],
)
def test_forest_splits_values_whose_midpoint_is_not_between_them(low, high):
    # a threshold at the midpoint would leave one child empty: a
    # ZeroDivisionError, or a loop splitting the same rows forever
    x = np.array([[low], [high]] * 3)
    y = np.array([0, 1] * 3)
    model = train_model(ModelSpec("rf", n_trees=5), LabeledSet(x, y, "t"), seed=0)
    assert predict_batch(model, x)[0].tolist() == y.tolist()


def test_forest_rejects_data_without_features():
    data = LabeledSet(np.zeros((10, 0)), np.array([0, 1] * 5), "t")
    with pytest.raises(ValueError, match="at least one feature"):
        train_model(ModelSpec("rf", n_trees=5), data, seed=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_labeled_set_rejects_non_finite_vectors(bad):
    # a NaN column used to reach the forest and crash it on an empty child
    rng = np.random.default_rng(6)
    x = rng.standard_normal((40, 4))
    x[::3, 2] = bad
    with pytest.raises(ValueError, match="finite"):
        LabeledSet(x, np.array([0, 1] * 20), "t")


def test_forest_score_is_tree_vote_fraction():
    rng = np.random.default_rng(5)
    data = make_blobs(rng, n=30, gap=8.0)
    model = train_model(ModelSpec("rf", n_trees=11), data, seed=1)
    _, scores = predict_batch(model, data.vectors)
    # scores are multiples of 1/11
    assert np.allclose(scores * 11, np.round(scores * 11), atol=1e-12)


# ---------------------------------------------------------------- ensemble

def test_ensemble_needs_two_constituents():
    rng = np.random.default_rng(6)
    data = make_blobs(rng, n=20)
    with pytest.raises(ValueError, match="two"):
        VecModel(constituents=(train_knn(data, k=1),), seed=0)


def test_ensemble_tie_votes_malware():
    # with an even vote split the ensemble must fail safe toward malware
    x = np.array([[0.0], [10.0]])
    says_malware = train_knn(LabeledSet(x, np.array([1, 0]), "t"), k=1)
    says_clean = train_knn(LabeledSet(x, np.array([0, 1]), "t"), k=1)
    m = VecModel(constituents=(says_malware, says_clean), seed=0)
    q = np.array([2.0])
    assert predict_batch(says_malware, q)[0].tolist() == [1]
    assert predict_batch(says_clean, q)[0].tolist() == [0]
    labels, scores = predict_batch(m, q)
    assert labels.tolist() == [1]
    assert scores[0] == pytest.approx(0.5)


def test_ensemble_score_is_mean_vote():
    rng = np.random.default_rng(7)
    data = make_blobs(rng, n=40)
    parts = [
        train_knn(data, k=1),
        train_knn(data, k=3),
        train_model(ModelSpec("rf", n_trees=9), data, seed=0),
    ]
    m = VecModel(constituents=tuple(parts), seed=0)
    q = rng.standard_normal((10, 5))
    _, scores = predict_batch(m, q)
    votes = np.stack([predict_batch(c, q)[0] for c in m.constituents])
    assert np.allclose(scores, votes.mean(axis=0))


# ---------------------------------------------------------------- scaling

def test_scaler_population_statistics():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((50, 4)) * 3 + 1
    scaler = FeatureScaler.fit(x)
    z = scaler.transform(x)
    assert np.abs(z.mean(axis=0)).max() < 1e-12
    # population (ddof=0) standard deviation
    assert np.abs(z.std(axis=0) - 1.0).max() < 1e-12


def test_scaler_zero_variance_column_maps_to_zero():
    x = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
    z = FeatureScaler.fit(x).transform(x)
    assert np.all(z[:, 1] == 0.0)
    assert not np.any(np.isnan(z))


# ---------------------------------------------------------------- folds

def test_stratified_folds_partition_and_balance():
    rng = np.random.default_rng(9)
    for trial in range(20):
        n = int(rng.integers(30, 200))
        labels = rng.integers(0, 2, n)
        if labels.sum() < 10 or labels.sum() > n - 10:
            continue
        folds = stratified_folds(labels, n_folds=10, seed=trial)
        all_idx = np.concatenate(folds)
        assert sorted(all_idx.tolist()) == list(range(n))
        for cls in (0, 1):
            per_fold = [int((labels[f] == cls).sum()) for f in folds]
            assert max(per_fold) - min(per_fold) <= 1, (cls, per_fold)


def test_stratified_folds_deterministic():
    labels = np.array([0, 1] * 25)
    a = stratified_folds(labels, n_folds=5, seed=3)
    b = stratified_folds(labels, n_folds=5, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def test_cross_validate_separable_data():
    rng = np.random.default_rng(10)
    data = make_blobs(rng, n=60, gap=10.0)
    rep = cross_validate(data, ModelSpec("knn", k=3), folds=10, seed=0)
    assert rep.mean_accuracy == 1.0
    assert len(rep.fold_accuracies) == 10
    assert rep.dims == 5


def test_cross_validate_random_labels_near_chance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((100, 4))
    y = rng.integers(0, 2, 100)
    rep = cross_validate(LabeledSet(x, y, "noise"), ModelSpec("knn", k=5), folds=10, seed=0)
    assert 0.30 <= rep.mean_accuracy <= 0.70


def test_cross_validate_builder_matches_plain_cv_for_static_features():
    # when the builder ignores the training split, both entry points must
    # run the identical experiment
    rng = np.random.default_rng(12)
    data = make_blobs(rng, n=50)

    def build(train_idx, test_idx):
        return data.vectors[train_idx], data.vectors[test_idx]

    rep1 = cross_validate(data, ModelSpec("knn", k=3), folds=5, seed=4)
    rep2 = cross_validate_builder(data.labels, build, ModelSpec("knn", k=3), "blob", folds=5, seed=4)
    assert rep1.fold_accuracies == rep2.fold_accuracies


def test_cv_report_validation():
    with pytest.raises(ValueError, match="mean"):
        CvReport(fold_accuracies=(1.0, 0.0), mean_accuracy=0.9, model_kind="knn", feature_kind="t", seed=0, dims=1)
    with pytest.raises(ValueError, match="two folds"):
        CvReport(fold_accuracies=(1.0,), mean_accuracy=1.0, model_kind="knn", feature_kind="t", seed=0, dims=1)


def test_cross_validate_rejects_single_fold():
    rng = np.random.default_rng(13)
    data = make_blobs(rng, n=20)
    with pytest.raises(ValueError, match="two folds"):
        cross_validate(data, ModelSpec("knn", k=1), folds=1)


# ---------------------------------------------------------------- persistence

@pytest.mark.parametrize("spec", [ModelSpec("knn", k=3), ModelSpec("rf", n_trees=13), ModelSpec("vec")])
def test_model_round_trip(tmp_path, spec):
    rng = np.random.default_rng(14)
    data = make_blobs(rng, n=40)
    model = train_model(spec, data, seed=5)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    queries = rng.standard_normal((30, 5))
    l1, s1 = predict_batch(model, queries)
    l2, s2 = predict_batch(loaded, queries)
    assert np.array_equal(l1, l2)
    assert np.array_equal(s1, s2)
    # a resave of the loaded model reproduces the file byte for byte
    path2 = tmp_path / "model2.txt"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_model_file_is_versioned_text(tmp_path):
    rng = np.random.default_rng(15)
    model = train_model(ModelSpec("knn", k=1), make_blobs(rng, n=10), seed=0)
    path = tmp_path / "m.txt"
    save_model(model, path)
    first = path.read_text().splitlines()[0]
    assert first.startswith("maldoc-model v1")


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("not a model\n")
    with pytest.raises(ValueError):
        load_model(path)


_STUMP = "maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1\ntree 3\n{root}\n-1 0.0 -1 -1 0.0\n-1 0.0 -1 -1 1.0\n"


def test_load_model_reads_a_handwritten_stump(tmp_path):
    path = tmp_path / "stump.txt"
    path.write_text(_STUMP.format(root="1 0.5 1 2 0.0"))
    model = load_model(path)
    queries = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 0.5], [0.0, np.nan]])
    labels, scores = predict_batch(model, queries)
    assert labels.tolist() == [0, 1, 1, 1]
    assert scores.tobytes() == tree_scores_reference(model.trees[0], queries).tobytes()


def test_load_model_rejects_a_forest_without_trees(tmp_path):
    # loaded, it would score every query benign: (0, nan)
    path = tmp_path / "bad.txt"
    path.write_text("maldoc-model v1\nkind rf\nseed 0\ndims 3\ntrees 0\n")
    with pytest.raises(ValueError, match="malformed rf in model file: "):
        load_model(path)


@pytest.mark.parametrize(
    "root",
    [
        "1 0.5 0 2 0.0",  # self-loop: scoring would never reach a leaf
        "1 0.5 1 3 0.0",  # child past the last node
        "2 0.5 1 2 0.0",  # feature past the model's dims
        "1 0.5 1 -1 0.0",  # one child missing
        "1 0.5 1 2 1.5",  # value outside [0, 1]
    ],
)
def test_load_model_rejects_malformed_trees(tmp_path, root):
    path = tmp_path / "bad.txt"
    path.write_text(_STUMP.format(root=root))
    with pytest.raises(ValueError, match="malformed tree"):
        load_model(path)


_KNN = "maldoc-model v1\nkind knn\nseed 0\ndims 2\nk {k}\nn 3\n0 0.0 0.0\n{row}\n0 2.0 2.0\n"


def test_load_model_reads_a_handwritten_knn(tmp_path):
    path = tmp_path / "knn.txt"
    path.write_text(_KNN.format(k=1, row="1 1.0 1.0"))
    labels, scores = predict_batch(load_model(path), np.array([[0.9, 0.9], [2.1, 2.1]]))
    assert labels.tolist() == [1, 0]
    assert scores.tolist() == [1.0, 0.0]


@pytest.mark.parametrize(
    "k, row",
    [
        (1, "7 1.0 1.0"),  # label outside {0, 1}
        (1, "-1 1.0 1.0"),
        (5, "1 1.0 1.0"),  # k above n
        (0, "1 1.0 1.0"),  # k below 1
        (2, "1 1.0 1.0"),  # even k: votes could tie
        (1, "1 1.0"),  # a row short of dims
        (1, "1 1.0 1.0 1.0"),  # a row past dims
        (1, "1 nan 1.0"),  # non-finite values
        (1, "1 1.0 inf"),
    ],
)
def test_load_model_rejects_malformed_knn(tmp_path, k, row):
    path = tmp_path / "bad.txt"
    path.write_text(_KNN.format(k=k, row=row))
    with pytest.raises(ValueError, match="malformed knn"):
        load_model(path)


@pytest.mark.parametrize(
    "text",
    [
        "maldoc-model v1\nkind knn\nseed 0\ndims 2\nk 1\nn 1000000000000\n0 0.0 0.0\n",
        "maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1\ntree 1000000000000\n-1 0.0 -1 -1 0.0\n",
        "maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1000000000000\ntree 1\n-1 0.0 -1 -1 0.0\n",
        "maldoc-model v1\nkind vec\nseed 0\ndims 2\nconstituents 1000000000000\n",
        "maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1\ntree -1\n-1 0.0 -1 -1 0.0\n",
    ],
    ids=["knn-n", "rf-tree", "rf-trees", "vec-constituents", "rf-negative-tree"],
)
def test_load_model_rejects_counts_the_file_cannot_hold(tmp_path, text):
    # checked before any allocation or loop, so a huge count cannot exhaust memory
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match="lines left"):
        load_model(path)


def test_failed_save_leaves_the_previous_model_file(tmp_path):
    rng = np.random.default_rng(16)
    knn = train_knn(make_blobs(rng, n=10), k=1)
    path = tmp_path / "model.txt"
    save_model(knn, path)
    before = path.read_bytes()
    # the knn part is written before the second constituent fails to serialize
    with pytest.raises(AttributeError):
        save_model(VecModel((knn, object())), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------- metrics

def test_accuracy():
    assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

