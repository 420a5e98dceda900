"""Classifiers against brute-force oracles, fold hygiene, and persistence."""

import numpy as np
import pytest

from maldoc import DataError, ModelSpec
from maldoc.core import FLOAT_REPR_CHARS
from maldoc.ml import (
    CvReport,
    FeatureScaler,
    KnnModel,
    LabeledSet,
    RfModel,
    Tree,
    VecModel,
    accuracy,
    cross_validate_builder,
    load_model,
    predict_batch,
    save_model,
    stratified_folds,
    train_knn,
    train_model,
)

from maldoc import ml
from oracles import knn_bruteforce, knn_scores_one_block, model_bytes_reference, tree_scores_reference


def make_blobs(rng, n=60, d=5, gap=4.0):
    """Two well-separated Gaussian clouds."""
    half = n // 2
    x0 = rng.standard_normal((half, d))
    x1 = rng.standard_normal((n - half, d)) + gap
    x = np.vstack([x0, x1])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return LabeledSet(x, y, "blob")


def slicer(x):
    """A fold builder over a fixed matrix: each fold takes its rows of ``x``."""
    return lambda train_idx, test_idx: (x[train_idx], x[test_idx])


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
    """Query counts 1-100 against 4096 training rows of 12 tie-heavy dims,
    32 queries per block at the module's cap."""
    rng = np.random.default_rng(12)
    train = LabeledSet(rng.integers(0, 3, (4096, 12)).astype(float), rng.integers(0, 2, 4096), "r")
    model = train_knn(train, k=5)
    assert ml.KNN_BLOCK_ELEMENTS // 4096 == 32
    queries = rng.integers(0, 3, (100, 12)).astype(float)
    expected = knn_scores_one_block(model, queries)
    for q in range(1, 101):
        blocked = ml._knn_scores(model, queries[:q])
        assert blocked.tobytes() == expected[:q].tobytes(), q


@pytest.mark.parametrize("rows_per_block", [1, 3, 7])
def test_knn_small_blocks_match_one_block(monkeypatch, rows_per_block):
    # rows_per_block queries per Gram block, and rows_per_block * n // d
    # candidate pairs per difference chunk
    rng = np.random.default_rng(rows_per_block)
    for _ in range(20):
        n, d, q = (int(v) for v in rng.integers(3, 60, 3))
        train = LabeledSet(rng.standard_normal((n, d)), rng.integers(0, 2, n), "r")
        model = train_knn(train, k=3)
        queries = rng.standard_normal((q, d))
        monkeypatch.setattr(ml, "KNN_BLOCK_ELEMENTS", rows_per_block * n)
        blocked = ml._knn_scores(model, queries)
        assert blocked.tobytes() == knn_scores_one_block(model, queries).tobytes(), (n, d, q)


def _knn_case(rng, shape):
    """(training vectors, queries) of one seeded KNN oracle case."""
    n, d, q = (int(v) for v in rng.integers(3, 60, 3))
    if shape == "ties":  # small integers, half the rows repeated
        x = rng.integers(0, 3, (n, d)).astype(float)
        x[n // 2 :] = x[: n - n // 2]
        return x, rng.integers(0, 3, (q, d)).astype(float)
    x = rng.standard_normal((n, d))
    if shape == "rows":  # queries equal to training rows, then fresh ones
        return x, np.vstack([x[rng.integers(0, n, q)], rng.standard_normal((q, d))])
    if shape == "translated":  # the Gram form cancels to about 1e16 * u
        return x + 1e8, rng.standard_normal((q, d)) + 1e8
    scale = 10.0 ** rng.uniform(-8, 8)
    return x * scale, rng.standard_normal((q, d)) * scale


def test_knn_and_vec_match_the_one_block_oracle(monkeypatch):
    """2,000 seeded cases: predict_batch byte-equal to every row's exact distance."""
    rng = np.random.default_rng(14)
    for case in range(2000):
        shape = ("ties", "rows", "translated", "scaled")[case % 4]
        x, queries = _knn_case(rng, shape)
        y = rng.integers(0, 2, x.shape[0])
        y[:2] = (0, 1)
        k = min(int(rng.choice([1, 3, 5])), x.shape[0] - 1 + x.shape[0] % 2)
        # a quarter of the cases cross query blocks and difference chunks
        cap = int(rng.integers(x.shape[0], 16 * x.shape[0])) if case % 8 < 2 else 2**17
        monkeypatch.setattr(ml, "KNN_BLOCK_ELEMENTS", cap)
        knn = train_knn(LabeledSet(x, y, "r"), k=k)
        # a stump on the first dim, so both parts of the vote vary
        stump = Tree(np.array([0, -1, -1]), np.array([np.median(x[:, 0]), 0.0, 0.0]),
                     np.array([1, -1, -1]), np.array([2, -1, -1]), rng.uniform(0, 1, 3))
        model = VecModel(knn, RfModel(trees=(stump,), dims=x.shape[1], seed=0))
        expected = knn_scores_one_block(model.knn, queries)
        labels, scores = predict_batch(model.knn, queries)
        assert scores.tobytes() == expected.tobytes(), (case, shape, k)
        assert labels.tobytes() == (expected > 0.5).astype(np.int64).tobytes(), (case, shape)
        rf_scores = predict_batch(model.rf, queries)[1]
        labels, scores = predict_batch(model, queries)
        assert scores.tobytes() == np.mean((expected, rf_scores), axis=0).tobytes(), case
        vote = ((expected > 0.5) | (rf_scores >= 0.5)).astype(np.int64)
        assert labels.tobytes() == vote.tobytes(), case


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
    with pytest.raises(ValueError, match="at most the 6 training rows, got 7"):
        train_knn(train, k=7)


@pytest.mark.parametrize(
    "kind, params, match",
    [
        ("knn", {"k": 4}, "k must be odd and at least 1, got 4"),
        ("knn", {"k": 0}, "k must be odd and at least 1, got 0"),
        ("vec", {"k": -1}, "k must be odd and at least 1, got -1"),
        ("rf", {"n_trees": 0}, "n_trees must be at least 1, got 0"),
        ("vec", {"n_trees": 0}, "n_trees must be at least 1, got 0"),
        ("svm", {}, "unknown model kind 'svm'"),
    ],
)
def test_model_spec_checks_its_parameters(kind, params, match):
    with pytest.raises(ValueError, match=match):
        ModelSpec(kind, **params)


def test_model_spec_leaves_a_parameter_its_kind_does_not_use():
    assert ModelSpec("rf", k=4).k == 4  # as `cv --model rf --k 4` runs
    assert ModelSpec("knn", n_trees=0).n_trees == 0


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


@pytest.mark.parametrize("kind", ["knn", "rf", "vec"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_predict_batch_rejects_non_finite_queries(kind, bad):
    # an all-NaN query used to get the votes of training rows 0..k-1 from
    # KNN and an arbitrary leaf from the forest
    rng = np.random.default_rng(8)
    model = train_model(ModelSpec(kind, n_trees=5), make_blobs(rng, n=30), seed=1)
    queries = rng.standard_normal((6, 5))
    queries[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        predict_batch(model, queries)
    with pytest.raises(ValueError, match="finite"):
        predict_batch(model, np.full(5, np.nan))


def test_forest_score_is_tree_vote_fraction():
    rng = np.random.default_rng(5)
    data = make_blobs(rng, n=30, gap=8.0)
    model = train_model(ModelSpec("rf", n_trees=11), data, seed=1)
    _, scores = predict_batch(model, data.vectors)
    # scores are multiples of 1/11
    assert np.allclose(scores * 11, np.round(scores * 11), atol=1e-12)


# ---------------------------------------------------------------- ensemble

def test_ensemble_tie_votes_malware():
    # with an even vote split the ensemble must fail safe toward malware
    x = np.array([[0.0], [10.0]])
    says_malware = train_knn(LabeledSet(x, np.array([1, 0]), "t"), k=1)
    leaf = np.array([-1], dtype=np.int32)
    says_clean = RfModel((Tree(leaf, np.zeros(1), leaf, leaf, np.zeros(1)),), dims=1, seed=0)
    m = VecModel(says_malware, says_clean, seed=0)
    q = np.array([2.0])
    assert predict_batch(says_malware, q)[0].tolist() == [1]
    assert predict_batch(says_clean, q)[0].tolist() == [0]
    labels, scores = predict_batch(m, q)
    assert labels.tolist() == [1]
    assert scores[0] == pytest.approx(0.5)


def test_knn_with_an_even_k_votes_a_split_neighbourhood_malware():
    # ModelSpec and load_model refuse an even k, but train_knn takes one: a
    # 1-1 vote of its nearest rows goes to malware, as a vec's split vote does
    x = np.array([[0.0], [1.0], [10.0]])
    model = train_knn(LabeledSet(x, np.array([1, 0, 0]), "t"), k=2)
    labels, scores = predict_batch(model, np.array([0.5]))
    assert labels.tolist() == [1]
    assert scores.tolist() == [0.5]


def test_ensemble_score_is_mean_vote():
    rng = np.random.default_rng(7)
    data = make_blobs(rng, n=40)
    m = VecModel(train_knn(data, k=3), train_model(ModelSpec("rf", n_trees=9), data), seed=0)
    q = rng.standard_normal((10, 5)) + 2.0  # between the blobs, where the parts disagree
    _, scores = predict_batch(m, q)
    parts = np.stack([predict_batch(m.knn, q)[1], predict_batch(m.rf, q)[1]])
    assert np.allclose(scores, parts.mean(axis=0))


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
    rep = cross_validate_builder(data.labels, slicer(data.vectors), ModelSpec("knn", k=3), "blob", folds=10, seed=0)
    assert rep.mean_accuracy == 1.0
    assert len(rep.fold_accuracies) == 10
    assert rep.dims == 5


def test_cross_validate_random_labels_near_chance():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((100, 4))
    y = rng.integers(0, 2, 100)
    rep = cross_validate_builder(y, slicer(x), ModelSpec("knn", k=5), "noise", folds=10, seed=0)
    assert 0.30 <= rep.mean_accuracy <= 0.70


def test_cv_report_validation():
    with pytest.raises(ValueError, match="mean"):
        CvReport(fold_accuracies=(1.0, 0.0), mean_accuracy=0.9, model_kind="knn", feature_kind="t", seed=0, dims=1)
    with pytest.raises(ValueError, match="two folds"):
        CvReport(fold_accuracies=(1.0,), mean_accuracy=1.0, model_kind="knn", feature_kind="t", seed=0, dims=1)


def test_cross_validate_rejects_single_fold():
    rng = np.random.default_rng(13)
    data = make_blobs(rng, n=20)
    with pytest.raises(ValueError, match="two folds"):
        cross_validate_builder(data.labels, slicer(data.vectors), ModelSpec("knn", k=1), "blob", folds=1)


# ---------------------------------------------------------------- persistence

@pytest.mark.parametrize("spec", [ModelSpec("knn", k=3), ModelSpec("rf", n_trees=13), ModelSpec("vec")])
def test_model_round_trip(tmp_path, spec):
    rng = np.random.default_rng(14)
    data = make_blobs(rng, n=40)
    model = train_model(spec, data, seed=5)
    path = tmp_path / "model.txt"
    save_model(model, path)
    assert path.read_bytes() == model_bytes_reference(model)
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
    with pytest.raises(DataError):
        load_model(path)


_STUMP = "maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1\ntree 3\n{root}\n-1 0.0 -1 -1 0.0\n-1 0.0 -1 -1 1.0\n"


def test_load_model_rejects_a_non_ascii_byte_past_the_model(tmp_path):
    # a model file is ASCII and ends at its model; the decoder reads ahead of
    # the lines, so it meets this byte first
    path = tmp_path / "stump.txt"
    path.write_bytes(_STUMP.format(root="1 0.5 1 2 0.0").encode() + b"\xff\n")
    with pytest.raises(DataError, match="'ascii' codec can't decode byte 0xff"):
        load_model(path)


@pytest.mark.parametrize("tail", [b"# a note\n", b"\n", b"x"])
def test_load_model_refuses_any_line_past_the_model(tmp_path, tail):
    # the reader that read the bytes past the model refused only a non-ASCII one
    rng = np.random.default_rng(16)
    path = tmp_path / "model.txt"
    save_model(train_model(ModelSpec("vec", k=3, n_trees=2), make_blobs(rng, n=20), seed=1), path)
    raw = path.read_bytes()
    path.write_bytes(raw + tail)
    past = len(raw.splitlines()) + 1
    with pytest.raises(DataError, match=f"^model file line {past} is past the end of the model$"):
        load_model(path)


def test_load_model_reads_a_handwritten_stump(tmp_path):
    path = tmp_path / "stump.txt"
    path.write_text(_STUMP.format(root="1 0.5 1 2 0.0"))
    model = load_model(path)
    queries = np.array([[0.0, 0.0], [0.0, 1.0], [9.0, 0.5]])
    labels, scores = predict_batch(model, queries)
    assert labels.tolist() == [0, 1, 1]
    assert scores.tobytes() == tree_scores_reference(model.trees[0], queries).tobytes()
    with pytest.raises(ValueError, match="finite"):
        predict_batch(model, np.array([0.0, np.nan]))


def test_load_model_rejects_a_forest_without_trees(tmp_path):
    # loaded, it would score every query benign: (0, nan)
    path = tmp_path / "bad.txt"
    path.write_text("maldoc-model v1\nkind rf\nseed 0\ndims 3\ntrees 0\n")
    with pytest.raises(DataError, match="malformed rf in model file: "):
        load_model(path)


@pytest.mark.parametrize(
    "root",
    [
        "1 0.5 0 2 0.0",  # self-loop: scoring would never reach a leaf
        "1 0.5 1 3 0.0",  # child past the last node
        "2 0.5 1 2 0.0",  # feature past the model's dims
        "1 0.5 1 -1 0.0",  # one child missing
        "1 0.5 1 2 1.5",  # value outside [0, 1]
        "1099511627776 0.5 1 2 0.0",  # feature past int32
        "1 nan 1 2 0.0",  # a NaN threshold would send every query right
        "1 inf 1 2 0.0",  # training writes only finite thresholds
    ],
)
def test_load_model_rejects_malformed_trees(tmp_path, root):
    path = tmp_path / "bad.txt"
    path.write_text(_STUMP.format(root=root))
    with pytest.raises(DataError, match="malformed tree"):
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
    with pytest.raises(DataError, match="malformed knn"):
        load_model(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("maldoc-model v1\nkind knn\nseed 0\ndims 2\nk 1\nn 1000000000000\n0 0.0 0.0\n", "^truncated model file$"),
        ("maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1\ntree 1000000000000\n-1 0.0 -1 -1 0.0\n", "^truncated model file$"),
        ("maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1000000000000\ntree 1\n-1 0.0 -1 -1 0.0\n", "^truncated model file$"),
        ("maldoc-model v1\nkind vec\nseed 0\ndims 2\nconstituents 1000000000000\n", "^malformed "),
        ("maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1\ntree -1\n-1 0.0 -1 -1 0.0\n", "^malformed "),
    ],
    ids=["knn-n", "rf-tree", "rf-trees", "vec-constituents", "rf-negative-tree"],
)
def test_load_model_rejects_counts_the_file_cannot_hold(tmp_path, text, message):
    # nothing is allocated from a count: rows are read as they come, so a
    # count past the rows that follow ends at the end of the file, and a
    # negative one fails its kind's own check (k in [1, n], trees at
    # least 1, a tree of at least one node, constituents 2)
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=message):
        load_model(path)


_VEC = "maldoc-model v1\nkind vec\nseed 0\ndims {dims}\nconstituents 2\n"
_ONE_ROW_KNN = "maldoc-model v1\nkind knn\nseed 0\ndims {dims}\nk 1\nn 1\n0{row}\n"
_ONE_LEAF_RF = "maldoc-model v1\nkind rf\nseed 0\ndims 2\ntrees 1\ntree 1\n-1 0.0 -1 -1 0.0\n"


@pytest.mark.parametrize(
    "text",
    [
        _ONE_ROW_KNN.format(dims=10**12, row=" 0.0"),
        _ONE_ROW_KNN.format(dims=10**30, row=" 0.0"),  # a line cap past what readline takes
        _VEC.format(dims=2) * 3000,
        _VEC.format(dims=7)
        + _ONE_ROW_KNN.format(dims=1, row=" 0.0")
        + _ONE_ROW_KNN.format(dims=2, row=" 0.0 0.0"),
        _ONE_LEAF_RF.replace("dims 2", "dims 0"),  # train_rf refuses a forest without features
        _ONE_LEAF_RF.replace("dims 2", "dims -3"),
        _ONE_LEAF_RF.replace("trees 1", "trees -1"),
        _ONE_ROW_KNN.format(dims=1, row=" 0.0").replace("n 1", "n -1"),
    ],
    ids=[
        "knn-huge-dims", "knn-dims-past-readline", "nested-vec", "vec-dims-mismatch", "rf-dims-0", "rf-negative-dims",
        "rf-negative-trees", "knn-negative-n",
    ],
)
def test_load_model_rejects_malformed_headers(tmp_path, text):
    # a reader that preallocates from dims, recurses into constituents or
    # takes a vec's dims from its first constituent would meet these with a
    # MemoryError, a RecursionError or a silent load
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError, match="^malformed "):
        load_model(path)


@pytest.mark.parametrize(
    "text, message",
    [
        ("maldoc-model v1\nkind rf\nseed " + "1" * 300 + "\n", "model file line 3 is over 256 characters"),
        (_ONE_LEAF_RF.replace("-1 0.0 -1 -1 0.0", "-1 0.0 -1 -1 0." + "0" * 300), "model file line 7 is over 256 characters"),
        (_ONE_ROW_KNN.format(dims=20, row=" 0.0" * 20 + "0" * 500), "model file line 7 is over 564 characters"),
    ],
    ids=["head", "tree-node", "knn-row"],
)
def test_load_model_refuses_a_line_over_its_cap(tmp_path, text, message):
    # 256 characters until dims is read, then also 64 plus 25 per dimension
    path = tmp_path / "long.txt"
    path.write_text(text)
    with pytest.raises(DataError, match=f"^{message}$"):
        load_model(path)


def test_load_model_reads_a_knn_row_at_its_cap(tmp_path):
    row = " 0.0" * 19 + " 1.0"
    path = tmp_path / "knn.txt"
    for pad, loads in ((564 - len(row), True), (565 - len(row), False)):  # the line is "0" and the row
        path.write_text(_ONE_ROW_KNN.format(dims=20, row=row.replace("1.0", "1." + "0" * pad)))
        if loads:
            assert load_model(path).vectors.tolist() == [[0.0] * 19 + [1.0]]
        else:
            with pytest.raises(DataError, match="^model file line 7 is over 564 characters$"):
                load_model(path)


def test_load_model_reads_knn_rows_of_the_longest_reprs(tmp_path):
    value = -2.2250738585072014e-308
    assert len(repr(value)) == FLOAT_REPR_CHARS
    model = KnnModel(k=1, vectors=np.full((2, 320), value), labels=np.array([0, 1]))
    save_model(model, tmp_path / "knn.txt")
    rows = (tmp_path / "knn.txt").read_text().splitlines()[-2:]
    assert [len(row) for row in rows] == [1 + (FLOAT_REPR_CHARS + 1) * 320] * 2
    assert load_model(tmp_path / "knn.txt").vectors.tobytes() == model.vectors.tobytes()


@pytest.mark.parametrize("parts", [("knn", "rf", "knn"), ("rf", "knn"), ("rf", "rf")])
def test_load_model_rejects_a_vec_that_is_not_a_knn_then_a_forest(tmp_path, parts):
    body = {"knn": _ONE_ROW_KNN.format(dims=2, row=" 0.0 0.0"), "rf": _ONE_LEAF_RF}
    head = "maldoc-model v1\nkind vec\nseed 0\ndims 2\nconstituents {}\n"
    path = tmp_path / "vec.txt"
    path.write_text(head.format(2) + body["knn"] + body["rf"])
    assert isinstance(load_model(path), VecModel)
    path.write_text(head.format(len(parts)) + "".join(body[p] for p in parts))
    with pytest.raises(DataError, match="^malformed vec"):
        load_model(path)


@pytest.mark.parametrize("line_end", [b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1e"], ids=["CR", "CRLF", "VT", "FF", "RS"])
def test_load_model_splits_lines_as_splitlines_does(tmp_path, line_end):
    # the reader takes a file's lines one at a time and ends them where
    # iterating the file does: at CR and CRLF, as str.splitlines also does,
    # but not at the other breaks str.splitlines knows (VT, FF, RS), which
    # leave the whole file one line, over its cap
    rng = np.random.default_rng(17)
    path = tmp_path / "model.txt"
    save_model(train_model(ModelSpec("vec", n_trees=3), make_blobs(rng, n=20), seed=1), path)
    lf = path.read_bytes()
    path.write_bytes(lf.replace(b"\n", line_end))
    if line_end not in (b"\r", b"\r\n"):
        with pytest.raises(DataError, match="^model file line 1 is over 256 characters$"):
            load_model(path)
        return
    save_model(load_model(path), path)
    assert path.read_bytes() == lf


def test_failed_save_leaves_the_previous_model_file(tmp_path):
    rng = np.random.default_rng(16)
    knn = train_knn(make_blobs(rng, n=10), k=1)
    path = tmp_path / "model.txt"
    save_model(knn, path)
    before = path.read_bytes()
    # the knn part is written before the second constituent fails to serialize
    with pytest.raises(KeyError):
        save_model(VecModel(knn, object()), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


# ---------------------------------------------------------------- metrics

def test_accuracy():
    assert accuracy(np.array([1, 0, 1]), np.array([1, 1, 1])) == pytest.approx(2 / 3)

