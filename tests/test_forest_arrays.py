"""The per-forest rank tables and the stacked forest scorer.

Training reads each column through its rank table, so the tables must order
rows exactly as their values compare.  Scoring walks every tree at once; its
scores must match the one-node-at-a-time walk bit for bit.
"""

import numpy as np
import pytest

from maldoc.ml import LabeledSet, RfModel, Tree, _rank_tables, predict_batch, train_rf
from oracles import tree_scores_reference


def _reference(model: RfModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scores = np.mean([tree_scores_reference(t, queries) for t in model.trees], axis=0)
    return (scores >= 0.5).astype(np.int64), scores


def _assert_same_scores(model: RfModel, queries: np.ndarray) -> None:
    labels, scores = predict_batch(model, queries)
    ref_labels, ref_scores = _reference(model, queries)
    assert scores.shape == ref_scores.shape == (queries.shape[0],)
    assert scores.tobytes() == ref_scores.tobytes()
    assert labels.tobytes() == ref_labels.tobytes()


def test_rank_tables_on_signed_zeros_constant_and_duplicated_columns():
    zeros = np.array([0.0, -0.0, 2.5, -0.0, -1.0, 0.0, 2.5, -1.0])
    X = np.stack([zeros, np.full(8, 3.0), zeros, -zeros], axis=1)
    y = np.array([1, 0, 0, 1, 1, 0, 1, 0])
    tables = _rank_tables(X, y)

    assert tables.keys.dtype == np.int32 and tables.keys.shape == (4, 8)
    assert (tables.keys & 1 == y).all()
    assert (tables.labels == y.astype(bool)).all()
    ranks = tables.keys >> 1
    # both zeros share one rank; -1.0 < 0 < 2.5 get the ranks 0, 2, 6, the
    # sorted positions of their first copies
    assert ranks[0].tolist() == [2, 2, 6, 2, 0, 2, 6, 0]
    assert tables.ordered[0, [0, 2, 6]].tolist() == [-1.0, 0.0, 2.5]
    # a constant column is one rank; a duplicated column gets the same tables
    assert (ranks[1] == 0).all() and tables.ordered[1, 0] == 3.0
    assert (tables.keys[2] == tables.keys[0]).all()
    assert tables.ordered[2].tobytes() == tables.ordered[0].tobytes()
    # each rank's value compares equal to the row's value
    for d in range(4):
        assert (tables.ordered[d, ranks[d]] == X[:, d]).all()
        same = X[:, d][:, None] == X[:, d][None, :]
        below = X[:, d][:, None] < X[:, d][None, :]
        assert ((ranks[d][:, None] == ranks[d][None, :]) == same).all()
        assert ((ranks[d][:, None] < ranks[d][None, :]) == below).all()


def test_rank_tables_refuse_keys_past_int32():
    # 2 * 2**30 + 1 does not fit the int32 keys; a zero-width matrix costs nothing
    with pytest.raises(ValueError, match="at most"):
        _rank_tables(np.empty((2**30, 0)), np.empty(0, dtype=np.int64))


def _gaussian(rng, n, d):
    X = rng.normal(size=(n, d))
    return X, (X[:, 0] + rng.normal(scale=0.7, size=n) > 0).astype(np.int64)


def _tie_heavy(rng, n, d):
    X = rng.integers(0, 3, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    return X, rng.integers(0, 2, size=n)


@pytest.mark.parametrize("make", [_gaussian, _tie_heavy])
@pytest.mark.parametrize("n_queries", [0, 1, 57])
def test_stacked_scores_match_the_per_tree_walk(make, n_queries):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X, y = make(rng, int(rng.integers(20, 90)), int(rng.integers(1, 25)))
        y[:2] = (0, 1)
        model = train_rf(LabeledSet(X, y, "t"), n_trees=int(rng.integers(1, 30)), seed=seed)
        # training rows sit on the split values' sides; fresh rows anywhere
        fresh = make(rng, n_queries, X.shape[1])[0]
        queries = np.vstack([X[: n_queries // 2], fresh[n_queries // 2 :]])
        _assert_same_scores(model, queries)


@pytest.mark.parametrize("make", [_gaussian, _tie_heavy])
def test_grown_trees_are_numbered_in_preorder(make):
    # scoring's walk ends because every child comes after its parent; the
    # trainer sets each inner node's left child to the next node
    for seed in range(6):
        rng = np.random.default_rng(seed)
        X, y = make(rng, int(rng.integers(20, 90)), int(rng.integers(1, 25)))
        y[:2] = (0, 1)
        for tree in train_rf(LabeledSet(X, y, "t"), n_trees=8, seed=seed).trees:
            node = np.arange(tree.feature.size)
            inner = tree.feature >= 0
            assert (tree.left[inner] == node[inner] + 1).all()
            assert (tree.right[inner] > node[inner] + 1).all()
            assert (tree.left[~inner] == -1).all() and (tree.right[~inner] == -1).all()


def test_single_leaf_trees_score_without_reading_a_column():
    # constant columns: every tree is one impure leaf, the walk takes no step
    X = np.full((12, 3), 7.0)
    model = train_rf(LabeledSet(X, np.array([0, 1, 1] * 4), "t"), n_trees=5, seed=1)
    assert all(t.feature.tolist() == [-1] for t in model.trees)
    _assert_same_scores(model, np.array([[7.0, 0.0, -1.0], [8.0, 9.0, 10.0]]))


def test_a_forest_mixing_leaves_and_deep_trees():
    leaf = Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.zeros(1),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        value=np.array([1.0]),
    )
    rng = np.random.default_rng(3)
    X, y = _gaussian(rng, 80, 6)
    grown = train_rf(LabeledSet(X, y, "t"), n_trees=4, seed=2).trees
    model = RfModel(trees=(leaf,) + grown + (leaf,), dims=6, seed=0)
    queries = rng.normal(size=(33, 6))
    queries[0, :] = 1e300  # below no threshold: every tree goes right
    _assert_same_scores(model, queries)


def test_a_tree_whose_nodes_share_children_scores_in_linear_time():
    # a model file may chain 200 nodes whose two children are the same next
    # node: 2**199 root-to-leaf paths, each walk 199 steps
    n = 200
    inner = np.arange(n - 1)
    tree = Tree(
        feature=np.append(np.zeros(n - 1, dtype=np.int32), -1).astype(np.int32),
        threshold=np.full(n, 0.5),
        left=np.append(inner + 1, -1).astype(np.int32),
        right=np.append(inner + 1, -1).astype(np.int32),
        value=np.append(np.zeros(n - 1), 1.0),
    )
    model = RfModel(trees=(tree,), dims=1, seed=0)
    assert np.flatnonzero(model._stacked[-1]).tolist() == [n - 1]  # the leaf mask
    _assert_same_scores(model, np.array([[0.0], [1.0]]))
