"""The block split search in ``ml._grow_tree`` against the per-candidate loop.

Both implementations grow trees from identically seeded generators; the node
arrays must match exactly and the generators must end in the same state, so
the order of random draws is checked along with the splits.  The families of
cases with a candidate that separates the labels check the path that splits
on it without a sort: its orientation, the first such candidate winning, and
thresholds between adjacent or signed-zero values, and trees that do not
depend on which signed zero the rank tables keep.  Roots of exactly
``GINI_TABLE_ROWS`` rows and of one more, and a forest on more rows than
the Gini table covers, check that the table and the direct terms give the
same splits, and every cell of the table, built in row blocks, is checked
against its row computed alone.  A root of 46,341 rows, whose cut
offsets pass int32, grows the reference tree.  Each tree of a forest, grown
into the forest's one node store, equals the tree grown alone into a store
of its own.  The model files of rf and vec forests trained on integer data keep
the SHA-256 digests recorded for them.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from maldoc import ml
from maldoc.ml import (
    GINI_TABLE_ROWS,
    LabeledSet,
    ModelSpec,
    RfModel,
    _grow_tree,
    _rank_tables,
    _store_trees,
    load_model,
    save_model,
    train_model,
    train_rf,
)
from oracles import grow_tree_reference

N_CASES = 240


def _case(seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Bootstrap-duplicated rows of tie-heavy or Gaussian data.

    Every tenth case has two rows; wider ones get a constant and a duplicated
    column; the candidate count cycles through 1, floor(sqrt(D)) and D.  The
    tie-heavy cases grow many impure nodes whose candidates are all constant.
    """
    rng = np.random.default_rng(seed)
    n = 2 if seed % 10 == 0 else int(rng.integers(3, 120))
    d = int(rng.integers(1, 40))
    if seed % 2:
        # small signed integers: many ties, and zeros of both signs
        X = rng.integers(0, 4, size=(n, d)) * rng.choice([-1.0, 1.0], size=(n, d))
    else:
        X = rng.normal(size=(n, d))
    if d >= 3:
        X[:, rng.integers(d)] = 1.5
        X[:, rng.integers(d)] = X[:, rng.integers(d)]
    y = rng.integers(0, 2, size=n)
    draw = rng.integers(0, n, size=n)
    k = (1, max(1, math.isqrt(d)), d)[seed % 3]
    return X[draw], y[draw], k


def _same_tree(a, b) -> bool:
    return all(
        getattr(a, name).dtype == getattr(b, name).dtype
        and np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("feature", "threshold", "left", "right", "value")
    )


def _grow_one(tables, draw, rng, k):
    """The tree ``_grow_tree`` grows on the rows ``draw`` into a fresh store."""
    store = ([], [], [], [])
    _grow_tree(tables, draw, rng, k, store)
    (tree,) = _store_trees(store, [0])
    return tree


def test_block_split_search_matches_per_candidate_loop():
    mismatches = []
    for seed in range(N_CASES):
        X, y, k = _case(seed)
        rng_fast = np.random.Generator(np.random.PCG64(seed))
        rng_slow = np.random.Generator(np.random.PCG64(seed))
        fast = _grow_one(_rank_tables(X, y), np.arange(y.size), rng_fast, k)
        slow = grow_tree_reference(X, y, rng_slow, k)
        if not _same_tree(fast, slow) or rng_fast.bit_generator.state != rng_slow.bit_generator.state:
            mismatches.append(seed)
    assert mismatches == []


def _grow_both(X, y, draw, k, seed):
    """(tree, tree) grown by ``_grow_tree`` and the reference on the rows ``draw``,
    after asserting that both generators end in the same state."""
    rng_fast = np.random.Generator(np.random.PCG64(seed))
    rng_slow = np.random.Generator(np.random.PCG64(seed))
    fast = _grow_one(_rank_tables(X, y), draw, rng_fast, k)
    slow = grow_tree_reference(X[draw], y[draw], rng_slow, k)
    assert rng_fast.bit_generator.state == rng_slow.bit_generator.state
    return fast, slow


def _first_draw(seed: int, d: int, k: int) -> np.ndarray:
    """The candidates a tree grown from ``seed`` samples at its root."""
    return np.random.Generator(np.random.PCG64(seed)).permutation(d)[:k]


def _noise(rng, n: int, d: int) -> np.ndarray:
    """Columns that separate no labels: each row's value is shared by a row
    of the other class, both classes counting n // 2 rows."""
    half = rng.integers(0, 3, size=(n // 2, d)).astype(np.float64)
    return np.concatenate((half, half))


@pytest.mark.parametrize("ones_below", [False, True])
def test_a_separating_column_splits_the_root_into_two_leaves(ones_below):
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, d = 40, 6
        y = np.repeat([0, 1], n // 2)
        X = _noise(rng, n, d)
        col = int(rng.integers(d))
        side = y == 0 if ones_below else y == 1  # the class above the cut
        X[:, col] = np.where(side, rng.uniform(1.0, 2.0, n), rng.uniform(-2.0, -1.0, n))
        draw = rng.integers(0, n, size=n)  # bootstrap-duplicated rows
        if y[draw].min() == y[draw].max():
            continue
        fast, slow = _grow_both(X, y, draw, d, seed)
        assert _same_tree(fast, slow), seed
        assert fast.feature.tolist() == [col, -1, -1]
        assert fast.value.tolist() == [0.0, float(ones_below), float(not ones_below)]


@pytest.mark.parametrize("n", [2, 9, 64])
def test_a_tree_of_one_leaf_per_row_grows_the_node_bound(n):
    # distinct values with alternating labels: every row ends in a leaf of
    # its own, so the tree has the 2n - 1 nodes that bound a tree of n rows
    X = np.arange(n, dtype=np.float64)[:, None]
    y = np.arange(n) % 2
    fast, slow = _grow_both(X, y, np.arange(n), 1, n)
    assert _same_tree(fast, slow)
    assert fast.feature.shape == (2 * n - 1,)
    assert np.count_nonzero(fast.feature == -1) == n


def test_of_two_opposite_separating_columns_the_first_drawn_wins():
    # column 0 puts the zeros below the cut, column 1 the ones; columns 2
    # and 3 separate nothing
    n, d, k = 30, 4, 3
    y = np.repeat([0, 1], n // 2)
    roots = set()
    for seed in range(24):
        rng = np.random.default_rng(seed)
        X = _noise(rng, n, d)
        X[:, 0] = y + rng.uniform(-0.25, 0.25, n)
        X[:, 1] = -X[:, 0]
        draw = np.concatenate((np.arange(n), rng.integers(0, n, size=n)))
        fast, slow = _grow_both(X, y, draw, k, seed)
        assert _same_tree(fast, slow), seed
        sampled = _first_draw(seed, d, k)
        separating = [int(c) for c in sampled if c < 2]
        if separating:
            assert fast.feature[0] == separating[0], seed
            assert fast.feature.size == 3
            roots.add((separating[0], sampled.tolist().index(separating[0]) > 0))
    # either column wins, and each also after a candidate that separates nothing
    assert roots == {(0, False), (0, True), (1, False), (1, True)}


def test_a_separating_candidate_drawn_late_beats_a_near_perfect_cut_drawn_before_it():
    # column 0 leaves a single row on the wrong side, scoring just above 0;
    # the separating column 1 scores exactly 0 and so must win wherever drawn
    n, d = 50, 8
    y = np.repeat([0, 1], n // 2)
    late = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        X = _noise(rng, n, d)
        X[:, 0] = y.astype(np.float64)
        X[0, 0] = 1.0
        X[:, 1] = np.where(y == 1, 3.0, rng.uniform(-1.0, 1.0, n))
        fast, slow = _grow_both(X, y, np.arange(n), d, seed)
        assert _same_tree(fast, slow), seed
        assert fast.feature[0] == 1 and fast.feature.size == 3, seed
        late += int(_first_draw(seed, d, d).tolist().index(1) > 0)
    assert late > 8


@pytest.mark.parametrize(
    "low, high",
    [
        ((-0.0, 0.0), (5e-324,)),  # the midpoint rounds to 0.0: the fallback cuts at hi
        ((1.0,), (np.nextafter(1.0, 2.0),)),  # the midpoint rounds to 1.0
        ((-5e-324,), (-0.0, 0.0)),  # the midpoint rounds to -0.0, strictly above lo
        ((1.0e308,), (1.7e308,)),  # the midpoint overflows
    ],
)
@pytest.mark.parametrize("ones_below", [False, True])
def test_separating_cuts_between_adjacent_or_signed_zero_values(low, high, ones_below):
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 24
        y = np.repeat([0, 1], n // 2)
        below = (y == 1) if ones_below else (y == 0)
        X = _noise(rng, n, 3)
        X[:, 2] = np.where(below, rng.choice(low, n), rng.choice(high, n))
        # a column of the same two values that separates nothing: a third
        # of its rows take the other class's value
        X[:, 1] = np.where(np.arange(n) % 3 == 0, X[::-1, 2], X[:, 2])
        draw = rng.integers(0, n, size=n)
        if y[draw].min() == y[draw].max():
            continue
        # with one candidate, column 1 alone is sometimes drawn, so the
        # sorted search meets the same pair of values
        fast, slow = _grow_both(X, y, draw, 1 + seed % 3, seed)
        assert _same_tree(fast, slow), seed
        on_pair = np.isin(fast.feature, (1, 2))
        assert all(low[0] < t <= high[0] for t in fast.threshold[on_pair]), seed


def _tree_bytes(tree) -> tuple[bytes, ...]:
    return tuple(getattr(tree, name).tobytes() for name in ("feature", "threshold", "left", "right", "value"))


def test_a_cut_next_to_a_zero_rank_does_not_depend_on_which_zero_the_tables_keep():
    # the argsort's order of equal values decides which of -0.0 and 0.0
    # sorts first and so is read at the zeros' rank; (+-0 + hi) / 2 and
    # (lo + +-0) / 2 round alike, and the fallback to hi never picks a zero,
    # so both grow one tree
    values = np.array([-1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0])
    thresholds = set()
    for seed in range(8):
        rng = np.random.default_rng(seed)
        X = rng.choice(values, size=(60, 4))
        y = rng.integers(0, 2, size=60)
        draw = rng.integers(0, 60, size=60)
        tables = _rank_tables(X, y)
        zeros = tables.ordered == 0
        assert zeros.any(axis=1).all()
        flipped = tables._replace(ordered=np.where(zeros, -tables.ordered, tables.ordered))
        rng_kept = np.random.Generator(np.random.PCG64(seed))
        rng_flipped = np.random.Generator(np.random.PCG64(seed))
        kept = _grow_one(tables, draw, rng_kept, 2)
        assert _tree_bytes(kept) == _tree_bytes(_grow_one(flipped, draw, rng_flipped, 2)), seed
        assert rng_kept.bit_generator.state == rng_flipped.bit_generator.state
        thresholds.update(float(t).hex() for t in kept.threshold[kept.feature >= 0])
    # cuts between -5e-324 and a zero (midpoint -0.0) and between a zero
    # and 5e-324 (midpoint 0.0, so the fallback to hi) both occurred
    assert {(-0.0).hex(), (5e-324).hex()} <= thresholds


@pytest.fixture
def direct_sizes(monkeypatch) -> list[np.ndarray]:
    """The side sizes of every ``_gini_terms`` call a node makes, in order."""
    ml._gini_table()  # built before the spy, so each call it sees is a node's
    sizes = []
    terms = ml._gini_terms

    def spy(side_sizes, ones):
        sizes.append(side_sizes)
        return terms(side_sizes, ones)

    monkeypatch.setattr(ml, "_gini_terms", spy)
    return sizes


@pytest.mark.parametrize("n", [GINI_TABLE_ROWS, GINI_TABLE_ROWS + 1])
def test_a_root_at_the_gini_table_edge_grows_the_reference_tree(n, direct_sizes):
    # a root of GINI_TABLE_ROWS rows reads every term from the table; one
    # more row and the root computes its terms, and every node below reads them
    for seed in range(3):
        rng = np.random.default_rng(seed)
        rows, d = 300, 12
        X = rng.normal(size=(rows, d))
        # small signed integers: ties, and zeros of both signs
        X[:, ::2] = rng.integers(0, 4, size=(rows, d // 2)) * rng.choice([-1.0, 1.0], size=(rows, d // 2))
        y = (X[:, 1] + rng.normal(size=rows) > 0).astype(np.int64)
        draw = rng.integers(0, rows, size=n)  # bootstrap-duplicated rows
        direct_sizes.clear()
        fast, slow = _grow_both(X, y, draw, math.isqrt(d), seed)
        assert _same_tree(fast, slow), seed
        assert fast.feature.size > 100, seed
        sides = [left + right for left, right in zip(direct_sizes[::2], direct_sizes[1::2])]
        assert [np.unique(size).tolist() for size in sides] == ([[n]] if n > GINI_TABLE_ROWS else []), seed


def _assert_train_rf_writes_reference_trees(tmp_path, X, y):
    data = LabeledSet(X, y, kind="test")
    seed = 404
    draws = np.random.Generator(np.random.PCG64(seed))
    trees = []
    for _ in range(5):
        draw = draws.integers(0, data.n, size=data.n)
        trees.append(
            grow_tree_reference(data.vectors[draw], data.labels[draw], draws, math.isqrt(data.dims))
        )
    save_model(RfModel(trees=tuple(trees), dims=data.dims, seed=seed), tmp_path / "reference.model")
    save_model(train_rf(data, n_trees=5, seed=seed), tmp_path / "fast.model")
    assert (tmp_path / "fast.model").read_bytes() == (tmp_path / "reference.model").read_bytes()


@pytest.mark.parametrize("integer_valued", [True, False])
def test_train_rf_model_file_matches_a_forest_of_reference_trees(tmp_path, integer_valued):
    rng = np.random.default_rng(29)
    if integer_valued:
        X = rng.integers(0, 3, size=(80, 12)).astype(np.float64)
    else:
        X = rng.normal(size=(80, 12))
    score = X[:, 0] + X[:, 1] + rng.normal(scale=0.5, size=80)
    y = (score > np.median(score)).astype(np.int64)
    _assert_train_rf_writes_reference_trees(tmp_path, X, y)


def test_train_rf_model_file_matches_reference_trees_on_separable_data(tmp_path):
    rng = np.random.default_rng(29)
    X = rng.normal(size=(80, 12))
    score = X[:, 0] + X[:, 1] + rng.normal(scale=0.5, size=80)
    # columns 2 and 3 each separate the labels, in opposite orientations
    X[:, 2], X[:, 3] = score, -score
    _assert_train_rf_writes_reference_trees(tmp_path, X, (score > np.median(score)).astype(np.int64))


@pytest.mark.parametrize("n_trees", [1, 2, 7])
def test_each_tree_of_a_forest_is_the_tree_grown_alone_from_its_draw(n_trees):
    # a forest grows every tree into one node store and slices it, so each
    # tree's children must count from that tree's own start
    for seed in range(4):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 4, size=(60, 9)) * rng.choice([-1.0, 1.0], size=(60, 9))
        y = (X[:, 0] + rng.integers(-2, 3, size=60) > 0).astype(np.int64)
        trees = train_rf(LabeledSet(X, y, kind="test"), n_trees=n_trees, seed=seed).trees
        assert len(trees) == n_trees and all(tree.feature.size > 3 for tree in trees), seed
        tables = _rank_tables(X, y)
        draws = np.random.Generator(np.random.PCG64(seed))
        for i, tree in enumerate(trees):
            draw = draws.integers(0, 60, size=60)
            assert _same_tree(tree, _grow_one(tables, draw, draws, 3)), (seed, i)


def test_a_forest_on_more_rows_than_the_gini_table_matches_the_reference(tmp_path, direct_sizes):
    # the root of every tree scores its cuts directly, and the nodes below
    # it, all of at most GINI_TABLE_ROWS rows, look their terms up
    rng = np.random.default_rng(32)
    n = GINI_TABLE_ROWS + 88
    X = rng.normal(size=(n, 9))
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.int64)
    _assert_train_rf_writes_reference_trees(tmp_path, X, y)
    # the direct terms came in (left, right) pairs, each of a node of over
    # GINI_TABLE_ROWS rows: every root, and a child that kept most of them
    sides = [left + right for left, right in zip(direct_sizes[::2], direct_sizes[1::2])]
    assert len(direct_sizes) % 2 == 0 and len(sides) >= 5
    assert all(np.unique(size).size == 1 and size[0] > GINI_TABLE_ROWS for size in sides)
    assert sorted(int(size[0]) for size in sides)[-5:] == [n] * 5
    # the many other splits read the table
    trees = load_model(tmp_path / "fast.model").trees
    assert sum(int((tree.feature >= 0).sum()) for tree in trees) > 10 * len(sides)


def test_a_node_whose_cut_offsets_pass_int32_grows_the_reference_tree():
    # a node of n rows above the table offsets its cuts at size * (n + 1) +
    # ones, past 2**31 - 1 from n = 46,341, and its running sum restarts at
    # the second candidate's first key
    rng = np.random.default_rng(46)
    n = 46_341
    X = rng.random((n, 4))
    # column 0 cuts the labels in two steps; a few flipped labels grow the tree
    y = ((X[:, 0] >= 0.3) & (X[:, 0] < 0.7)).astype(np.int64)
    y[rng.choice(n, size=40, replace=False)] ^= 1
    fast, slow = _grow_both(X, y, np.arange(n), 2, 46)
    assert _same_tree(fast, slow)
    assert fast.feature.size > 100 and fast.feature[0] == 0


def test_every_gini_table_cell_has_the_bits_of_its_row_computed_alone():
    # the table is filled a block of rows at a time; each operation is
    # elementwise and correctly rounded, so a block changes no bit
    width = GINI_TABLE_ROWS + 1
    table = ml._gini_table().reshape(width, width)
    span = np.arange(width)
    for s in range(1, width):
        assert table[s].tobytes() == ml._gini_terms(np.full(width, s), span).tobytes(), s


def test_the_gini_table_is_built_in_bounded_memory():
    # measured: 2.9 MB, the 2.1 MB table and one block's temporaries; built
    # in one call, with three temporaries the table's size, it took 8.1 MB
    ml._gini_table.cache_clear()
    tracemalloc.start()
    try:
        table = ml._gini_table()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == (GINI_TABLE_ROWS + 1) ** 2 * 8
    assert peak < 3.5 * 2**20, peak / 2**20


# SHA-256 of each model file below, recorded from an earlier build of the
# forest, so a change to any tree's bytes fails here, not only against the
# benchmark's references.  Integer inputs make every threshold a midpoint of
# two integers and every leaf value one correctly rounded division, so the
# bytes do not depend on the host's SIMD width or BLAS.
_PINNED_MODEL_SHA256 = {
    ("rf", 300): "4f2e5f51f46700ec7980b32c1e3c438c682a325430a4dd99f696555d28961ac1",
    ("vec", 300): "991c9c5660b5fc2188f28e5a5a469111d75202b4c83100eaa85912299c4caea5",
    ("rf", 700): "cd84988bcf1b608b455a49775d1e1e184cf6d765129d07718642299211a010ed",
    ("vec", 700): "5aeee14dc9dc788fa04589666f37abc0a2a92fac0cc6f9bea4c7ab0b042b22d7",
}


@pytest.mark.parametrize("rows", [300, 700])  # 700: every root scores its cuts directly
@pytest.mark.parametrize("spec", [ModelSpec("rf", n_trees=15), ModelSpec("vec", k=3, n_trees=11)])
def test_forest_model_files_keep_their_pinned_bytes(tmp_path, spec, rows):
    rng = np.random.default_rng(rows)
    # small signed integers: ties, and zeros of both signs
    X = rng.integers(0, 4, size=(rows, 24)) * rng.choice([-1.0, 1.0], size=(rows, 24))
    y = (X[:, 0] + X[:, 1] + rng.integers(-2, 3, size=rows) > 0).astype(np.int64)
    save_model(train_model(spec, LabeledSet(X, y, kind="test"), seed=rows), tmp_path / "m.model")
    digest = hashlib.sha256((tmp_path / "m.model").read_bytes()).hexdigest()
    assert digest == _PINNED_MODEL_SHA256[spec.kind, rows]
