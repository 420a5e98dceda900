"""The block split search in ``ml._grow_tree`` against the per-candidate loop.

Both implementations grow trees from identically seeded generators; the node
arrays must match exactly and the generators must end in the same state, so
the order of random draws is checked along with the splits.
"""

import math

import numpy as np
import pytest

from maldoc.ml import LabeledSet, RfModel, _grow_tree, _rank_tables, save_model, train_rf
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


def test_block_split_search_matches_per_candidate_loop():
    mismatches = []
    for seed in range(N_CASES):
        X, y, k = _case(seed)
        rng_fast = np.random.Generator(np.random.PCG64(seed))
        rng_slow = np.random.Generator(np.random.PCG64(seed))
        fast = _grow_tree(_rank_tables(X, y), np.arange(y.size), rng_fast, k)
        slow = grow_tree_reference(X, y, rng_slow, k)
        if not _same_tree(fast, slow) or rng_fast.bit_generator.state != rng_slow.bit_generator.state:
            mismatches.append(seed)
    assert mismatches == []


@pytest.mark.parametrize("integer_valued", [True, False])
def test_train_rf_model_file_matches_a_forest_of_reference_trees(tmp_path, integer_valued):
    rng = np.random.default_rng(29)
    if integer_valued:
        X = rng.integers(0, 3, size=(80, 12)).astype(np.float64)
    else:
        X = rng.normal(size=(80, 12))
    score = X[:, 0] + X[:, 1] + rng.normal(scale=0.5, size=80)
    y = (score > np.median(score)).astype(np.int64)
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
