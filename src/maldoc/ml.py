"""Classifiers and the stratified cross-validation harness.

Everything here is binary (benign=0, malware=1) and deterministic: KNN
breaks distance ties by the lower training index, the forest draws all of
its randomness from one seeded PCG64 generator in a fixed order, and the
voting ensemble resolves a split vote toward malware (the fail-safe
direction for a detector).

Standardization statistics are fit on training rows only; the harness never
lets a held-out row touch them.

Forest training sorts each column of the training matrix once per forest,
into rank tables of about 12 bytes per training cell (int32 keys of twice
the dense rank plus the label, and each column's distinct values), freed
with the forest when training returns.  A split then sorts small integer
keys instead of floats, and sends rows to its children by rank.  The keys
must fit int32: 2N + 1 < 2**31 for N training rows, and a larger training
set is a ValueError.
Forest scoring stacks the trees into flat node arrays once per model and
moves all (tree, query) pairs one depth level per step.

Transient memory is bounded by the training set and the (tree, query) count,
not by the forest's node count.  Each tree grows from its bootstrap draw as
row indices into the rank tables, so no tree copies its rows, and from an
explicit stack, so growth makes no reference cycle that would hold a tree's
arrays until the cyclic collector runs.  No KNN array holds more than
KNN_BLOCK_ELEMENTS floats: queries x rows of the Gram block, or pairs x dims
of the differences.

KNN filters, then refines.  Write u = 2**-53, D for the dims and
N = |q|^2 + |x|^2 for a query q and a row x.  The Gram form
a = |q|^2 + |x|^2 - 2 q.x comes from one matrix product per block of
queries.  The exact distance e, the one that ranks, sums the squared
differences.  Both estimate t = |q - x|^2 <= 2N:

- a sum of D products, in any order and with or without fused
  multiply-adds, errs by at most D u times the sum of the products'
  magnitudes (Higham, Accuracy and Stability, section 3.1).  The two norms
  thus err by D u N together and 2 q.x by D u N; the two additions add
  u per intermediate, each at most 2N.  So |a - t| <= (2D + 4) u N.
- each term of e holds three roundings (difference, square) and their sum
  D - 1 more, so |e - t| <= (D + 2) u t <= (2D + 4) u N.
- an underflowing product may also lose 2**-1075 outright; at most 5D
  products touch one pair.

So |a - e| <= S = c (D + 3) (u (|q|^2 + max |x|^2) + 2**-1074) with c = 4,
up to terms in (D u)^2; the code takes c = 8 so that the norms, the
maximum and S itself may be computed in floating point.  Let tau be the
k-th smallest a of a query.  Its k rows with a <= tau have e <= tau + S, so
the k-th smallest e is at most tau + S, and every row with an e that small
has a <= tau + 2S.  Every row with a <= tau + 2S is a candidate; ranking the
candidates alone by (e, row index) picks the rows, in the order, that a
stable sort of every e would pick.  Where 4 (|q|^2 + max |x|^2) overflows,
some distance may overflow too; S is then infinite and every row is a
candidate.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, IO, NamedTuple, Union

import numpy as np

from .core import DataError, atomic_write, read_regular

DEFAULT_KNN_K = 3
DEFAULT_RF_TREES = 100
DEFAULT_FOLDS = 10
MODEL_KINDS = ("knn", "rf", "vec")
KNN_BLOCK_ELEMENTS = 2**17  # cap on one KNN block array, in floats (1 MiB)
_KNN_SLACK = 8.0  # c in the module docstring's bound; 4 suffices in exact arithmetic


def _as_matrix(x: np.ndarray) -> np.ndarray:
    """``x`` as a float64 matrix; a single row becomes a 1-row matrix."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected a vector or matrix, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class LabeledSet:
    """Feature matrix with binary labels and the feature kind that built it."""

    vectors: np.ndarray
    labels: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        vecs = np.ascontiguousarray(self.vectors, dtype=np.float64)
        labs = np.ascontiguousarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "labels", labs)
        if vecs.ndim != 2:
            raise ValueError("vectors must be a 2-D matrix")
        if labs.shape != (vecs.shape[0],):
            raise ValueError("one label per row required")
        if vecs.shape[0] < 2:
            raise ValueError("a labeled set needs at least two samples")
        if not np.isin(labs, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        if not np.isfinite(vecs).all():
            raise ValueError("vectors must be finite")

    @property
    def n(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def dims(self) -> int:
        return int(self.vectors.shape[1])


@dataclass(frozen=True)
class FeatureScaler:
    """Per-dimension z-scoring with zero-variance dimensions pinned to 0."""

    mean: np.ndarray
    scale: np.ndarray  # reciprocal std, 0 where the training std was 0

    @classmethod
    def fit(cls, matrix: np.ndarray) -> "FeatureScaler":
        matrix = _as_matrix(matrix)
        mean = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        scale = np.divide(1.0, std, out=np.zeros_like(std), where=std > 0.0)
        return cls(mean=mean, scale=scale)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        matrix = _as_matrix(matrix)
        if matrix.shape[1] != self.mean.shape[0]:
            raise ValueError("scaler dimensionality mismatch")
        return (matrix - self.mean) * self.scale


# --------------------------------------------------------------------------
# models


@dataclass(frozen=True)
class KnnModel:
    k: int
    vectors: np.ndarray
    labels: np.ndarray
    seed: int = 0

    @property
    def dims(self) -> int:
        return int(self.vectors.shape[1])

    @cached_property
    def _norms(self) -> np.ndarray:
        """Each row's squared norm, for the Gram form of the distances."""
        return np.einsum("nd,nd->n", self.vectors, self.vectors)


@dataclass(frozen=True)
class Tree:
    """Flat node arrays; feature == -1 marks a leaf, value its class fraction."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray


@dataclass(frozen=True)
class RfModel:
    trees: tuple[Tree, ...]
    dims: int
    seed: int

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int]:
        """Every tree in flat node arrays, for scoring the forest at once.

        Returns (feature, threshold, child, value, roots, depth).  Node i's
        children are ``child[2 * i]`` (right) and ``child[2 * i + 1]``
        (left, taken when the query is below the threshold); a leaf is its
        own child and reads feature 0, so ``depth`` steps from the roots
        bring every query to its leaf.
        """
        sizes = [t.feature.shape[0] for t in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        base = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in self.trees])
        leaf = feature < 0
        own = np.arange(feature.shape[0])
        left = np.where(leaf, own, np.concatenate([t.left for t in self.trees]) + base)
        right = np.where(leaf, own, np.concatenate([t.right for t in self.trees]) + base)
        # the longest root-to-leaf path; a model file may share a child
        # between nodes, so each level holds every node at most once
        depth = 0
        frontier = roots
        while (frontier := frontier[~leaf[frontier]]).size:
            frontier = np.unique(np.concatenate((left[frontier], right[frontier])))
            depth += 1
        return (
            np.where(leaf, 0, feature),
            np.concatenate([t.threshold for t in self.trees]),
            np.stack((right, left), axis=1).ravel(),
            np.concatenate([t.value for t in self.trees]),
            roots,
            depth,
        )


@dataclass(frozen=True)
class VecModel:
    """The voting ensemble: one KNN and one forest on the same features."""

    knn: KnnModel
    rf: RfModel
    seed: int = 0

    @property
    def dims(self) -> int:
        return self.knn.dims


Model = Union[KnnModel, RfModel, VecModel]


def _require_both_classes(labels: np.ndarray) -> None:
    if labels.min() == labels.max():
        raise ValueError("training data must contain both classes")


def train_knn(data: LabeledSet, k: int = DEFAULT_KNN_K) -> KnnModel:
    """Store the training set; all the work happens at query time."""
    if k < 1 or k > data.n:
        raise ValueError(f"k must be in [1, {data.n}], got {k}")
    if k % 2 == 0:
        raise ValueError("k must be odd so votes cannot tie")
    _require_both_classes(data.labels)
    return KnnModel(k=k, vectors=data.vectors.copy(), labels=data.labels.copy())


def _knn_scores(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """The malware fraction among each query's k nearest rows.

    Filter, then refine: the Gram form picks the candidates and the exact
    squared distances, taken as ``einsum`` over the differences, rank them.
    The nearest are the k first by (exact distance, row index), as with a
    stable sort of every row's exact distance.  See the module docstring
    for the bound that keeps every such row a candidate.
    """
    vectors, norms = model.vectors, model._norms
    n, d, k = vectors.shape[0], model.dims, model.k
    max_norm = norms.max()
    scores = np.empty(queries.shape[0], dtype=np.float64)
    step = max(1, KNN_BLOCK_ELEMENTS // n)  # queries per (query, row) block
    pairs_step = max(1, KNN_BLOCK_ELEMENTS // max(1, d))  # pairs per difference chunk
    for lo in range(0, queries.shape[0], step):
        block = queries[lo : lo + step]
        q_norms = np.einsum("qd,qd->q", block, block)
        approx = block @ vectors.T
        approx *= -2.0
        approx += norms
        approx += q_norms[:, None]
        tau = np.partition(approx, k - 1, axis=1)[:, k - 1]
        reach = 4.0 * (q_norms + max_norm)  # inf where a distance may overflow
        slack = _KNN_SLACK * (d + 3) * (2.0**-55 * reach + 2.0**-1074)
        # NaN compares false, so a NaN row or a NaN bound keeps its rows
        at, rows = np.nonzero(~(approx > (tau + 2.0 * slack)[:, None]))
        exact = np.empty(rows.shape[0], dtype=np.float64)
        for p in range(0, rows.shape[0], pairs_step):
            diffs = block[at[p : p + pairs_step]]
            diffs -= vectors[rows[p : p + pairs_step]]
            exact[p : p + pairs_step] = np.einsum("qnd,qnd->qn", diffs[None], diffs[None])[0]
        # lexsort is stable, so equal distances keep the lower row index first
        order = np.lexsort((exact, at))
        starts = np.searchsorted(at, np.arange(block.shape[0]))
        nearest = rows[order[starts[:, None] + np.arange(k)]]
        scores[lo : lo + block.shape[0]] = model.labels[nearest].mean(axis=1)
    return scores


class _RankTables(NamedTuple):
    """One training set's columns, candidate-major (D x N), for growing a forest."""

    keys: np.ndarray  # int32 2 * dense rank + label; equal values share a rank
    distinct: np.ndarray  # each column's distinct values ascending, from the left
    labels: np.ndarray  # bool, one per training row


def _rank_tables(X: np.ndarray, y: np.ndarray) -> _RankTables:
    """Sort every column of ``(X, y)`` once, for all the splits of a forest."""
    n = X.shape[0]
    if 2 * n + 1 >= 2**31:
        raise ValueError(f"a forest trains on at most {2**30 - 1} rows, got {n}")
    values = np.ascontiguousarray(X.T)
    order = values.argsort(axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    # dense rank in sorted order: -0.0 == 0.0, so both zeros share one
    dense = np.zeros(values.shape, dtype=np.int32)
    np.cumsum(ordered[:, 1:] != ordered[:, :-1], axis=1, dtype=np.int32, out=dense[:, 1:])
    distinct = np.zeros_like(values)
    np.put_along_axis(distinct, dense, ordered, axis=1)
    keys = np.empty_like(dense)
    np.put_along_axis(keys, order, dense << 1, axis=1)
    keys |= y.astype(np.int32)
    return _RankTables(keys, distinct, y.astype(bool))


def _grow_tree(
    tables: _RankTables, draw: np.ndarray, rng: np.random.Generator, n_candidates: int
) -> Tree:
    """Grow one tree on the training rows ``draw``, to purity.

    Nodes hold row indices into the tables, which are never copied.  A
    split sorts the int32 keys of its sampled candidates: rows fall in value
    order, with the label in the low bit and the rank above it.  Growth pops
    an explicit stack, left child first, so nodes are numbered and random
    draws made in preorder.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    d = tables.keys.shape[0]
    # (rows of the node, the parent's child list to link it from, parent)
    stack: list[tuple[np.ndarray, list[int], int]] = [(draw, left, -1)]
    while stack:
        idx, links, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            links[parent] = node
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)

        n = idx.shape[0]
        ones = int(np.count_nonzero(tables.labels[idx]))
        if ones == 0 or ones == n or n < 2:
            value[node] = ones / n
            continue

        # Cell j of candidate c is the cut between its j-th and (j+1)-th
        # smallest value.  Only cuts between two ranks are scored, in
        # candidate-major then cut order; the order of equal values changes
        # no count at such a cut.
        cand = rng.permutation(d)[:n_candidates]
        keys = tables.keys[cand].take(idx, axis=1)
        keys.sort(axis=1)
        cells = np.flatnonzero((keys[:, 1:] ^ keys[:, :-1]) > 1)
        if not cells.size:
            # impure but every sampled candidate is constant here: leaf
            value[node] = ones / n
            continue

        # left and right side of every cut stacked, so one pass of the Gini
        # expression serves both:
        #   gini = 1.0 - (ones / size) ** 2 - ((size - ones) / size) ** 2
        #   score = (nl * gini_l + nr * gini_r) / n
        counts = np.empty((2, cells.size))  # ones on the left, on the right
        sizes = np.empty((2, cells.size))  # nl, nr
        counts[0] = np.cumsum(keys[:, :-1] & 1, axis=1).take(cells)
        np.subtract(ones, counts[0], out=counts[1])
        np.remainder(cells, n - 1, out=sizes[0])
        sizes[0] += 1.0
        np.subtract(n, sizes[0], out=sizes[1])
        gini = np.divide(counts, sizes)
        gini *= gini
        np.subtract(1.0, gini, out=gini)
        np.subtract(sizes, counts, out=counts)
        counts /= sizes
        counts *= counts
        gini -= counts
        gini *= sizes
        scores = np.add(gini[0], gini[1], out=sizes[0])
        scores /= n
        c, cut = divmod(int(cells[scores.argmin()]), n - 1)  # the first minimum

        f = int(cand[c])
        lo = float(tables.distinct[f, keys[c, cut] >> 1])
        hi = float(tables.distinct[f, keys[c, cut + 1] >> 1])
        thr = (lo + hi) / 2.0
        if not lo < thr <= hi:
            # the midpoint rounded onto lo (adjacent floats) or overflowed:
            # either leaves one child empty, so cut at hi itself
            thr = hi
        # lo < thr <= hi and no rank of the node lies between theirs, so
        # this is the mask of rows whose value is below thr
        mask = (tables.keys[f, idx] >> 1) <= (keys[c, cut] >> 1)
        feature[node] = f
        threshold[node] = thr
        stack.append((idx[~mask], right, node))
        stack.append((idx[mask], left, node))

    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def train_rf(data: LabeledSet, n_trees: int = DEFAULT_RF_TREES, seed: int = 0) -> RfModel:
    """Bootstrap-aggregated Gini trees grown to purity, no depth cap.

    Each split examines floor(sqrt(D)) features sampled without
    replacement.  Same seed, same data: bit-identical forest.
    """
    if n_trees < 1:
        raise ValueError("need at least one tree")
    if data.dims < 1:
        raise ValueError("a forest needs at least one feature to split on")
    _require_both_classes(data.labels)
    tables = _rank_tables(data.vectors, data.labels)
    rng = np.random.Generator(np.random.PCG64(seed))
    n_candidates = max(1, int(math.isqrt(data.dims)))
    trees = []
    for _ in range(n_trees):
        draw = rng.integers(0, data.n, size=data.n)
        trees.append(_grow_tree(tables, draw, rng, n_candidates))
    return RfModel(trees=tuple(trees), dims=data.dims, seed=seed)


def _forest_scores(model: RfModel, queries: np.ndarray) -> np.ndarray:
    """Mean leaf value over the trees, walking every tree at once."""
    feature, threshold, child, value, roots, depth = model._stacked
    rows = np.arange(queries.shape[0])
    at = np.repeat(roots[:, None], queries.shape[0], axis=1)  # (trees, queries)
    for _ in range(depth):
        below = queries[rows, feature[at]] < threshold[at]
        at = child[2 * at + below]
    return value[at].mean(axis=0)


def predict_batch(model: Model, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for each query row; score is the malware confidence."""
    X = _as_matrix(queries)
    if X.shape[1] != model.dims:
        raise ValueError(f"model expects {model.dims} dims, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValueError("queries must be finite")
    if isinstance(model, KnnModel):
        scores = _knn_scores(model, X)
        labels = (scores > 0.5).astype(np.int64)  # k odd: never exactly 0.5
    elif isinstance(model, RfModel):
        scores = _forest_scores(model, X)
        labels = (scores >= 0.5).astype(np.int64)
    elif isinstance(model, VecModel):
        knn_scores = _knn_scores(model.knn, X)
        rf_scores = _forest_scores(model.rf, X)
        # split votes go to malware: wrongly flagging is cheaper than missing
        labels = ((knn_scores > 0.5) | (rf_scores >= 0.5)).astype(np.int64)
        scores = np.mean((knn_scores, rf_scores), axis=0)
    else:
        raise TypeError(f"unknown model type {type(model).__name__}")
    return labels, scores


def accuracy(predicted: np.ndarray, truth: np.ndarray) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("label arrays must be non-empty and congruent")
    return float(np.mean(predicted == truth))


# --------------------------------------------------------------------------
# cross-validation


@dataclass(frozen=True)
class ModelSpec:
    """What to train per fold: knn, rf, or the vec ensemble of both."""

    kind: str
    k: int = DEFAULT_KNN_K
    n_trees: int = DEFAULT_RF_TREES

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")


def train_model(spec: ModelSpec, data: LabeledSet, seed: int = 0) -> Model:
    if spec.kind == "knn":
        return train_knn(data, k=spec.k)
    if spec.kind == "rf":
        return train_rf(data, n_trees=spec.n_trees, seed=seed)
    knn = train_knn(data, k=spec.k)
    rf = train_rf(data, n_trees=spec.n_trees, seed=seed)
    return VecModel(knn, rf, seed=seed)


@dataclass(frozen=True)
class CvReport:
    """Per-fold accuracies of one (feature, model) experiment."""

    fold_accuracies: tuple[float, ...]
    mean_accuracy: float
    model_kind: str
    feature_kind: str
    seed: int
    dims: int

    def __post_init__(self) -> None:
        if len(self.fold_accuracies) < 2:
            raise ValueError("a cross-validation needs at least two folds")
        mean = float(np.mean(self.fold_accuracies))
        if abs(mean - self.mean_accuracy) > 1e-12:
            raise ValueError("mean_accuracy must equal the mean of the folds")
        if any(not (0.0 <= a <= 1.0) for a in self.fold_accuracies):
            raise ValueError("accuracies must lie in [0, 1]")


def stratified_folds(labels: np.ndarray, n_folds: int = DEFAULT_FOLDS, seed: int = 0) -> list[np.ndarray]:
    """Seeded per-class shuffle dealt into ``n_folds`` index chunks.

    Every class needs at least ``n_folds`` members, or the labels are a
    :class:`DataError`; per-fold class counts then deviate from the global
    proportions by at most one sample.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if n_folds < 2:
        raise ValueError("need at least two folds")
    rng = np.random.Generator(np.random.PCG64(seed))
    buckets: list[list[np.ndarray]] = [[] for _ in range(n_folds)]
    for cls in (0, 1):
        members = np.flatnonzero(labels == cls)
        if members.size < n_folds:
            raise DataError(
                f"class {cls} has {members.size} samples, fewer than {n_folds} folds"
            )
        members = members[rng.permutation(members.size)]
        for f, chunk in enumerate(np.array_split(members, n_folds)):
            buckets[f].append(chunk)
    return [np.sort(np.concatenate(parts)) for parts in buckets]


def _fold_seed(seed: int, fold: int) -> int:
    # distinct deterministic stream per fold
    return (seed * 1_000_003 + fold) % 2**31


FoldBuilder = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def cross_validate_builder(
    labels: np.ndarray,
    build: FoldBuilder,
    model_spec: ModelSpec,
    feature_kind: str,
    folds: int = DEFAULT_FOLDS,
    seed: int = 0,
) -> CvReport:
    """CV engine over a per-fold feature builder.

    ``build(train_idx, test_idx)`` returns raw (train, test) matrices; the
    engine standardizes with training statistics and scores each fold.
    Exists so features that are themselves fit on training data (for
    example a training-split vocabulary) stay leak-free.  Finite values so
    large (or a spread so small) that standardizing overflows are a
    ``DataError`` naming ``feature_kind``.
    """
    labels = np.asarray(labels, dtype=np.int64)
    fold_indices = stratified_folds(labels, folds, seed)
    accuracies = []
    dims = 0
    for f, test_idx in enumerate(fold_indices):
        train_idx = np.sort(np.concatenate([fold_indices[g] for g in range(folds) if g != f]))
        raw_train, raw_test = build(train_idx, test_idx)
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                scaler = FeatureScaler.fit(raw_train)
                scaled_train, scaled_test = scaler.transform(raw_train), scaler.transform(raw_test)
        except FloatingPointError:
            raise DataError(f"{feature_kind} features leave float range when standardized") from None
        train = LabeledSet(scaled_train, labels[train_idx], kind=feature_kind)
        model = train_model(model_spec, train, seed=_fold_seed(seed, f))
        predicted, _ = predict_batch(model, scaled_test)
        accuracies.append(accuracy(predicted, labels[test_idx]))
        dims = raw_train.shape[1]
    return CvReport(
        fold_accuracies=tuple(accuracies),
        mean_accuracy=float(np.mean(accuracies)),
        model_kind=model_spec.kind,
        feature_kind=feature_kind,
        seed=seed,
        dims=dims,
    )


# --------------------------------------------------------------------------
# persistence: versioned flat text, floats via repr for exact round-trips

_MAGIC = "maldoc-model v1"
_KINDS = {KnnModel: "knn", RfModel: "rf", VecModel: "vec"}


def _write_model(model: Model, out: IO[str]) -> None:
    out.write(f"{_MAGIC}\n")
    out.write(f"kind {_KINDS[type(model)]}\n")
    out.write(f"seed {model.seed}\n")
    out.write(f"dims {model.dims}\n")
    if isinstance(model, KnnModel):
        out.write(f"k {model.k}\n")
        out.write(f"n {model.vectors.shape[0]}\n")
        for row, label in zip(model.vectors, model.labels):
            out.write(" ".join([str(int(label))] + [repr(float(v)) for v in row]) + "\n")
    elif isinstance(model, RfModel):
        out.write(f"trees {len(model.trees)}\n")
        for tree in model.trees:
            out.write(f"tree {tree.feature.shape[0]}\n")
            for f, t, l, r, v in zip(
                tree.feature, tree.threshold, tree.left, tree.right, tree.value
            ):
                out.write(f"{int(f)} {repr(float(t))} {int(l)} {int(r)} {repr(float(v))}\n")
    else:
        out.write("constituents 2\n")
        _write_model(model.knn, out)
        _write_model(model.rf, out)


def save_model(model: Model, path: str | Path) -> None:
    text = io.StringIO()
    _write_model(model, text)
    with atomic_write(path) as out:
        out.write(text.getvalue().encode("ascii"))


class _LineReader:
    def __init__(self, lines: list[str]):
        self.lines = lines
        self.at = 0

    def next(self) -> str:
        if self.at >= len(self.lines):
            raise ValueError("truncated model file")
        line = self.lines[self.at]
        self.at += 1
        return line

    def expect(self, key: str) -> str:
        line = self.next()
        head, _, rest = line.partition(" ")
        if head != key:
            raise ValueError(f"expected {key!r} in model file, found {head!r}")
        return rest

    def count(self, key: str) -> int:
        """An item count, each item taking at least one of the lines left."""
        value = int(self.expect(key))
        left = len(self.lines) - self.at
        if not 0 <= value <= left:
            raise ValueError(f"malformed model file: {key} {value} with {left} lines left")
        return value


def _check_tree(
    feature: np.ndarray, left: np.ndarray, right: np.ndarray, value: np.ndarray, dims: int
) -> None:
    """Reject a tree that scoring could not walk to a leaf for every query.

    A leaf has feature and both children -1.  An internal node splits on a
    feature below ``dims`` and both its children come after it, so every
    path ends and no node is visited twice.
    """
    n = feature.shape[0]
    node = np.arange(n)
    leaf = (feature == -1) & (left == -1) & (right == -1)
    inner = (feature >= 0) & (feature < dims)
    for child in (left, right):
        inner &= (child > node) & (child < n)
    if not (leaf | inner).all() or not ((value >= 0.0) & (value <= 1.0)).all():
        raise ValueError("malformed tree in model file")


def _read_tree(reader: _LineReader, dims: int) -> Tree:
    rows = [reader.next().split(" ") for _ in range(reader.count("tree"))]
    if not rows or any(len(row) != 5 for row in rows):
        raise ValueError("malformed tree in model file")
    f, t, l, r, v = zip(*rows)
    ints = lambda col: np.array([int(x) for x in col], dtype=np.int32)
    floats = lambda col: np.array([float(x) for x in col], dtype=np.float64)
    try:
        feature, left, right = ints(f), ints(l), ints(r)
    except OverflowError:
        raise ValueError("malformed tree in model file: an index past int32") from None
    threshold, value = floats(t), floats(v)
    _check_tree(feature, left, right, value, dims)
    return Tree(feature, threshold, left, right, value)


def _read_model(reader: _LineReader, part: str | None = None, vec_dims: int = 0) -> Model:
    """The model that starts at the reader's line, or a vec's ``part`` of ``vec_dims``."""
    if reader.next() != _MAGIC:
        raise ValueError("not a model file (bad magic line)")
    kind = reader.expect("kind")
    seed, dims = int(reader.expect("seed")), int(reader.expect("dims"))
    if part is not None and (kind, dims) != (part, vec_dims):
        raise ValueError(f"malformed vec in model file: a {kind} of dims {dims} as its {part}")
    if kind == "knn":
        k = int(reader.expect("k"))
        n = reader.count("n")
        if not (1 <= k <= n and k % 2 == 1):
            raise ValueError(f"malformed knn in model file: k {k} with n {n}")
        labels, rows = [], []
        for i in range(n):
            label, *values = reader.next().split(" ")
            if label not in ("0", "1") or len(values) != dims:
                raise ValueError(f"malformed knn row {i} in model file")
            labels.append(int(label))
            rows.append([float(v) for v in values])
        vectors = np.array(rows, dtype=np.float64)
        if not np.isfinite(vectors).all():
            raise ValueError("malformed knn in model file: non-finite value")
        return KnnModel(k=k, vectors=vectors, labels=np.array(labels, dtype=np.int64), seed=seed)
    if kind == "rf":
        n_trees = reader.count("trees")
        if n_trees == 0:
            raise ValueError("malformed rf in model file: trees 0")
        trees = tuple(_read_tree(reader, dims) for _ in range(n_trees))
        return RfModel(trees=trees, dims=dims, seed=seed)
    if kind == "vec":
        n_parts = reader.count("constituents")
        if n_parts != 2:
            raise ValueError(f"malformed vec in model file: constituents {n_parts}")
        return VecModel(_read_model(reader, "knn", dims), _read_model(reader, "rf", dims), seed)
    raise ValueError(f"unknown model kind {kind!r} in model file")


def load_model(path: str | Path) -> Model:
    """Read a model file; any malformed or non-ASCII file is a :class:`DataError`."""
    raw = read_regular(path)
    try:
        return _read_model(_LineReader(raw.decode("ascii").splitlines()))
    except ValueError as exc:  # UnicodeDecodeError included
        raise DataError(str(exc)) from None
