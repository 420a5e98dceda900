"""Classifiers and the stratified cross-validation harness.

Everything here is binary (benign=0, malware=1) and deterministic: KNN
breaks distance ties by the lower training index, the forest draws all of
its randomness from one seeded PCG64 generator in a fixed order, and every
model labels by the one vote rule of ``predict_batch``, which resolves a
split vote toward malware (the fail-safe direction for a detector).

Standardization statistics are fit on training rows only; the harness never
lets a held-out row touch them.

Forest training sorts each column of the training matrix once per forest,
into rank tables of about 12 bytes per training cell (int32 keys of twice
the rank plus the label, a value's rank being the sorted position of the
first value equal to it, and each column's sorted values, which a rank
indexes), freed with the forest when training returns.  A split then sorts
small integer keys instead of floats, and sends rows to its children by
rank.  The keys
must fit int32: 2N + 1 < 2**31 for N training rows, and a larger training
set is a ValueError.  A node holds its rows with the label-0 rows first, so
each class's least and greatest key come from one reduction each, and a
sampled candidate whose cut leaves both sides pure needs no sort at all:
its cut scores exactly 0.0 and every other cut more, so it is the split
the full search would pick, bit for bit (see ``_grow_tree``).  Any other
split scores its cuts from two Gini terms each, one per side, and a term
depends only on the side's size and count of label-1 rows.  A node of at
most ``GINI_TABLE_ROWS`` rows reads its terms from a table of every such
pair (2.1 MB of float64, built on first use, once per process); a larger
node computes them.  Both come from ``_gini_terms``: its operations are
basic IEEE ones, each correctly rounded, in one order, so a table entry
has the bits that computing the term at the node would give.  Either way
a side of s rows with c ones has the offset ``s * width + c``, for width
513 in the table and n + 1 at a larger node of n rows, and each sorted
row moves the left side's offset on by width plus its label bit, so one
integer running sum gives every cut's offset exactly.  A split sends a
row left when its key is at most ``low | 1``, for ``low`` the greatest
key left of the cut: with keys ``2r + label``, that is exactly the row's
rank being at most ``low``'s.
Forest scoring stacks the trees into flat node arrays once per model and
steps all (tree, query) pairs down their trees until every walk is at a leaf.

A forest's nodes are grown into one store, in preorder, tree after tree:
four lists that become arrays once the last tree is grown, each tree a
slice of them.  Beyond that store, transient memory is bounded by the
training set and the (tree, query) count.  Each tree grows from its
bootstrap draw as row indices into the rank tables, so no tree copies its
rows, and from an explicit stack, so growth makes no reference cycle that
would hold a node's rows until the cyclic collector runs.  No KNN array
holds more than KNN_BLOCK_ELEMENTS floats: queries x rows of the Gram
block, or pairs x dims of the differences.

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
from functools import cache, cached_property
from pathlib import Path
from typing import Callable, IO, NamedTuple, Union

import numpy as np

from .core import DataError, FLOAT_REPR_CHARS, TextLines, atomic_write, open_regular

DEFAULT_KNN_K = 3
DEFAULT_RF_TREES = 100
DEFAULT_FOLDS = 10
# each model kind and the parts that vote in it, in the order they train
_PARTS = {"knn": ("knn",), "rf": ("rf",), "vec": ("knn", "rf")}
MODEL_KINDS = tuple(_PARTS)
KNN_BLOCK_ELEMENTS = 2**17  # cap on one KNN block array, in floats (1 MiB)
_KNN_SLACK = 8.0  # c in the module docstring's bound; 4 suffices in exact arithmetic
# a node of at most this many rows looks its cuts' Gini terms up in a table
GINI_TABLE_ROWS = 512
_GINI_WIDTH = GINI_TABLE_ROWS + 1


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
    def _stacked(self) -> tuple[np.ndarray, ...]:
        """Every tree in flat node arrays, for scoring the forest at once.

        Returns (feature, threshold, child, value, roots, leaf).  Node i's
        children are ``child[2 * i]`` (right) and ``child[2 * i + 1]``
        (left, taken when the query is below the threshold); a leaf is its
        own child and reads feature 0, so a walk that reaches it stays.
        """
        sizes = [t.feature.shape[0] for t in self.trees]
        roots = np.cumsum([0] + sizes[:-1])
        base = np.repeat(roots, sizes)
        feature = np.concatenate([t.feature for t in self.trees])
        leaf = feature < 0
        own = np.arange(feature.shape[0])
        left = np.where(leaf, own, np.concatenate([t.left for t in self.trees]) + base)
        right = np.where(leaf, own, np.concatenate([t.right for t in self.trees]) + base)
        return (
            np.where(leaf, 0, feature),
            np.concatenate([t.threshold for t in self.trees]),
            np.stack((right, left), axis=1).ravel(),
            np.concatenate([t.value for t in self.trees]),
            roots,
            leaf,
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
    """Store the training set; all the work happens at query time.

    ``k`` comes from a :class:`ModelSpec`, which checks that it is odd and
    at least 1; only the data can tell whether it exceeds the rows.
    """
    if k > data.n:
        raise ValueError(f"k must be at most the {data.n} training rows, got {k}")
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

    keys: np.ndarray  # int32 2 * rank + label; a rank is its value's first sorted position
    ordered: np.ndarray  # each column's values ascending, so rank r's value sits at r
    labels: np.ndarray  # bool, one per training row


def _rank_tables(X: np.ndarray, y: np.ndarray) -> _RankTables:
    """Sort every column of ``(X, y)`` once, for all the splits of a forest."""
    n = X.shape[0]
    if 2 * n + 1 >= 2**31:
        raise ValueError(f"a forest trains on at most {2**30 - 1} rows, got {n}")
    values = np.ascontiguousarray(X.T)
    order = values.argsort(axis=1)
    ordered = np.take_along_axis(values, order, axis=1)
    # each sorted value's rank is the position of the first value equal to
    # it, the greatest position so far where the value changed: -0.0 == 0.0,
    # so both zeros share one
    ranks = np.zeros(values.shape, dtype=np.int32)
    np.multiply(ordered[:, 1:] != ordered[:, :-1], np.arange(1, n, dtype=np.int32), out=ranks[:, 1:])
    np.maximum.accumulate(ranks, axis=1, out=ranks)
    keys = np.empty_like(ranks)
    np.put_along_axis(keys, order, ranks << 1, axis=1)
    keys |= y.astype(np.int32)
    return _RankTables(keys, ordered, y.astype(bool))


def _gini_terms(sizes: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """``s * ((1 - (c/s)**2) - ((s-c)/s)**2)`` for each side of ``sizes`` s
    rows with ``ones`` c label-1 rows: its Gini impurity weighted by its size.

    The one statement of the formula: the table and the nodes too large for
    it both compute their terms here, from integer sizes and counts, in one
    order of correctly rounded operations, so a term has the same bits
    whichever path gives it and whatever SIMD width numpy runs at.
    """
    share = np.divide(ones, sizes)
    share *= share
    terms = np.subtract(1.0, share, out=share)
    rest = np.subtract(sizes, ones) / sizes
    rest *= rest
    terms -= rest
    terms *= sizes
    return terms


@cache
def _gini_table() -> np.ndarray:
    """Every side term of a node of at most ``GINI_TABLE_ROWS`` rows, flat at
    ``s * _GINI_WIDTH + c`` for a side of s rows with c ones (2.1 MB, built once
    per process 64 rows at a time; cells with s = 0 or c > s are never read)."""
    span = np.arange(_GINI_WIDTH)
    table = np.zeros((_GINI_WIDTH, _GINI_WIDTH))
    for lo in range(1, _GINI_WIDTH, 64):
        table[lo : lo + 64] = _gini_terms(span[lo : lo + 64, None], span)
    return table.ravel()


# a forest's nodes, tree after tree, each tree's in preorder: feature (-1 for
# a leaf), threshold, right child (its index in the store, -1 for a leaf), value
_NodeStore = tuple[list[int], list[float], list[int], list[float]]


def _grow_tree(
    tables: _RankTables, draw: np.ndarray, rng: np.random.Generator, n_candidates: int, store: _NodeStore
) -> None:
    """Grow one tree on the training rows ``draw``, to purity, onto the end of ``store``.

    Nodes hold row indices into the tables, which are never copied, with
    the label-0 rows first and their count ``n0``: the root orders the draw
    so, and a child's boolean mask keeps the order.  So a node is pure when
    ``n0`` is 0 or its size, with no label read.

    A split takes the first sampled candidate that separates the classes,
    if any, from each class's least and greatest key; else it sorts the
    int32 keys of its candidates (rows fall in value order, with the label
    in the low bit and the rank above it) and scores every cut between two
    ranks.  A cut scores ``(term(nl, cl) + term(nr, cr)) / n`` for the sizes
    and label-1 counts of its sides.  A side of s rows with c ones has the
    offset ``s * width + c``: ``width`` is ``_GINI_WIDTH`` when the node has
    at most ``GINI_TABLE_ROWS`` rows, whose terms are read from
    ``_gini_table`` (2.1 MB) at that offset, and n + 1 otherwise, whose
    terms ``_gini_terms`` computes from the offset's quotient and remainder;
    the same bits either way.  A running sum along each candidate's sorted
    keys of ``width`` plus the key's label bit is, after j rows,
    ``j * width + cl`` for the cl ones among them: the left side's offset
    itself, and the right side's is ``n * width + ones`` less it.  One sum
    runs over every candidate's sorted keys, flat: each candidate's steps
    add up to ``n * width + ones``, so taking that back at each
    candidate's first step after the first restarts the sum there.  Every
    offset is below 2**62 for the node sizes the rank tables allow.  The
    search finds the first minimum of the Gini score in candidate-major
    then cut order.  The chosen cut's rows go left when their key is at
    most ``low | 1``: a key ``2r + b`` with b in {0, 1} has
    ``r <= low >> 1`` exactly when ``2r + b <= 2 (low >> 1) + 1``, which
    is ``low | 1``.  A cut with both
    sides pure scores exactly 0.0, since each side's class fractions are
    exactly 0.0 and 1.0.  An impure side of size s scores
    1 - a**2 - b**2 = 2ab >= 2 (1/s) (1 - 1/s), far above the
    rounding error, so every other cut scores above 0.  A candidate has at
    most one separating cut, so the first separating candidate's cut is
    that minimum, and its children are the two class slices.

    Growth pops an explicit stack, left child first, so nodes are numbered
    and random draws made in preorder; a node is appended to ``store`` as
    it is popped, so its number is its place in the store less the tree's
    start.  A split pushes both its children, the left one last so that it
    is numbered node + 1; a pure child goes on as its size alone, without
    its rows, and is appended as a leaf when popped.
    """
    feature, threshold, right, value = store

    def append(f: int, thr: float, v: float) -> None:
        """Number the next node, a leaf when ``f`` is -1; a split's right child is set when numbered."""
        feature.append(f)
        threshold.append(thr)
        right.append(-1)
        value.append(v)

    d = tables.keys.shape[0]
    table = _gini_table()
    ones_drawn = tables.labels.take(draw)
    root = draw.take(ones_drawn.argsort(kind="stable"))  # label-0 rows first, each class in draw order
    # (rows of the node label-0 first or None for a pure node, its size, its
    # label-0 count, the store index of the node it is the right child of or -1)
    stack: list[tuple[np.ndarray | None, int, int, int]] = [
        (root, draw.size, draw.size - int(np.count_nonzero(ones_drawn)), -1)
    ]
    while stack:
        idx, n, n0, parent = stack.pop()
        if parent >= 0:
            right[parent] = len(feature)

        ones = n - n0
        if n0 == 0 or ones == 0:
            append(-1, 0.0, ones / n)
            continue

        cand = rng.permutation(d)[:n_candidates]
        keys = tables.keys.take(cand, axis=0).take(idx, axis=1)
        # A label-0 key is 2r and a label-1 key 2r + 1, for the rank r.  So
        # with most[:, j] class j's greatest key with its low bit set and
        # other[:, j] the other class's least key, other > most says that
        # every rank of class j lies below every rank of the other class.
        other = np.minimum.reduceat(keys, (0, n0), axis=1)[:, ::-1]
        most = np.maximum.reduceat(keys, (0, n0), axis=1)
        most |= 1
        apart = other > most
        c, ones_below = divmod(int(apart.argmax()), 2)  # the first separating candidate
        if apart[c, ones_below]:
            low, high = most.item(c, ones_below), other.item(c, ones_below)
            # the left child is the class below the cut: (its size, its label-0 count)
            left_n, left_n0 = (ones, 0) if ones_below else (n0, n0)
            mask = None  # both children are class slices, so both are leaves
        else:
            # Cell c * n + j is the cut between candidate c's j-th and
            # (j+1)-th smallest value: its place in the flat sorted keys,
            # where a candidate's last cell, which would cut into the next
            # candidate, is no cut.  Only cuts between two ranks are scored, in
            # candidate-major then cut order; the order of equal values
            # changes no count at such a cut.
            keys.sort(axis=1)
            flat = keys.ravel()
            between = (flat[1:] ^ flat[:-1]) > 1
            between[n - 1 :: n] = False
            cells = between.nonzero()[0]
            if not cells.size:
                # impure but every sampled candidate is constant here: leaf
                append(-1, 0.0, ones / n)
                continue

            # a cut's score is (term(nl, ones left) + term(nr, ones right)) / n,
            # each side's term read at its offset size * width + ones, which a
            # running sum of width plus each key's label bit gives the left side;
            # every candidate sorts the same n rows, ones of them label-1, so
            # taking a candidate's whole sum back at the first key of each
            # later candidate restarts one running sum over the flat keys
            if n <= GINI_TABLE_ROWS:
                width, steps, terms = _GINI_WIDTH, keys & 1, table.take
            else:  # intp steps, since n * (n + 1) passes int32 from 46,341 rows
                width, steps = n + 1, np.bitwise_and(keys, 1, dtype=np.intp)
                terms = lambda at: _gini_terms(*np.divmod(at, width))
            whole = n * width + ones
            steps += width
            steps[1:, 0] -= whole
            at = steps.ravel().cumsum().take(cells)
            scores = terms(at)
            # the right side (n - nl, ones - cl) sits at (n, ones) less the left's offset
            np.subtract(whole, at, out=at)
            scores += terms(at)
            scores /= n
            c, cut = divmod(int(cells[scores.argmin()]), n)  # the first minimum
            low, high = keys.item(c, cut), keys.item(c, cut + 1)
            # no rank of the node lies between low's and high's, so this is
            # the mask of rows at or below low's rank, which the threshold
            # keeps: the cut + 1 rows left of the cut
            mask = tables.keys[cand[c]].take(idx) <= (low | 1)
            left_n, left_n0 = cut + 1, int(np.count_nonzero(mask[:n0]))

        f = int(cand[c])
        lo = tables.ordered.item(f, low >> 1)
        hi = tables.ordered.item(f, high >> 1)
        thr = (lo + hi) / 2.0
        if not lo < thr <= hi:
            # the midpoint rounded onto lo (adjacent floats) or overflowed:
            # either leaves one child empty, so cut at hi itself
            thr = hi
        node = len(feature)
        append(f, thr, 0.0)
        # both children go on the stack, a pure one as its size alone; the
        # left one is popped next, so it is numbered node + 1
        right_n, right_n0 = n - left_n, n0 - left_n0
        stack.append((None if right_n0 in (0, right_n) else idx[~mask], right_n, right_n0, node))
        stack.append((None if left_n0 in (0, left_n) else idx[mask], left_n, left_n0, -1))


def _store_trees(store: _NodeStore, starts: list[int]) -> tuple[Tree, ...]:
    """The trees grown into ``store`` at ``starts``, each a slice of its arrays."""
    feature, right = np.array(store[0], dtype=np.int32), np.array(store[2])
    threshold, value = np.array(store[1]), np.array(store[3])
    bounds = [*starts, feature.size]
    start = np.repeat(starts, np.diff(bounds))  # the start of each node's tree
    # a child's number within its tree; a split's left child is the next node
    left = np.where(feature >= 0, np.arange(1, feature.size + 1) - start, -1).astype(np.int32)
    right = np.where(feature >= 0, right - start, -1).astype(np.int32)
    return tuple(
        Tree(feature[a:b], threshold[a:b], left[a:b], right[a:b], value[a:b]) for a, b in zip(bounds, bounds[1:])
    )


def train_rf(data: LabeledSet, n_trees: int = DEFAULT_RF_TREES, seed: int = 0) -> RfModel:
    """Bootstrap-aggregated Gini trees grown to purity, no depth cap.

    Each split examines floor(sqrt(D)) features sampled without
    replacement.  Same seed, same data: bit-identical forest.  ``n_trees``
    is a :class:`ModelSpec`'s, at least 1.
    """
    if data.dims < 1:
        raise ValueError("a forest needs at least one feature to split on")
    _require_both_classes(data.labels)
    tables = _rank_tables(data.vectors, data.labels)
    rng = np.random.Generator(np.random.PCG64(seed))
    n_candidates = math.isqrt(data.dims)
    store: _NodeStore = ([], [], [], [])
    starts = []
    for _ in range(n_trees):
        draw = rng.integers(0, data.n, size=data.n)
        starts.append(len(store[0]))
        _grow_tree(tables, draw, rng, n_candidates, store)
    return RfModel(trees=_store_trees(store, starts), dims=data.dims, seed=seed)


def _forest_scores(model: RfModel, queries: np.ndarray) -> np.ndarray:
    """Mean leaf value over the trees, walking every tree at once."""
    feature, threshold, child, value, roots, leaf = model._stacked
    rows = np.arange(queries.shape[0])
    at = np.repeat(roots[:, None], queries.shape[0], axis=1)  # (trees, queries)
    while not leaf[at].all():
        below = queries[rows, feature[at]] < threshold[at]
        at = child[2 * at + below]
    return value[at].mean(axis=0)


def predict_batch(model: Model, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(labels, scores) for each query row, by one vote rule for every model.

    Each part, a vec's KNN and forest or else the model itself, scores a query
    with its malware fraction.  The score is the parts' mean, and the label is
    malware when at least half the parts score at least 0.5: a split vote goes
    to malware, since wrongly flagging is cheaper than missing.
    """
    X = _as_matrix(queries)
    if X.shape[1] != model.dims:
        raise ValueError(f"model expects {model.dims} dims, got {X.shape[1]}")
    if not np.isfinite(X).all():
        raise ValueError("queries must be finite")
    parts = (model.knn, model.rf) if isinstance(model, VecModel) else (model,)
    scores = [(_knn_scores if isinstance(p, KnnModel) else _forest_scores)(p, X) for p in parts]
    votes = sum(part >= 0.5 for part in scores)  # how many parts say malware, per query
    return (2 * votes >= len(parts)).astype(np.int64), np.mean(scores, axis=0)


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
    """What to train per fold: knn, rf, or the vec ensemble of both (``_PARTS``).

    Building one is the one check of its parameters, else a ``ValueError``:
    the kind is in ``MODEL_KINDS``; with a KNN part ``k`` is odd, so a KNN's
    score is never exactly 0.5, and at least 1; with a forest part
    ``n_trees`` is at least 1.  A parameter the kind does not use is not
    checked.
    """

    kind: str
    k: int = DEFAULT_KNN_K
    n_trees: int = DEFAULT_RF_TREES

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if "knn" in _PARTS[self.kind] and (self.k < 1 or self.k % 2 == 0):
            raise ValueError(f"k must be odd and at least 1, got {self.k}")
        if "rf" in _PARTS[self.kind] and self.n_trees < 1:
            raise ValueError(f"n_trees must be at least 1, got {self.n_trees}")


def train_model(spec: ModelSpec, data: LabeledSet, seed: int = 0) -> Model:
    train = {"knn": lambda: train_knn(data, k=spec.k),
             "rf": lambda: train_rf(data, n_trees=spec.n_trees, seed=seed)}
    parts = [train[part]() for part in _PARTS[spec.kind]]
    return VecModel(*parts, seed=seed) if len(parts) > 1 else parts[0]


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
        if not abs(mean - self.mean_accuracy) <= 1e-12:  # NaN included
            raise ValueError("mean_accuracy must equal the mean of the folds")
        if any(not (0.0 <= a <= 1.0) for a in self.fold_accuracies):
            raise ValueError("accuracies must lie in [0, 1]")


def check_folds(n_folds: int) -> None:
    if n_folds < 2:  # the one fold-count rule, which ``cv`` applies before it reads a file
        raise ValueError("need at least two folds")


def stratified_folds(labels: np.ndarray, n_folds: int = DEFAULT_FOLDS, seed: int = 0) -> list[np.ndarray]:
    """Seeded per-class shuffle dealt into ``n_folds`` index chunks.

    Every class needs at least ``n_folds`` members, or the labels are a
    :class:`DataError`; per-fold class counts then deviate from the global
    proportions by at most one sample.
    """
    labels = np.asarray(labels, dtype=np.int64)
    check_folds(n_folds)
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
# the cap on a model file's lines until its dims is read: the header lines
# are short, and a seed of up to 250 digits fits
_MODEL_HEAD_CHARS = 256
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
    """Write a model file line by line; a failed save leaves the previous
    file (``core.atomic_write``)."""
    with atomic_write(path) as out, io.TextIOWrapper(out, encoding="ascii", newline="\n") as text:
        _write_model(model, text)


def _take(lines: TextLines, key: str | None = None) -> str:
    """The next line without its end, or with ``key`` what follows ``key`` and a space on it."""
    try:
        line = next(lines)
    except StopIteration:
        raise ValueError("truncated model file") from None
    if line is None:
        raise ValueError(f"model file line {lines.number} is over {lines.max_chars} characters")
    line = line.removesuffix("\n")
    if key is None:
        return line
    head, _, rest = line.partition(" ")
    if head != key:
        raise ValueError(f"expected {key!r} in model file, found {head!r}")
    return rest


def _check_tree(tree: Tree, dims: int) -> None:
    """Reject a tree that scoring could not walk to a leaf for every query.

    A leaf has feature and both children -1.  An internal node splits on a
    feature below ``dims`` and both its children come after it: that order
    is what ends scoring's walk, since each step moves a walk that is not at
    a leaf to a later node.  Every threshold is finite, every value in [0, 1].
    """
    n = tree.feature.shape[0]
    node = np.arange(n)
    leaf = (tree.feature == -1) & (tree.left == -1) & (tree.right == -1)
    inner = (tree.feature >= 0) & (tree.feature < dims)
    for child in (tree.left, tree.right):
        inner &= (child > node) & (child < n)
    ok = (leaf | inner) & np.isfinite(tree.threshold) & (tree.value >= 0.0) & (tree.value <= 1.0)
    if not ok.all():
        raise ValueError("malformed tree in model file")


def _read_tree(lines: TextLines, dims: int) -> Tree:
    rows = [_take(lines).split(" ") for _ in range(int(_take(lines, "tree")))]
    if not rows or any(len(row) != 5 for row in rows):
        raise ValueError("malformed tree in model file")
    f, t, l, r, v = zip(*rows)
    ints = lambda col: np.array([int(x) for x in col], dtype=np.int32)
    floats = lambda col: np.array([float(x) for x in col], dtype=np.float64)
    try:
        feature, left, right = ints(f), ints(l), ints(r)
    except OverflowError:
        raise ValueError("malformed tree in model file: an index past int32") from None
    tree = Tree(feature, floats(t), left, right, floats(v))
    _check_tree(tree, dims)
    return tree


def _read_model(lines: TextLines, part: str | None = None, vec_dims: int = 0) -> Model:
    """The model that starts at the next line, or a vec's ``part`` of ``vec_dims``.

    Lines are capped at ``_MODEL_HEAD_CHARS`` until ``dims`` is read, and
    from then on also at 64 characters plus ``FLOAT_REPR_CHARS + 1`` per
    dimension, which holds any knn row or tree node of a saved model.
    """
    if _take(lines) != _MAGIC:
        raise ValueError("not a model file (bad magic line)")
    kind = _take(lines, "kind")
    seed, dims = int(_take(lines, "seed")), int(_take(lines, "dims"))
    if part is not None and (kind, dims) != (part, vec_dims):
        raise ValueError(f"malformed vec in model file: a {kind} of dims {dims} as its {part}")
    lines.max_chars = max(_MODEL_HEAD_CHARS, 64 + (FLOAT_REPR_CHARS + 1) * dims)
    if kind == "knn":
        k, n = int(_take(lines, "k")), int(_take(lines, "n"))
        if not (1 <= k <= n and k % 2 == 1):
            raise ValueError(f"malformed knn in model file: k {k} with n {n}")
        labels, rows = [], []
        for i in range(n):
            label, *values = _take(lines).split(" ")
            if label not in ("0", "1") or len(values) != dims:
                raise ValueError(f"malformed knn row {i} in model file")
            labels.append(int(label))
            rows.append(np.fromiter(map(float, values), np.float64, dims))
        vectors = np.array(rows)
        if not np.isfinite(vectors).all():
            raise ValueError("malformed knn in model file: non-finite value")
        return KnnModel(k=k, vectors=vectors, labels=np.array(labels, dtype=np.int64), seed=seed)
    if kind == "rf":
        n_trees = int(_take(lines, "trees"))
        if dims < 1 or n_trees < 1:
            raise ValueError(f"malformed rf in model file: dims {dims}, trees {n_trees}")
        trees = tuple(_read_tree(lines, dims) for _ in range(n_trees))
        return RfModel(trees=trees, dims=dims, seed=seed)
    if kind == "vec":
        n_parts = int(_take(lines, "constituents"))
        if n_parts != 2:
            raise ValueError(f"malformed vec in model file: constituents {n_parts}")
        return VecModel(_read_model(lines, "knn", dims), _read_model(lines, "rf", dims), seed)
    raise ValueError(f"unknown model kind {kind!r} in model file")


def load_model(path: str | Path) -> Model:
    """Read a model file one line at a time through ``core.TextLines``, so a
    line ends at LF, CR or CRLF; a malformed or non-ASCII file, a line over
    its cap (see ``_read_model``) or any line past the model is a :class:`DataError`."""
    with open_regular(path) as f, io.TextIOWrapper(f, encoding="ascii", newline=None) as text:
        try:
            model = _read_model(lines := TextLines(text, _MODEL_HEAD_CHARS))
            for _ in lines:  # one read under the last line's cap, an over-long line too
                raise ValueError(f"model file line {lines.number} is past the end of the model")
        except ValueError as exc:  # UnicodeDecodeError included
            raise DataError(str(exc)) from None
    return model
