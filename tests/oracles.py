"""Independent reference implementations used as test oracles.

Each oracle is written the slow, obvious way so a bug in the library's fast
path cannot hide in a shared shortcut: the piecewise-hash oracle is a
straight byte-at-a-time port of the classic spamsum loop, the block-fold
oracle folds one byte at a time, the transform oracles evaluate the defining
summations, the KNN oracle is a direct argsort over explicitly computed
distances, the forest oracles search splits one sampled feature at a time
and score one tree node at a time, and the featurizer oracles build resample
weights, bigram counts, filter banks and Gabor responses one cell, pair or
filter at a time.  The rolling hash, power-frame, filterbank-product, MFCC,
DCT-image and KNN oracles are the whole-array, out-of-place or 64-bit forms
that the blocked, split, in-place and 32-bit library code replaced, the
cache-table and model-file oracles are the whole-file writers and reader
that the streamed library code replaced, and the call-log oracle is the
per-call list that the counting report parser replaced.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
from collections import Counter
from typing import Sequence

import numpy as np
import scipy.fft

from maldoc.audio import (
    FRAME_LENGTH,
    LOG_FLOOR,
    N_MELS,
    N_MFCC,
    SAMPLE_RATE,
    _frames,
    chroma_map,
    hz_to_mel,
    mel_filterbank,
    mel_to_hz,
)
from maldoc.core import FIXED_DIMS
from maldoc.dct import _PI
from maldoc.ctph import _FOLD_INIT, _FOLD_PRIME, _WINDOW
from maldoc.image import (
    _SIGMA_R_FACTOR,
    _SIGMA_T_FACTOR,
    GIST_GRID,
    GIST_ORIENTATIONS,
    GIST_SCALES,
    GIST_SIZE,
)
from maldoc.ml import KnnModel, Model, Tree, _write_model
from maldoc.pipeline import FEATURE_VERSIONS

_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_U32 = 0xFFFFFFFF


def spamsum_reference(data: bytes) -> str:
    """Byte-at-a-time piecewise hash, ported from the classic algorithm.

    State per pass: a 7-byte rolling window hash (three components), two
    FNV folds (one per block size), and write cursors into fixed 64- and
    32-slot signature buffers whose final slot is overwritten rather than
    advanced once full.
    """
    length = len(data)
    block_size = 3
    while block_size * 64 < length:
        block_size *= 2

    while True:
        window = [0] * 7
        roll_h1 = roll_h2 = roll_h3 = 0
        roll_n = 0
        fold1 = fold2 = 0x28021967
        sig1: list[str] = [""] * 64
        sig2: list[str] = [""] * 32
        j = k = 0
        h = 0
        for c in data:
            roll_h2 = (roll_h2 - roll_h1 + 7 * c) & _U32
            roll_h1 = (roll_h1 + c - window[roll_n % 7]) & _U32
            window[roll_n % 7] = c
            roll_n += 1
            roll_h3 = ((roll_h3 << 5) & _U32) ^ c
            h = (roll_h1 + roll_h2 + roll_h3) & _U32

            fold1 = ((fold1 * 0x01000193) & _U32) ^ c
            fold2 = ((fold2 * 0x01000193) & _U32) ^ c

            if h % block_size == block_size - 1:
                sig1[j] = _B64[fold1 % 64]
                if j < 63:
                    fold1 = 0x28021967
                    j += 1
            if h % (block_size * 2) == block_size * 2 - 1:
                sig2[k] = _B64[fold2 % 64]
                if k < 31:
                    fold2 = 0x28021967
                    k += 1
        if h != 0:
            sig1[j] = _B64[fold1 % 64]
            sig2[k] = _B64[fold2 % 64]
        digest1 = "".join(sig1)
        digest2 = "".join(sig2)
        if block_size > 3 and j < 32:
            block_size //= 2
        else:
            return f"{block_size}:{digest1}:{digest2}"


def piece_digest_reference(low6: bytes, triggers: np.ndarray, last_roll: int, cap: int) -> str:
    """Digest at one block size, folding the low 6 bits of each input byte.

    ``triggers`` holds the byte indices where the rolling hash fired; the
    first ``cap`` of them each commit one character and reset the fold.
    Later triggers and the end-of-input flush share the final character
    slot, folding everything after the last committed block.
    """
    ends = [int(t) + 1 for t in triggers[:cap]]
    if last_roll != 0:
        ends.append(len(low6))
    elif len(triggers) > cap:
        # input ended with a dead rolling hash: the last slot keeps the value
        # written at the final trigger
        ends.append(int(triggers[-1]) + 1)
    chars = []
    lo = 0
    for hi in ends:
        s = _FOLD_INIT
        for c in low6[lo:hi]:
            s = ((s * _FOLD_PRIME) & 63) ^ c
        chars.append(_B64[s])
        lo = hi
    return "".join(chars)


def roll_sums_reference(buf: np.ndarray) -> np.ndarray:
    """The uint64 rolling-hash sums ``ctph._roll_sums`` replaced.

    The three classic components are window sums over the last 7 bytes:
    h1 the plain sum, h2 the age-weighted sum (newest byte weighted 7),
    h3 the shift-XOR fold, whose terms older than 7 bytes have been shifted
    past bit 31 and vanish mod 2**32.
    """
    n = buf.size
    c = buf.astype(np.uint64)
    h1 = np.zeros(n, dtype=np.uint64)
    h2 = np.zeros(n, dtype=np.uint64)
    h3 = np.zeros(n, dtype=np.uint64)
    for k in range(min(_WINDOW, n)):
        lane = c[: n - k]
        h1[k:] += lane
        h2[k:] += np.uint64(_WINDOW - k) * lane
        h3[k:] ^= lane << np.uint64(5 * k)
    return ((h1 + h2 + h3) & np.uint64(_U32)).astype(np.uint32)


def dct2_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis matrix built from the defining cosine sum."""
    basis = np.empty((n, n), dtype=np.float64)
    for k in range(n):
        for i in range(n):
            basis[k, i] = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    basis *= np.sqrt(2.0 / n)
    basis[0] *= np.sqrt(0.5)
    return basis


def dct2_direct(matrix: np.ndarray) -> np.ndarray:
    """Separable 2-D orthonormal DCT-II via explicit cosine sums per axis."""
    matrix = np.asarray(matrix, dtype=np.float64)
    rows = dct2_matrix(matrix.shape[0])
    cols = dct2_matrix(matrix.shape[1])
    return rows @ matrix @ cols.T


def dct2_quadloop(matrix: np.ndarray) -> np.ndarray:
    """Fully unrolled O(n^4) 2-D DCT-II; only sane for tiny inputs."""
    matrix = np.asarray(matrix, dtype=np.float64)
    h, w = matrix.shape
    out = np.zeros((h, w), dtype=np.float64)
    for u in range(h):
        for v in range(w):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += (
                        matrix[i, j]
                        * np.cos(np.pi * (2 * i + 1) * u / (2 * h))
                        * np.cos(np.pi * (2 * j + 1) * v / (2 * w))
                    )
            cu = np.sqrt(1.0 / h) if u == 0 else np.sqrt(2.0 / h)
            cv = np.sqrt(1.0 / w) if v == 0 else np.sqrt(2.0 / w)
            out[u, v] = cu * cv * acc
    return out


def twiddles_reference(n: int) -> np.ndarray:
    """Real parts of pocketfft's ``sincos_2pibyn(4n)`` at 1..n, through its
    full eight-octant reduction and whole fine and coarse tables: the form
    ``dct._twiddles`` was trimmed from."""
    m = 4 * n
    ang = float(np.longdouble(0.25) * _PI / np.longdouble(m))

    def octant(x: int) -> tuple[float, float]:
        x <<= 3
        if x < 4 * m:
            if x < 2 * m:
                if x < m:
                    return math.cos(x * ang), math.sin(x * ang)
                return math.sin((2 * m - x) * ang), math.cos((2 * m - x) * ang)
            x -= 2 * m
            if x < m:
                return -math.sin(x * ang), math.cos(x * ang)
            return -math.cos((2 * m - x) * ang), math.sin((2 * m - x) * ang)
        x = 8 * m - x
        if x < 2 * m:
            if x < m:
                return math.cos(x * ang), -math.sin(x * ang)
            return math.sin((2 * m - x) * ang), -math.cos((2 * m - x) * ang)
        x -= 4 * m
        if x < m:
            return -math.sin(x * ang), -math.cos(x * ang)
        return -math.cos((2 * m - x) * ang), -math.sin((2 * m - x) * ang)

    n_values = (m + 2) // 2
    shift = 1
    while (1 << shift) * (1 << shift) < n_values:
        shift += 1
    mask = (1 << shift) - 1
    fine = np.array([(1.0, 0.0)] + [octant(i) for i in range(1, mask + 1)])
    coarse = np.array([(1.0, 0.0)] + [
        octant(i * (mask + 1)) for i in range(1, (n_values + mask) // (mask + 1))
    ])
    i = np.arange(1, n + 1)  # all in the first half, where 2i <= m
    (r1, i1), (r2, i2) = fine[i & mask].T, coarse[i >> shift].T
    tw = r1 * r2 - i1 * i2  # one float64 product and difference per entry, as in the loop
    tw.setflags(write=False)
    return tw


def dft_matrix(n: int) -> np.ndarray:
    """DFT matrix from the defining exponential, no FFT."""
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n)


def dft2_direct(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.complex128)
    return dft_matrix(matrix.shape[0]) @ matrix @ dft_matrix(matrix.shape[1]).T


def idft2_direct(matrix: np.ndarray) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=np.complex128)
    h, w = matrix.shape
    return np.conj(dft_matrix(h)) @ matrix @ np.conj(dft_matrix(w)).T / (h * w)


def rdft_power_direct(frame: np.ndarray) -> np.ndarray:
    """Power spectrum of one real frame from the defining DFT sum."""
    frame = np.asarray(frame, dtype=np.float64)
    n = frame.size
    bins = n // 2 + 1
    out = np.empty(bins, dtype=np.float64)
    t = np.arange(n)
    for b in range(bins):
        z = np.sum(frame * np.exp(-2j * np.pi * b * t / n))
        out[b] = np.abs(z) ** 2
    return out


def power_frames_reference(samples: np.ndarray) -> np.ndarray:
    """The whole-array pass the blocked ``audio.power_frames`` replaced, on
    the float samples (b - 128)/128 of ``byte_signal``'s uint8 bytes: every
    Hann-windowed frame, its complex spectrum, its magnitude and the square
    at once, the whole (frames, bins) power array."""
    signal = (np.asarray(samples, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH)
    spectrum = np.fft.rfft(_frames(signal) * window, axis=1)
    return np.abs(spectrum) ** 2


def mel_power_reference(power: np.ndarray) -> np.ndarray:
    """The whole power array projected onto the mel filterbank in one product."""
    return power @ mel_filterbank().T


def chroma_energy_reference(power: np.ndarray) -> np.ndarray:
    """The whole power array folded onto the 12 pitch classes in one product."""
    return power @ chroma_map().T


def mfcc_reference(mel: np.ndarray) -> np.ndarray:
    """``audio.mfcc`` with a fresh array for the floor, the log and the DCT."""
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    coeffs = scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :N_MFCC]
    return coeffs.mean(axis=0)


def circular_convolve_direct(img: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Wrap-around spatial convolution by explicit roll-and-accumulate."""
    img = np.asarray(img, dtype=np.complex128)
    out = np.zeros_like(img)
    h, w = img.shape
    for u in range(h):
        for v in range(w):
            if img[u, v] != 0:
                out += img[u, v] * np.roll(np.roll(kernel, u, axis=0), v, axis=1)
    return out


def knn_bruteforce(train_x: np.ndarray, train_y: np.ndarray, query: np.ndarray, k: int) -> tuple[int, float]:
    """Predict one query point: explicit distances, stable index ordering."""
    dists = [float(np.sum((row - query) ** 2)) for row in train_x]
    order = sorted(range(len(dists)), key=lambda i: (dists[i], i))[:k]
    votes = [int(train_y[i]) for i in order]
    score = sum(votes) / k
    return (1 if sum(votes) * 2 > k else 0), score


# --------------------------------------------------------------------------
# PDF name lexing: the per-byte loops the library used before it lexed names
# with one regular expression, kept verbatim as references.

def knn_scores_one_block(model: KnnModel, queries: np.ndarray) -> np.ndarray:
    """``ml._knn_scores`` with every query in one difference block."""
    diffs = queries[:, None, :] - model.vectors[None, :, :]
    dists = np.einsum("qnd,qnd->qn", diffs, diffs)
    nearest = np.argsort(dists, axis=1, kind="stable")[:, : model.k]
    return model.labels[nearest].mean(axis=1)


_PDF_WHITESPACE = frozenset(b"\x00\t\n\x0c\r ")
_PDF_DELIMITERS = frozenset(b"()<>[]{}/%")
_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")
_SLASH = 0x2F
_HASH = 0x23


def _is_regular(byte: int) -> bool:
    return byte not in _PDF_WHITESPACE and byte not in _PDF_DELIMITERS


def normalize_names_reference(raw: bytes) -> bytes:
    """Decode ``#xx`` escapes inside name tokens, one byte at a time."""
    if _HASH not in raw:
        return raw  # nothing to decode
    out = bytearray()
    in_name = False
    i, n = 0, len(raw)
    while i < n:
        c = raw[i]
        if in_name:
            if c == _HASH and i + 2 < n and raw[i + 1] in _HEX_DIGITS and raw[i + 2] in _HEX_DIGITS:
                out.append(int(raw[i + 1 : i + 3], 16))
                i += 3
                continue
            if not _is_regular(c):
                in_name = False
        if c == _SLASH:
            in_name = True
        out.append(c)
        i += 1
    return bytes(out)


def count_keywords_reference(raw: bytes) -> dict[str, int]:
    """Tag counts with a per-byte scan for the end of each name token."""
    from maldoc import RISKY_TAGS

    subtract = {"obj": "endobj", "stream": "endstream", "xref": "startxref"}
    counts = dict.fromkeys(RISKY_TAGS, 0)

    name_map = {tag[1:].encode("ascii"): tag for tag in RISKY_TAGS if tag.startswith("/")}
    pos = raw.find(b"/")
    n = len(raw)
    while pos != -1:
        end = pos + 1
        while end < n and _is_regular(raw[end]):
            end += 1
        tag = name_map.get(raw[pos + 1 : end])
        if tag is not None:
            counts[tag] += 1
        pos = raw.find(b"/", pos + 1)

    bare = [tag for tag in RISKY_TAGS if not tag.startswith("/")]
    raw_hits = {kw: raw.count(kw.encode("ascii")) for kw in bare}
    for kw in bare:
        longer = subtract.get(kw)
        counts[kw] = raw_hits[kw] - (raw_hits[longer] if longer else 0)
    return counts


def _flip_case(byte: int) -> int:
    if 0x41 <= byte <= 0x5A or 0x61 <= byte <= 0x7A:
        return byte ^ 0x20
    return byte


def _scan_name(raw: bytes, slash: int) -> tuple[bytes, list[tuple[int, int]]]:
    """Decoded name after ``raw[slash]`` and one raw span per decoded byte."""
    decoded = bytearray()
    spans: list[tuple[int, int]] = []
    i, n = slash + 1, len(raw)
    while i < n:
        c = raw[i]
        if c == _HASH and i + 2 < n and raw[i + 1] in _HEX_DIGITS and raw[i + 2] in _HEX_DIGITS:
            decoded.append(int(raw[i + 1 : i + 3], 16))
            spans.append((i, i + 3))
            i += 3
        elif _is_regular(c):
            decoded.append(c)
            spans.append((i, i + 1))
            i += 1
        else:
            break
    return bytes(decoded), spans


def _rewrite_spans(raw: bytes, decoded: bytes, spans: list[tuple[int, int]]) -> bytes:
    """Case-flipped raw bytes of a matched name; escapes stay escapes."""
    out = bytearray()
    for ch, (lo, hi) in zip(decoded, spans):
        flipped = _flip_case(ch)
        if hi - lo == 1:
            out.append(flipped)
        else:
            out.append(_HASH)
            out.append(b"0123456789abcdef"[flipped >> 4])
            out.append(raw[hi - 1])
    return bytes(out)


def disarm_reference(data, method: int):
    """Both rewrite methods, scanning and re-rendering names span by span."""
    from maldoc import ByteStream
    from maldoc.disarm import DisarmReport, Replacement
    from maldoc.disarm import DISARM_SUFFIX, TARGET_TAGS

    targets_lower = {tag[1:].lower().encode("ascii"): tag for tag in TARGET_TAGS}
    raw = data.data
    out = bytearray()
    copied = 0  # input bytes emitted so far
    replacements = []

    pos = raw.find(b"/")
    while pos != -1:
        decoded, spans = _scan_name(raw, pos)
        name_end = spans[-1][1] if spans else pos + 1
        tag = targets_lower.get(decoded.lower())
        if tag is not None:
            new_name = _rewrite_spans(raw, decoded, spans)
            if method == 2:
                new_name += DISARM_SUFFIX
            out += raw[copied:pos]
            out += b"/" + new_name
            copied = name_end
            replacements.append(
                Replacement(
                    tag=tag,
                    offset=pos,
                    original=raw[pos:name_end],
                    replacement=b"/" + new_name,
                )
            )
        pos = raw.find(b"/", name_end)
    out += raw[copied:]

    result = ByteStream(bytes(out))
    report = DisarmReport(
        method=method,
        replacements=tuple(replacements),
        input_sha256=data.sha256,
        output_sha256=result.sha256,
    )
    return result, report


def grow_tree_reference(
    X: np.ndarray, y: np.ndarray, rng: np.random.Generator, n_candidates: int
) -> Tree:
    """The per-candidate split search ``ml._grow_tree`` replaced.

    One Python pass per sampled feature: sort, cumulative class counts and
    Gini scores of that feature's boundaries alone, keeping a candidate only
    when it strictly beats the best so far.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    value: list[float] = []

    def new_node() -> int:
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def build(idx: np.ndarray) -> int:
        node = new_node()
        ys = y[idx]
        n = idx.shape[0]
        ones = int(ys.sum())
        if ones == 0 or ones == n or n < 2:
            value[node] = ones / n
            return node

        best_score = np.inf
        best: tuple[int, float] | None = None
        for f in rng.permutation(X.shape[1])[:n_candidates]:
            xs = X[idx, f]
            order = np.argsort(xs, kind="stable")
            xv = xs[order]
            boundary = np.flatnonzero(xv[1:] != xv[:-1])
            if boundary.size == 0:
                continue  # candidate is constant in this node
            cum_ones = np.cumsum(y[idx][order])
            nl = boundary + 1.0
            nr = n - nl
            ol = cum_ones[boundary].astype(np.float64)
            orr = ones - ol
            gini_l = 1.0 - (ol / nl) ** 2 - ((nl - ol) / nl) ** 2
            gini_r = 1.0 - (orr / nr) ** 2 - ((nr - orr) / nr) ** 2
            scores = (nl * gini_l + nr * gini_r) / n
            pick = int(np.argmin(scores))
            if scores[pick] < best_score:
                best_score = float(scores[pick])
                lo, hi = float(xv[boundary[pick]]), float(xv[boundary[pick] + 1])
                thr = (lo + hi) / 2.0
                # the midpoint rounded onto lo (adjacent floats) or overflowed
                best = (int(f), thr if lo < thr <= hi else hi)

        if best is None:
            # impure but unsplittable on the sampled candidates: leaf
            value[node] = ones / n
            return node

        f, thr = best
        mask = X[idx, f] < thr
        feature[node] = f
        threshold[node] = thr
        left[node] = build(idx[mask])
        right[node] = build(idx[~mask])
        return node

    build(np.arange(X.shape[0]))
    return Tree(
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        left=np.array(left, dtype=np.int32),
        right=np.array(right, dtype=np.int32),
        value=np.array(value, dtype=np.float64),
    )


def tree_scores_reference(tree: Tree, queries: np.ndarray) -> np.ndarray:
    """The per-tree scoring ``ml.predict_batch`` replaced: one node per iteration."""
    out = np.empty(queries.shape[0], dtype=np.float64)
    stack = [(0, np.arange(queries.shape[0]))]
    while stack:
        node, idx = stack.pop()
        if idx.size == 0:
            continue
        if tree.feature[node] < 0:
            out[idx] = tree.value[node]
            continue
        mask = queries[idx, tree.feature[node]] < tree.threshold[node]
        stack.append((int(tree.left[node]), idx[mask]))
        stack.append((int(tree.right[node]), idx[~mask]))
    return out


def overlap_weights_reference(n_src: int, n_out: int) -> np.ndarray:
    """The per-cell loop ``image._overlap_weights`` replaced.

    Row i holds each source cell's share of output interval i.

    Exact box overlap, so downsampling is a true area average and the
    operator is linear.  Rows sum to 1.
    """
    weights = np.zeros((n_out, n_src), dtype=np.float64)
    scale = n_src / n_out
    for i in range(n_out):
        lo = i * scale
        hi = lo + scale
        j0 = int(np.floor(lo))
        j1 = min(int(np.ceil(hi)), n_src)
        for j in range(j0, j1):
            weights[i, j] = min(hi, j + 1) - max(lo, j)
    return weights / scale


def overlap_weights_dense_reference(n_src: int, n_out: int) -> np.ndarray:
    """The whole-row broadcast ``image._overlap_weights`` replaced: the
    overlap of every output interval with every source cell, clipped at 0."""
    scale = n_src / n_out
    lo = np.arange(n_out)[:, None] * scale
    cell = np.arange(n_src)
    overlap = np.minimum(lo + scale, cell + 1) - np.maximum(lo, cell)
    return np.maximum(overlap, 0.0) / scale


def bigram_counts_reference(raw: bytes) -> np.ndarray:
    """256x256 matrix of consecutive byte-pair counts, by unbuffered add."""
    if len(raw) < 2:
        raise ValueError("insufficient bytes for bigrams")
    seq = np.frombuffer(raw, dtype=np.uint8)
    counts = np.zeros((256, 256), dtype=np.int64)
    np.add.at(counts, (seq[:-1], seq[1:]), 1)
    return counts


def dct_image_from_counts_reference(counts: np.ndarray) -> np.ndarray:
    """The out-of-place form ``image.dct_image_from_counts`` replaced: a
    fresh array for the log, the transform, the magnitude, the shift and
    the scale."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (256, 256):
        raise ValueError(f"expected a 256x256 count matrix, got {counts.shape}")
    coeffs = np.abs(scipy.fft.dctn(np.log1p(counts), type=2, norm="ortho"))
    lo, hi = coeffs.min(), coeffs.max()
    if hi == lo:
        return np.zeros_like(coeffs)
    return (coeffs - lo) / (hi - lo)


def gabor_bank_reference(size: int = GIST_SIZE) -> np.ndarray:
    """Frequency-domain transfer functions of the 20-filter Gabor bank.

    Single-sided Gaussian bumps: a radial Gaussian around each scale's
    center frequency times an angular Gaussian around each orientation,
    evaluated on the unshifted FFT grid.  The DC bin is zeroed exactly so a
    constant image excites nothing, and on an even grid the Nyquist row and
    column are zeroed too: those bins stand for +1/2 and -1/2 cycles at
    once, which would skew the orientation selectivity.
    """
    freqs = np.fft.fftfreq(size)
    fy, fx = np.meshgrid(freqs, freqs, indexing="ij")
    radius = np.hypot(fx, fy)
    angle = np.arctan2(fy, fx)

    filters = []
    for center, n_orient in zip(GIST_SCALES, GIST_ORIENTATIONS):
        sigma_r = _SIGMA_R_FACTOR * center
        sigma_t = _SIGMA_T_FACTOR * np.pi / n_orient
        for k in range(n_orient):
            theta = np.pi * k / n_orient
            dtheta = np.mod(angle - theta + np.pi, 2.0 * np.pi) - np.pi
            h = np.exp(
                -((radius - center) ** 2) / (2.0 * sigma_r**2)
                - dtheta**2 / (2.0 * sigma_t**2)
            )
            h[0, 0] = 0.0  # reject the mean exactly
            if size % 2 == 0:
                h[size // 2, :] = 0.0
                h[:, size // 2] = 0.0
            filters.append(h)
    bank = np.stack(filters)
    bank.setflags(write=False)
    return bank


def _grid_means(mag: np.ndarray) -> np.ndarray:
    cell = GIST_SIZE // GIST_GRID
    return mag.reshape(GIST_GRID, cell, GIST_GRID, cell).mean(axis=(1, 3)).ravel()


def gist_reference(image: np.ndarray) -> np.ndarray:
    """The per-filter Gabor-grid descriptor ``image.gist`` replaced.

    Order: scales outermost, then orientations, then the 4x4 grid row-major.
    """
    rows = overlap_weights_reference(image.shape[0], GIST_SIZE)
    cols = overlap_weights_reference(image.shape[1], GIST_SIZE)
    resampled = rows @ image @ cols.T
    spectrum = np.fft.fft2(resampled)
    parts = [
        _grid_means(np.abs(np.fft.ifft2(spectrum * transfer)))
        for transfer in gabor_bank_reference(GIST_SIZE)
    ]
    return np.concatenate(parts)


def mel_filterbank_reference() -> np.ndarray:
    """128 triangular filters on a mel-spaced grid, one filter per pass.

    Peak weight 1 at each center; no area normalization.  Every filter is
    wider than the bin spacing, so none is empty.
    """
    n_bins = FRAME_LENGTH // 2 + 1
    bin_hz = np.arange(n_bins) * SAMPLE_RATE / FRAME_LENGTH
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), N_MELS + 2))
    weights = np.zeros((N_MELS, n_bins), dtype=np.float64)
    for j in range(N_MELS):
        lo, mid, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_hz - lo) / (mid - lo)
        falling = (hi - bin_hz) / (hi - mid)
        weights[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    weights.setflags(write=False)
    return weights


def cache_table_bytes_reference(kind: str, table: dict[str, np.ndarray]) -> bytes:
    """A feature cache table's file, built as one list of lines, joined and
    encoded whole."""
    lines = [f"# maldoc-cache kind={kind} version={FEATURE_VERSIONS[kind]}"]
    for digest in sorted(table):
        lines.append(digest + "\t" + "\t".join(map(repr, table[digest].tolist())))
    return ("\n".join(lines) + "\n").encode("ascii")


def cache_index_bytes_reference(kind: str, table: dict[str, np.ndarray], table_bytes: bytes) -> bytes:
    """A cache table's index, built whole: its header line, naming the
    SHA-256 of ``table_bytes``; the payload, the rows' raw digests in sorted
    order and their values as one little-endian float64 block; then the
    payload's raw SHA-256."""
    digests = sorted(table)
    values = np.array([table[d] for d in digests], dtype="<f8").reshape(len(digests), FIXED_DIMS[kind])
    payload = b"".join(bytes.fromhex(d) for d in digests) + values.tobytes()
    head = (
        f"# maldoc-cache-index kind={kind} version={FEATURE_VERSIONS[kind]} dims={FIXED_DIMS[kind]} "
        f"rows={len(digests)} table={hashlib.sha256(table_bytes).hexdigest()}\n"
    )
    return head.encode("ascii") + payload + hashlib.sha256(payload).digest()


def cache_row_reference(line: str, kind: str) -> tuple[str, np.ndarray] | None:
    """(digest, values) of a cache line that is a 64-character lowercase hex
    digest and then the kind's fixed count of tab-separated fields, each
    parsed with ``float`` and all finite; None for any other line."""
    digest, *fields = line.split("\t")
    if len(digest) != 64 or any(c not in "0123456789abcdef" for c in digest):
        return None
    if len(fields) != FIXED_DIMS[kind]:
        return None
    values = []
    for field in fields:
        try:
            value = float(field)
        except ValueError:
            return None
        if not math.isfinite(value):
            return None
        values.append(value)
    return digest, np.array(values, dtype=np.float64)


def cache_table_reference(raw: bytes, name: str, kind: str) -> tuple[dict[str, np.ndarray], list[str]]:
    """The rows a cache reader keeps from a table file's bytes, and the
    warnings it logs, from the whole text decoded and split at once, at
    LF, CR and CRLF."""
    table: dict[str, np.ndarray] = {}
    warnings: list[str] = []
    lines = re.split("\r\n|\r|\n", raw.decode("ascii", errors="replace"))
    if lines[-1] == "":  # the text is empty or ends with a line end
        lines.pop()
    if lines and lines[0] == f"# maldoc-cache kind={kind} version={FEATURE_VERSIONS[kind]}":
        for line in lines[1:]:
            row = cache_row_reference(line, kind)
            if row is None:
                warnings.append("cache %s: dropping malformed row %.20r" % (name, line))
            else:
                table[row[0]] = row[1]
    elif lines:
        warnings.append(f"cache {name} is version-stale; ignoring its rows")
    return table, warnings


# one sample's flattened call log, (api, status) pairs with multiplicity
Calls = tuple[tuple[str, int], ...]


def call_log_reference(raw: bytes) -> Calls:
    """A well-formed report's call log, in call order: the per-call tuple
    that ``dynamic.parse_report`` returned before it counted calls as it
    checked them."""
    behavior = json.loads(raw.decode("utf-8")).get("behavior")
    return tuple((call["api"], call["status"]) for call in behavior or ())


def build_api_vocabulary(reports: Sequence[Calls]) -> Calls:
    """The vocabulary that the per-fold count-matrix columns replaced: the
    distinct (api, status) pairs of the call logs, by descending total, then
    api name, then status."""
    if not reports:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    totals: Counter[tuple[str, int]] = Counter()
    for calls in reports:
        totals.update(calls)
    return tuple(sorted(totals, key=lambda pair: (-totals[pair], pair[0], pair[1])))


def api_call_feature(report: Calls, vocab: Calls) -> np.ndarray:
    """One call log's counts laid out in vocabulary order, pairs outside it
    dropped, counted from the log itself."""
    count = Counter(report).get
    return np.array([count(pair, 0) for pair in vocab], dtype=np.float64)


def model_bytes_reference(model: Model) -> bytes:
    """A model file's bytes, written whole to a string and encoded at once."""
    text = io.StringIO()
    _write_model(model, text)
    return text.getvalue().encode("ascii")

