"""Array-form featurizer internals against the loops they replaced.

The oracles in ``oracles.py`` build resample weights one cell at a time,
bigram counts by unbuffered add, Gabor responses and mel filters one filter
at a time, and power frames in one whole-array pass.  Every output must be
bit-identical, so the comparisons are on ``tobytes()``, not within a
tolerance.
"""

import numpy as np
import pytest

from maldoc import byteplot_image, gist
from maldoc.image import bigram_counts
from maldoc.audio import (
    FRAME_LENGTH,
    HOP_LENGTH,
    POWER_BLOCK_FRAMES,
    byte_signal,
    mel_filterbank,
    power_frames,
)
from maldoc.image import GIST_SIZE, _overlap_weights, dct_image_from_counts, gabor_bank

from oracles import (
    bigram_counts_reference,
    gabor_bank_reference,
    gist_reference,
    mel_filterbank_reference,
    overlap_weights_reference,
    power_frames_reference,
)


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_overlap_weights_match_cell_loop():
    bad = [
        n
        for n in range(1, 2101)
        if not same_bytes(_overlap_weights(n, GIST_SIZE), overlap_weights_reference(n, GIST_SIZE))
    ]
    assert bad == []


def test_filter_banks_match_per_filter_loops():
    assert same_bytes(gabor_bank(), gabor_bank_reference(GIST_SIZE))
    assert same_bytes(mel_filterbank(), mel_filterbank_reference())


def _streams(corpus_2024) -> list[bytes]:
    streams = [p.read_bytes() for p in corpus_2024]
    # shortest bigram input, a one-row byteplot, and an all-equal run
    streams += [b"\x00\xff", bytes(range(20)), b"\x07" * 5000]
    return streams


def test_bigram_counts_match_unbuffered_add(corpus_2024):
    assert len(corpus_2024) >= 100
    bad = [
        i
        for i, s in enumerate(_streams(corpus_2024))
        if not same_bytes(bigram_counts(s), bigram_counts_reference(s))
    ]
    assert bad == []


@pytest.mark.parametrize("kind", ["byteplot-gist", "bigramdct-gist"])
def test_gist_matches_per_filter_loop(corpus_2024, kind):
    bad = []
    for i, s in enumerate(_streams(corpus_2024)):
        if kind == "byteplot-gist":
            image = byteplot_image(s)
        else:
            image = dct_image_from_counts(bigram_counts_reference(s))
        if not same_bytes(gist(image), gist_reference(image)):
            bad.append(i)
    assert bad == []


def test_gist_matches_on_single_pixel_and_single_row_images():
    rng = np.random.default_rng(4)
    for shape in [(1, 1), (1, 32), (1, 1024), (3, 1), (65, 64), (2048, 7)]:
        image = rng.random(shape)
        assert same_bytes(gist(image), gist_reference(image)), shape


def _signal_of_length(n: int, seed: int):
    raw = np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()
    return byte_signal(raw)


# frame counts that straddle the first two multiples of the block size
_B = POWER_BLOCK_FRAMES
_BLOCK_EDGES = {"1": 1, "B-1": _B - 1, "B": _B, "B+1": _B + 1, "2B": 2 * _B, "2B+1": 2 * _B + 1}


@pytest.mark.parametrize("frames", _BLOCK_EDGES.values(), ids=_BLOCK_EDGES.keys())
def test_power_frame_blocks_match_the_whole_array_pass(frames):
    for extra in (0, HOP_LENGTH - 1):  # the trailing partial frame is dropped
        signal = _signal_of_length(FRAME_LENGTH + (frames - 1) * HOP_LENGTH + extra, frames)
        blocked = power_frames(signal)
        assert blocked.shape[0] == frames
        assert same_bytes(blocked, power_frames_reference(signal))


def test_power_frame_blocks_match_on_seeded_lengths_up_to_1_1_mb():
    rng = np.random.default_rng(77)
    lengths = [1, FRAME_LENGTH - 1, *rng.integers(FRAME_LENGTH, 1_100_000, 6).tolist(), 1_100_000]
    for seed, n in enumerate(lengths):
        signal = _signal_of_length(n, seed)
        assert same_bytes(power_frames(signal), power_frames_reference(signal)), n
