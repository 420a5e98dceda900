"""Array-form featurizer internals against the loops they replaced.

The oracles in ``oracles.py`` build resample weights one cell at a time and
by a whole-row broadcast, bigram counts by unbuffered add, Gabor responses
and mel filters one filter at a time, power frames and their mel and chroma
projections in one whole-array pass each, and DCT images out of place.  Bigram counts are
also checked at the edges of their chunks with 1, 2 and 3 usable CPUs, and
the projected power frames with their work split over 1, 2 and 3 threads.
Every output must be bit-identical, so the comparisons are on
``tobytes()``, not within a tolerance.
"""

import numpy as np
import pytest

from maldoc import byteplot_image, core, gist
from maldoc.image import BIGRAM_BLOCK_PAIRS, bigram_counts
from maldoc.audio import (
    FRAME_LENGTH,
    HOP_LENGTH,
    POWER_BLOCK_FRAMES,
    PROJECTION_BLOCK_FRAMES,
    byte_signal,
    chroma_map,
    mel_filterbank,
    power_frames,
)
from maldoc.image import GIST_SIZE, _overlap_weights, dct_image_from_counts, gabor_bank

from oracles import (
    bigram_counts_reference,
    chroma_energy_reference,
    dct_image_from_counts_reference,
    gabor_bank_reference,
    gist_reference,
    mel_filterbank_reference,
    mel_power_reference,
    overlap_weights_dense_reference,
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


def test_banded_overlap_weights_match_the_whole_row_broadcast():
    # every length up to 3000 (some over 32 cells per output, some under
    # one), the byteplot height at the 32 MiB cap, and outputs other than 64
    sizes = [*range(1, 3001), 4097, 32767, 32768, 100_007]
    bad = [
        (n, out)
        for n in sizes
        for out in (GIST_SIZE, 7, 1)
        if not same_bytes(_overlap_weights(n, out), overlap_weights_dense_reference(n, out))
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


def test_dct_image_in_place_matches_out_of_place(corpus_2024):
    bad = []
    for i, s in enumerate(_streams(corpus_2024)):
        counts = bigram_counts_reference(s)
        if not same_bytes(dct_image_from_counts(counts), dct_image_from_counts_reference(counts)):
            bad.append(i)
    assert bad == []
    flat = np.full((256, 256), 3.0)
    assert same_bytes(dct_image_from_counts(flat), dct_image_from_counts_reference(flat))
    assert np.all(flat == 3.0)  # a float input is copied too


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


def _bytes_for_frames(frames: int) -> int:
    return FRAME_LENGTH + (frames - 1) * HOP_LENGTH


_N_BINS = FRAME_LENGTH // 2 + 1


def _power_of(signal) -> np.ndarray:
    # projecting onto the identity is exact: each output sums one power
    # value and zeros, so this reads the blocked power spectra themselves
    (power,) = power_frames(signal, (np.eye(_N_BINS),))
    return power


def _projections_match(signal) -> bool:
    mel, energy = power_frames(signal, (mel_filterbank(), chroma_map()))
    power = power_frames_reference(signal)
    return same_bytes(mel, mel_power_reference(power)) and same_bytes(
        energy, chroma_energy_reference(power)
    )


# frame counts that straddle the first two multiples of the FFT sub-block
_B = POWER_BLOCK_FRAMES
_BLOCK_EDGES = {"1": 1, "B-1": _B - 1, "B": _B, "B+1": _B + 1, "2B": 2 * _B, "2B+1": 2 * _B + 1}


@pytest.mark.parametrize("frames", _BLOCK_EDGES.values(), ids=_BLOCK_EDGES.keys())
def test_power_frame_blocks_match_the_whole_array_pass(frames):
    for extra in (0, HOP_LENGTH - 1):  # the trailing partial frame is dropped
        signal = _signal_of_length(_bytes_for_frames(frames) + extra, frames)
        blocked = _power_of(signal)
        assert blocked.shape[0] == frames
        assert same_bytes(blocked, power_frames_reference(signal))
        assert _projections_match(signal)


def test_power_frame_blocks_match_on_seeded_lengths_up_to_1_1_mb():
    rng = np.random.default_rng(77)
    lengths = [1, FRAME_LENGTH - 1, *rng.integers(FRAME_LENGTH, 1_100_000, 6).tolist(), 1_100_000]
    for seed, n in enumerate(lengths):
        signal = _signal_of_length(n, seed)
        assert same_bytes(_power_of(signal), power_frames_reference(signal)), n
        assert _projections_match(signal), n


_PRIME_BYTES = 1_000_003  # no range boundary of any split lands on a round count


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_power_frames_match_the_whole_array_pass(monkeypatch, workers):
    monkeypatch.setattr(core, "usable_cpus", lambda: workers)
    frame_edges = [_bytes_for_frames(frames) for frames in (1, _B - 1, _B, _B + 1)]
    for seed, n in enumerate([*frame_edges, 2**20, _PRIME_BYTES]):
        signal = _signal_of_length(n, seed)
        assert same_bytes(_power_of(signal), power_frames_reference(signal)), (workers, n)
        assert _projections_match(signal), (workers, n)


# OpenBLAS sums a product of at most 10**6 multiply-adds in another order,
# so every projection must cover at least 82 frames (the chroma product's
# threshold) or the whole stream: stream lengths at the edges of that
# threshold, of one projection block and of the split into ranges
_P = PROJECTION_BLOCK_FRAMES
_PROJECTION_EDGES = [1, 7, 8, 81, 82, _P - 1, _P, _P + 1, 2 * _P - 1, 2 * _P, 2 * _P + 1,
                     4 * _P - 1, 4 * _P, 4 * _P + 1]


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_projection_blocks_match_the_whole_array_products(monkeypatch, workers):
    monkeypatch.setattr(core, "usable_cpus", lambda: workers)
    assert _P >= 82
    lengths = [_bytes_for_frames(frames) for frames in _PROJECTION_EDGES] + [2, 2**20]
    for seed, n in enumerate(lengths):
        assert _projections_match(_signal_of_length(n, seed)), (workers, n)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_split_bigram_counts_match_unbuffered_add(monkeypatch, workers):
    # The counts are made on the calling thread; with 1, 2 and 3 usable
    # CPUs they must still be the same bits, so a split brought back
    # could not change them
    monkeypatch.setattr(core, "usable_cpus", lambda: workers)
    rng = np.random.default_rng(9)
    # 2 bytes is one pair; the pairs are counted in chunks of a block of
    # pairs: one pair short of a chunk, exactly one, one pair more, one
    # short of two chunks, exactly two, one more, and past three and four
    B = BIGRAM_BLOCK_PAIRS
    sizes = [2, 3, B, B + 1, B + 2, 2 * B, 2 * B + 1, 2 * B + 2, 3 * B + 2, 4 * B + 1, 2**20, _PRIME_BYTES]
    for n in sizes:
        raw = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert same_bytes(bigram_counts(raw), bigram_counts_reference(raw)), (workers, n)
