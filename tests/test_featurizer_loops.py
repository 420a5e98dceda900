"""Array-form featurizer internals against the loops they replaced.

The oracles in ``oracles.py`` build resample weights one cell at a time,
bigram counts by unbuffered add, Gabor responses and mel filters one filter
at a time.  Every output must be bit-identical, so the comparisons are on
``tobytes()``, not within a tolerance.
"""

import numpy as np
import pytest

from maldoc import ByteStream, GrayImage, bigram_counts, byteplot_image, gist
from maldoc.audio import mel_filterbank
from maldoc.image import GIST_SIZE, _overlap_weights, dct_image_from_counts, gabor_bank

from oracles import (
    bigram_counts_reference,
    gabor_bank_reference,
    gist_reference,
    mel_filterbank_reference,
    overlap_weights_reference,
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


def _streams(corpus_2024) -> list[ByteStream]:
    streams = [ByteStream.from_file(p) for p in corpus_2024]
    # shortest bigram input, a one-row byteplot, and an all-equal run
    streams += [ByteStream(b"\x00\xff"), ByteStream(bytes(range(20))), ByteStream(b"\x07" * 5000)]
    return streams


def test_bigram_counts_match_unbuffered_add(corpus_2024):
    assert len(corpus_2024) >= 100
    bad = [
        s.path or s.data[:8]
        for s in _streams(corpus_2024)
        if not same_bytes(bigram_counts(s), bigram_counts_reference(s))
    ]
    assert bad == []


@pytest.mark.parametrize("kind", ["byteplot-gist", "bigramdct-gist"])
def test_gist_matches_per_filter_loop(corpus_2024, kind):
    bad = []
    for s in _streams(corpus_2024):
        if kind == "byteplot-gist":
            image = byteplot_image(s)
        else:
            image = dct_image_from_counts(bigram_counts_reference(s))
        if not same_bytes(gist(image, kind).values, gist_reference(image, kind).values):
            bad.append(s.path or s.data[:8])
    assert bad == []


def test_gist_matches_on_single_pixel_and_single_row_images():
    rng = np.random.default_rng(4)
    for shape in [(1, 1), (1, 32), (1, 1024), (3, 1), (65, 64), (2048, 7)]:
        image = GrayImage(pixels=rng.random(shape))
        assert same_bytes(gist(image).values, gist_reference(image).values), shape
