"""Transient memory of the featurizers and classifiers on large inputs.

The bounds come from measurements (2 cores, Python 3.11, numpy 2.4): each
is the measured peak plus a margin, far below what the whole-array and
per-tree-copy versions these tests guard against took.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from maldoc import ByteStream, ModelSpec, audio, image, pipeline
from maldoc.ml import LabeledSet, predict_batch, train_model
from maldoc.core import STATIC_KINDS

MB = 2**20


def _random_bytes(n: int, seed: int = 0) -> bytes:
    return np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes()


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_audio_kinds_peak_is_the_mel_projection_twice():
    # measured on 8 MiB of random bytes: 33.5 MB, the 16 MB mel projection,
    # mfcc's one copy of it and the 1.5 MB chroma energy; the blocks' power
    # and FFT buffers (2.6 MB per thread) are freed before mfcc runs.  The
    # whole power array and its float64 samples took 193 MB
    kinds = ["mfcc", "chroma", "melspectrogram"]
    data = ByteStream(_random_bytes(8 * MB))
    pipeline.compute_features(kinds, data)  # warm the filterbank caches
    out, peak = _traced_peak(pipeline.compute_features, kinds, data)
    assert all(not isinstance(v, Exception) for v in out.values())
    assert peak <= 40 * MB, peak / MB


def test_byte_signal_copies_no_sample():
    # the samples are a view of the bytes: measured on a 1 MB input, well
    # under 1 kB; the float64 samples took 8 MB
    samples, peak = _traced_peak(audio.byte_signal, _random_bytes(MB))
    assert samples.size == MB
    assert peak <= 64 * 1024, peak


def test_byteplot_scales_the_pixels_in_place():
    # measured on a 1 MB input: the 8 MB image and nothing more; the
    # out-of-place division took 16 MB
    img, peak = _traced_peak(image.byteplot_image, _random_bytes(MB))
    assert peak <= img.nbytes + MB, peak / MB


def test_bigram_counts_peak_is_one_chunk_of_codes():
    # measured on 8 MiB of random bytes: 2.5 MB, mostly the 1 MiB intp
    # chunk buffer and two 512 kB count arrays; one bincount over every
    # pair's codes took more than 32 MB
    counts, peak = _traced_peak(image.bigram_counts, _random_bytes(8 * MB))
    assert counts.sum() == 8 * MB - 1
    assert peak <= 3 * MB, peak / MB


def test_knn_prediction_peak_at_the_cv_warm_shape():
    # measured at 40 queries x 360 rows x 365 dims: 0.9 MB, the Gram block
    # and its partitioned copy (115 kB each) and the candidates' differences
    # (350 kB, twice); the difference blocks of 7 queries each took 7.4 MB
    rng = np.random.default_rng(6)
    X = rng.normal(size=(360, 365))
    y = (X[:, 0] > 0).astype(np.int64)
    model = train_model(ModelSpec("knn"), LabeledSet(X, y, "t"))
    queries = rng.normal(size=(40, 365))
    _, peak = _traced_peak(predict_batch, model, queries)
    assert peak <= 2 * MB, peak / MB


@pytest.mark.parametrize("kind", ["rf", "vec", "knn"])
def test_training_and_prediction_leave_no_reference_cycles(kind):
    rng = np.random.default_rng(5)
    X = rng.normal(size=(120, 30))
    y = (X[:, 0] + rng.normal(scale=0.5, size=120) > 0).astype(np.int64)
    gc.collect()
    gc.disable()
    try:
        model = train_model(ModelSpec(kind, n_trees=10), LabeledSet(X, y, "t"), seed=3)
        predict_batch(model, X[:17])
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_compute_features_releases_the_spectra_after_the_last_audio_kind(monkeypatch):
    spectra: list[weakref.ref] = []
    alive_at: dict[str, int] = {}

    def keep_refs(fn):
        def wrapped(*args):
            result = fn(*args)
            spectra.extend(weakref.ref(array) for array in result)
            return result

        return wrapped

    def count_alive(name, fn):
        def wrapped(*args):
            alive_at[name] = sum(ref() is not None for ref in spectra)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(audio, "power_frames", keep_refs(audio.power_frames))
    monkeypatch.setattr(audio, "chroma", count_alive("chroma", audio.chroma))
    monkeypatch.setattr(pipeline, "ssdeep_digest", count_alive("ssdeep", pipeline.ssdeep_digest))
    monkeypatch.setattr(
        pipeline.tokenizer,
        "structural_feature",
        count_alive("structural", pipeline.tokenizer.structural_feature),
    )
    out = pipeline.compute_features(STATIC_KINDS, ByteStream(_random_bytes(100_000)))
    assert all(not isinstance(v, Exception) for v in out.values())
    assert len(spectra) == 2  # the mel projection and the chroma energy
    assert alive_at["chroma"] == 2  # both still cached while audio kinds remain
    assert alive_at["ssdeep"] == alive_at["structural"] == 0
