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

from maldoc import ByteStream, ModelSpec, audio, pipeline
from maldoc.ml import LabeledSet, predict_batch, train_model
from maldoc.core import STATIC_KINDS

MB = 2**20


def _random_stream(n: int, seed: int = 0) -> ByteStream:
    return ByteStream(np.random.default_rng(seed).integers(0, 256, n, dtype=np.uint8).tobytes())


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_power_frames_peak_is_the_power_array_plus_one_block():
    # measured on a 1 MB input: the 16 MB power array plus 4.1 MB, one
    # block's windowed frames (2 MB) and complex spectrum (2.1 MB); the
    # whole-array pass took 64 MB above the power array
    signal = audio.byte_signal(_random_stream(MB))
    audio.power_frames(signal)  # warm the window cache
    power, peak = _traced_peak(audio.power_frames, signal)
    assert peak <= power.nbytes + 6 * MB, (peak / MB, power.nbytes / MB)


def test_byte_signal_scales_the_samples_in_place():
    # measured on a 1 MB input: the 8 MB samples and nothing more; the
    # out-of-place arithmetic took 16 MB
    samples, peak = _traced_peak(audio.byte_signal, _random_stream(MB))
    assert peak <= samples.nbytes + 2 * MB, peak / MB


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

    def keep_ref(fn):
        def wrapped(*args):
            result = fn(*args)
            spectra.append(weakref.ref(result))
            return result

        return wrapped

    def count_alive(name, fn):
        def wrapped(*args):
            alive_at[name] = sum(ref() is not None for ref in spectra)
            return fn(*args)

        return wrapped

    monkeypatch.setattr(audio, "power_frames", keep_ref(audio.power_frames))
    monkeypatch.setattr(audio, "mel_power", keep_ref(audio.mel_power))
    monkeypatch.setattr(audio, "chroma", count_alive("chroma", audio.chroma))
    monkeypatch.setattr(pipeline, "ssdeep_digest", count_alive("ssdeep", pipeline.ssdeep_digest))
    monkeypatch.setattr(
        pipeline.tokenizer,
        "structural_feature",
        count_alive("structural", pipeline.tokenizer.structural_feature),
    )
    out = pipeline.compute_features(STATIC_KINDS, _random_stream(100_000))
    assert all(not isinstance(v, Exception) for v in out.values())
    assert len(spectra) == 2
    assert alive_at["chroma"] == 2  # both still cached while audio kinds remain
    assert alive_at["ssdeep"] == alive_at["structural"] == 0
