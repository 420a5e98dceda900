"""Transient memory of the featurizers and classifiers on large inputs.

The bounds come from measurements (2 cores, Python 3.11, numpy 2.4): each
is the measured peak plus a margin, far below what the whole-array and
per-tree-copy versions these tests guard against took.
"""

import gc
import hashlib
import logging
import os
import re
import shutil
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from maldoc import ByteStream, FeatureCache, ModelSpec, audio, image, pipeline
from maldoc.core import STATIC_KINDS, DataError, FeatureVector
from maldoc.ctph import ssdeep_digest
from maldoc.dynamic import parse_report
from maldoc.ml import KnnModel, LabeledSet, load_model, predict_batch, save_model, train_model
from oracles import call_log_reference

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


@pytest.fixture(scope="module")
def gist_cache(tmp_path_factory) -> FeatureCache:
    """A saved 2,000-row ``byteplot-gist`` table (11.9 MB on disk)."""
    rng = np.random.default_rng(4)
    cache = FeatureCache(tmp_path_factory.mktemp("cache"))
    for i in range(2000):
        digest = hashlib.sha256(i.to_bytes(4, "little")).hexdigest()
        cache.put(digest, FeatureVector("byteplot-gist", rng.random(320)))
    cache.save("byteplot-gist")
    return cache


def test_cache_save_peak_is_about_one_row(gist_cache):
    # measured: 68 kB, the sorted digest list (16 kB), one 6.2 kB row as
    # reprs, text and bytes, and the file's 8 kB buffer; the table's index
    # is written after it, one row at a time, and added 14 kB.  The
    # whole-table writer, with its row list, joined text and encoded
    # bytes, took 36 MB
    _, peak = _traced_peak(gist_cache.save, "byteplot-gist")
    assert (gist_cache.directory / ".index" / "byteplot-gist.bin").exists()
    assert peak <= 128 * 1024, peak / MB


@pytest.mark.parametrize("line_end", [b"\n", b"\r", pytest.param(None, id="index")])
def test_cache_load_peak_is_the_parsed_rows(gist_cache, tmp_path, monkeypatch, line_end):
    # measured: 5.4 MB, the 4.9 MB of parsed arrays plus their headers, the
    # digests and the dict, with rows ending in LF or in CR alone (the
    # reader splits at both); the whole-text reader, with the file's bytes,
    # its decoded text and its list of lines, took 23.9 MB.  Through the
    # table's index (line_end None): 5.4 MB, the one 4.9 MB matrix, its
    # row views, the digests and the dict; the table is hashed in blocks
    # before the matrix is allocated, so no block is held beside it
    raw = (gist_cache.directory / "byteplot-gist.tsv").read_bytes()
    (tmp_path / "byteplot-gist.tsv").write_bytes(raw.replace(b"\n", line_end or b"\n"))
    if line_end is None:
        shutil.copytree(gist_cache.directory / ".index", tmp_path / ".index")
        monkeypatch.setattr(pipeline, "_read_table", lambda *args: pytest.fail("the table was parsed"))
    table, peak = _traced_peak(FeatureCache(tmp_path)._table, "byteplot-gist")
    assert len(table) == 2000
    assert peak <= sum(v.nbytes for v in table.values()) + MB, peak / MB


def test_knn_model_load_peak_is_about_twice_the_vectors(tmp_path):
    # measured: 2.4 times the 1.5 MB of vectors, the rows as read (with an
    # array header each) and their stacked copy; the whole-text reader, with
    # the file's bytes, its decoded text, its list of lines and every row as
    # a list of floats, took 10.3 times
    rng = np.random.default_rng(7)
    vectors = rng.normal(size=(3000, 64))
    path = tmp_path / "knn.txt"
    save_model(KnnModel(k=5, vectors=vectors, labels=rng.integers(0, 2, 3000), seed=0), path)
    model, peak = _traced_peak(load_model, path)
    assert model.vectors.tobytes() == vectors.tobytes()
    assert peak <= 3 * vectors.nbytes, peak / vectors.nbytes


def test_model_load_refuses_an_over_long_line_in_bounded_memory(tmp_path):
    # a model file of one 50 MiB line: the reader that held each line whole
    # peaked at 100 MiB before it refused it
    path = tmp_path / "model.txt"
    path.write_bytes(b"0" * (50 * MB))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="^model file line 1 is over 256 characters$"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MB, peak / MB


def test_manifest_read_refuses_an_over_long_line_in_bounded_memory(tmp_path):
    # a manifest of one 50 MiB line: the reader that held the file whole,
    # with its decoded text, peaked at 100 MiB before csv refused the field.
    # Measured: 1.03 MiB, the piece of the line read up to one character
    # past the cap, held twice as readline joins its decoded chunks
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"0" * (50 * MB))
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 1: over {pipeline._MAX_CSV_CHARS} characters$"):
            pipeline.ingest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * pipeline._MAX_CSV_CHARS + MB / 4, peak / MB


def test_manifest_read_refuses_a_record_of_a_million_lines_in_bounded_memory(tmp_path):
    # a record of '"<LF>",' a million times: each line is short, so the reader
    # that capped lines one at a time held the record whole, 8.1 MiB of
    # fields, before ingest rejected it; capped whole, it is refused at its
    # first line once its lines sum past the cap
    path = tmp_path / "manifest.csv"
    path.write_bytes(b"path,label\n" + b'"\n",' * 1_000_000)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: over {pipeline._MAX_CSV_CHARS} characters$"):
            pipeline.ingest(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * pipeline._MAX_CSV_CHARS + MB / 4, peak / MB


def test_model_load_refuses_a_huge_tail_after_one_capped_read(tmp_path):
    # a saved model, then a 2 GiB hole of NUL bytes: ASCII, so the reader that
    # read every byte past the model to check it loaded the file; a model file
    # ends at its model, and the tail's first line is over the cap
    rng = np.random.default_rng(8)
    train = LabeledSet(rng.normal(size=(40, 4)), np.arange(40) % 2, "r")
    model = train_model(ModelSpec("rf", n_trees=3), train, seed=0)
    path = tmp_path / "model.txt"
    save_model(model, path)
    lines = path.read_bytes().count(b"\n")
    os.truncate(path, 2 * 1024 * MB)  # sparse: no disk block is written
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=f"^model file line {lines + 1} is past the end of the model$"):
            load_model(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= MB, peak / MB


def test_report_parse_peak_is_under_10_bytes_per_report_byte():
    # a 12 MiB report of 400,000 calls.  Measured: 8.7 bytes per byte, the
    # decoded text and the parsed document; the per-call list of pairs and
    # its tuple copy took 11.0
    rng = np.random.default_rng(9)
    apis, statuses = rng.integers(0, 300, 400_000), rng.integers(0, 2, 400_000)
    calls = ", ".join(f'{{"api": "Nt{a:04d}", "status": {s}}}' for a, s in zip(apis.tolist(), statuses.tolist()))
    raw = f'{{"behavior": [{calls}]}}'.encode()
    del calls
    counts, peak = _traced_peak(parse_report, raw)
    assert list(counts.items()) == list(Counter(call_log_reference(raw)).items())
    assert peak <= 10 * len(raw), peak / len(raw)


def test_ssdeep_peak_is_at_most_12_5_bytes_per_input_byte():
    # measured on 8 MiB of random bytes: 12.0 bytes per byte, the rolling
    # hash's three uint32 arrays; widening the input to uint32 before the
    # lane sums took 16
    data = _random_bytes(8 * MB)
    _, peak = _traced_peak(ssdeep_digest, data)
    assert peak <= 12.5 * len(data), peak / len(data)


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


def _spectra_alive_at(monkeypatch, kinds, data):
    """compute_features' output, the number of projections power_frames
    made, and how many of them were alive as chroma, ssdeep and structural
    started."""
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
    out = pipeline.compute_features(kinds, data)
    return out, len(spectra), alive_at


def test_compute_features_releases_the_spectra_after_the_last_audio_kind(monkeypatch):
    out, n_spectra, alive_at = _spectra_alive_at(monkeypatch, STATIC_KINDS, ByteStream(_random_bytes(100_000)))
    assert all(not isinstance(v, Exception) for v in out.values())
    assert n_spectra == 2  # the mel projection and the chroma energy
    assert alive_at["chroma"] == 2  # both still cached while audio kinds remain
    assert alive_at["ssdeep"] == alive_at["structural"] == 0


def test_compute_features_runs_interleaved_audio_kinds_as_one_group(monkeypatch):
    # the audio kinds run together at the first one's position, so a kind
    # requested between two of them runs after their projections are gone
    kinds = ["mfcc", "structural", "chroma"]
    data = ByteStream(_random_bytes(100_000))
    expected = {kind: pipeline.compute_feature(kind, data).values.tobytes() for kind in kinds}
    out, n_spectra, alive_at = _spectra_alive_at(monkeypatch, kinds, data)
    assert list(out) == kinds
    assert {kind: out[kind].values.tobytes() for kind in kinds} == expected
    assert n_spectra == 2
    assert alive_at["chroma"] == 2
    assert alive_at["structural"] == 0


def test_cache_load_drops_an_over_long_line_in_bounded_memory(tmp_path, caplog):
    # measured: 47 kB, the text reader's chunks and the two kept rows; the
    # reader that held each line whole took 60 MB on this table: the 20 MB
    # line decoded, split into lines and split at tabs
    digests = [hashlib.sha256(bytes([i])).hexdigest() for i in range(3)]
    row = lambda digest: digest + "".join(f"\t{v!r}" for v in np.linspace(0.0, 1.0, 25).tolist())
    long_line = digests[0] + "0" * (20 * MB)
    text = "\n".join([pipeline._cache_header("structural"), long_line, row(digests[1]), row(digests[2])])
    (tmp_path / "structural.tsv").write_text(text + "\n")
    del long_line, text
    with caplog.at_level(logging.WARNING, logger="maldoc.pipeline"):
        table, peak = _traced_peak(FeatureCache(tmp_path)._table, "structural")
    assert sorted(table) == digests[1:]
    assert [rec.getMessage() for rec in caplog.records] == [
        "cache structural.tsv: dropping a line of over 8064 characters"
    ]
    assert peak <= MB, peak / MB
