"""Manifest ingest, cache behavior, experiments, reports, and the CLI."""

import builtins
import errno
import hashlib
import logging
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from maldoc import (
    ByteStream,
    DataError,
    FeatureCache,
    ModelSpec,
    bigram_dct_image,
    byteplot_image,
    compute_feature,
    emit_report,
    featurize_all,
    gist,
    hash_feature,
    ingest,
    make_corpus,
    parse_report_csv,
    run_experiment,
    ssdeep_digest,
    structural_feature,
)
from maldoc import audio, cli, core, image, pipeline
from maldoc.audio import byte_signal, chroma, melspectrogram
from maldoc.cli import main
from maldoc.core import FIXED_DIMS, STATIC_KINDS
from maldoc.ml import CvReport
from maldoc.pipeline import FEATURE_VERSIONS, compute_features

from oracles import (
    cache_table_bytes_reference,
    cache_table_reference,
    chroma_energy_reference,
    mel_power_reference,
    mfcc_reference,
    power_frames_reference,
)

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- ingest

def test_ingest_synthetic_corpus(small_corpus):
    manifest = ingest(small_corpus)
    assert len(manifest.rows) == 60
    assert manifest.rejects == ()
    labels = [r.label for r in manifest.rows]
    assert labels.count("benign") == 30
    assert labels.count("malware") == 30
    for row in manifest.rows:
        assert row.path.is_file()
        assert len(row.sha256) == 64
        assert row.report_path is not None and row.report_path.is_file()


def test_ingest_resolves_paths_against_manifest_dir(tmp_path):
    (tmp_path / "deep").mkdir()
    (tmp_path / "deep" / "a.pdf").write_bytes(b"%PDF-1.4 test")
    man = tmp_path / "manifest.csv"
    man.write_text("path,label\ndeep/a.pdf,benign\n")
    manifest = ingest(man)
    assert manifest.rows[0].path == tmp_path / "deep" / "a.pdf"


def test_ingest_first_copy_wins_on_duplicate_content(tmp_path):
    (tmp_path / "a.pdf").write_bytes(b"same bytes")
    (tmp_path / "b.pdf").write_bytes(b"same bytes")
    man = tmp_path / "m.csv"
    man.write_text("path,label\na.pdf,benign\nb.pdf,malware\n")
    manifest = ingest(man)
    assert len(manifest.rows) == 1
    assert manifest.rows[0].path.name == "a.pdf"
    assert manifest.rows[0].label == "benign"
    assert manifest.duplicates == ("b.pdf",)


@pytest.mark.parametrize("command", ["featurize", "cv"])
def test_cli_names_a_duplicate_row_once(tmp_path, command):
    import subprocess
    import sys

    (tmp_path / "a.pdf").write_bytes(b"%PDF-1.4 first")
    (tmp_path / "b.pdf").write_bytes(b"%PDF-1.4 second /JS")
    (tmp_path / "twin.pdf").write_bytes(b"%PDF-1.4 first")
    man = tmp_path / "m.csv"
    man.write_text("path,label\na.pdf,benign\nb.pdf,malware\ntwin.pdf,malware\n")
    common = ["--manifest", str(man), "--cache", str(tmp_path / "cache")]
    argv = {
        "featurize": ["featurize", *common, "--kinds", "structural"],
        "cv": ["cv", *common, "--model", "rf", "--features", "apicalls", "--folds", "2"],
    }[command]
    # in a subprocess: pytest's log capture would keep a logging warning out of capsys
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "maldoc", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    lines = [line for line in proc.stderr.splitlines() if "twin.pdf" in line]
    assert lines == ["duplicate: twin.pdf: same content as an earlier row"], proc.stderr


def test_ingest_rejects_bad_rows_individually(tmp_path):
    (tmp_path / "ok.pdf").write_bytes(b"fine")
    man = tmp_path / "m.csv"
    man.write_text(
        "path,label\n"
        "ok.pdf,benign\n"
        "missing.pdf,benign\n"
        "ok.pdf,gray\n"
        "short,row,count,extra\n"
        "nul\0.pdf,malware\n"
    )
    manifest = ingest(man)
    assert len(manifest.rows) == 1
    reasons = dict(manifest.rejects)
    assert "missing.pdf" in reasons
    assert any("gray" in reason for reason in reasons.values())
    assert "embedded null byte" in reasons["nul\0.pdf"]
    assert len(manifest.rejects) == 4


def test_ingest_reads_paths_as_written(tmp_path):
    # a quoted line break, and U+2028, which str.splitlines also breaks at
    names = ["a\nb.pdf", "c\u2028d.pdf"]
    for name in names:
        (tmp_path / name).write_bytes(name.encode())
        (tmp_path / name.replace("\n", "").replace("\u2028", "")).write_bytes(b"another file")
    man = tmp_path / "m.csv"
    man.write_text('path,label\n"a\nb.pdf",malware\nc\u2028d.pdf,benign\n', encoding="utf-8")
    manifest = ingest(man)
    assert manifest.rejects == ()
    assert [(row.path, row.sha256) for row in manifest.rows] == [
        (tmp_path / name, hashlib.sha256(name.encode()).hexdigest()) for name in names]


def test_ingest_numbers_a_reject_by_the_line_its_record_starts_on(tmp_path):
    (tmp_path / "a\nb.pdf").write_bytes(b"first")
    man = tmp_path / "m.csv"
    # the quoted path takes lines 2 and 3, so the bad record starts on line 4
    man.write_text('path,label\n"a\nb.pdf",malware\nc.pdf,benign,extra\n', encoding="utf-8")
    manifest = ingest(man)
    assert manifest.rejects == (("line 4", "wrong field count"),)


def test_ingest_fails_only_when_nothing_survives(tmp_path):
    man = tmp_path / "m.csv"
    man.write_text("path,label\nmissing.pdf,benign\n")
    with pytest.raises(DataError, match="no usable rows"):
        ingest(man)


def test_ingest_validates_header(tmp_path):
    man = tmp_path / "m.csv"
    man.write_text("file,verdict\nx,benign\n")
    with pytest.raises(DataError, match="header"):
        ingest(man)
    man.write_text("")
    with pytest.raises(DataError, match="empty"):
        ingest(man)


def test_ingest_missing_manifest_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        ingest(tmp_path / "nope.csv")


def _featurize_exit(manifest, tmp_path):
    return main(["featurize", "--manifest", str(manifest), "--kinds", "structural",
                 "--cache", str(tmp_path / "cache")])


def test_non_utf8_manifest_is_data_error(tmp_path, capsys):
    (tmp_path / "ok.pdf").write_bytes(b"fine")
    man = tmp_path / "m.csv"
    man.write_bytes(b"path,label\nok.pdf,benign\n\xff\xfe.pdf,benign\n")
    with pytest.raises(DataError, match="line 3: not valid UTF-8"):
        ingest(man)
    assert _featurize_exit(man, tmp_path) == 2
    assert "not valid UTF-8" in capsys.readouterr().err


def test_manifest_field_over_the_csv_limit_is_data_error(tmp_path, capsys):
    (tmp_path / "ok.pdf").write_bytes(b"fine")
    man = tmp_path / "m.csv"
    man.write_text("path,label\nok.pdf,benign\n" + "x" * 200_000 + ".pdf,benign\n")
    with pytest.raises(DataError, match="line 3: field larger than field limit"):
        ingest(man)
    assert _featurize_exit(man, tmp_path) == 2
    assert "field limit" in capsys.readouterr().err


# ---------------------------------------------------------------- cache

def test_featurize_is_idempotent_and_cache_bytes_stable(small_corpus, tmp_path):
    manifest = ingest(small_corpus)
    cache_dir = tmp_path / "cache"
    cache = FeatureCache(cache_dir)
    kinds = ["structural", "ssdeep"]
    first = featurize_all(manifest, kinds, cache)
    assert first.computed == {"structural": 60, "ssdeep": 60}
    assert first.errors == ()
    snapshot = {k: (cache_dir / f"{k}.tsv").read_bytes() for k in kinds}

    again = featurize_all(ingest(small_corpus), kinds, FeatureCache(cache_dir))
    assert again.computed == {"structural": 0, "ssdeep": 0}
    for k in kinds:
        assert (cache_dir / f"{k}.tsv").read_bytes() == snapshot[k]


def test_cache_round_trip_is_exact(small_corpus, tmp_path):
    manifest = ingest(small_corpus)
    cache_dir = tmp_path / "cache"
    featurize_all(manifest, ["mfcc"], FeatureCache(cache_dir))
    fresh = FeatureCache(cache_dir)
    row = manifest.rows[0]
    direct = compute_feature("mfcc", ByteStream.from_file(row.path))
    cached = fresh.get(row.sha256, "mfcc")
    assert np.array_equal(cached, direct.values)


def test_cache_file_layout(small_corpus, tmp_path):
    manifest = ingest(small_corpus)
    cache_dir = tmp_path / "cache"
    featurize_all(manifest, ["structural"], FeatureCache(cache_dir))
    lines = (cache_dir / "structural.tsv").read_text().splitlines()
    assert lines[0] == f"# maldoc-cache kind=structural version={FEATURE_VERSIONS['structural']}"
    digests = [line.split("\t")[0] for line in lines[1:]]
    assert digests == sorted(digests)
    assert len(digests) == 60


def test_cache_tables_match_the_whole_table_writer(small_corpus, tmp_path, caplog):
    manifest = ingest(small_corpus)
    cache_dir = tmp_path / "cache"
    cache = FeatureCache(cache_dir)
    assert featurize_all(manifest, STATIC_KINDS, cache).errors == ()
    with caplog.at_level(logging.WARNING, logger="maldoc.pipeline"):
        for kind in STATIC_KINDS:
            raw = (cache_dir / f"{kind}.tsv").read_bytes()
            assert raw == cache_table_bytes_reference(kind, cache._table(kind)), kind
            loaded = FeatureCache(cache_dir)._table(kind)
            assert len(loaded) == 60
            assert {d: v.tobytes() for d, v in loaded.items()} == {
                d: v.tobytes() for d, v in cache._table(kind).items()
            }
    assert caplog.records == []


# bytes that str.splitlines breaks at (CR, CRLF, VT, FF, FS, GS, RS), bytes
# that decode to U+FFFD (among them 0x85, NEL in Latin-1, and U+2028 in
# UTF-8), and other text a torn or edited table can hold
_CACHE_FUZZ_TOKENS = [
    b"\r", b"\r\n", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", b"\n", b"\n\n", b"\t",
    b"\x85", b"\xe2\x80\xa8", b"\xff", b"\xc3\xa9", b"\x00", b" ", b"nan", b"-inf", b"1e999", b"A",
]


def _fuzzed_cache_table(rng: np.random.Generator, kind: str) -> bytes:
    """A cache table of a few rows with seeded damage to its header, its
    digests and its text."""
    width = FIXED_DIMS[kind]
    rows = []
    for _ in range(int(rng.integers(0, 6))):
        digest = hashlib.sha256(rng.bytes(8)).hexdigest()
        if rng.random() < 0.2:  # one character swapped in place: still 64, no longer lowercase hex
            at = int(rng.integers(64))
            digest = digest[:at] + "GA"[int(rng.integers(2))] + digest[at + 1 :]
        values = rng.normal(scale=10.0 ** int(rng.integers(-3, 4)), size=width)
        fields = [repr(float(v)) for v in values][: width - int(rng.integers(0, 3) == 0)]  # short rows
        rows.append(digest + "\t" + "\t".join(fields))
    header = [
        f"# maldoc-cache kind={kind} version={FEATURE_VERSIONS[kind]}",
        f"# maldoc-cache kind={kind} version=0",  # stale
        f"# maldoc-cache kind=structural version={FEATURE_VERSIONS['structural']}",  # another kind's
        None,  # missing
    ][int(rng.choice(4, p=[0.7, 0.1, 0.1, 0.1]))]
    text = bytearray("\n".join(([header] if header is not None else []) + rows).encode("ascii"))
    if rng.random() < 0.8:
        text += b"\n"  # else the final newline is missing
    for _ in range(int(rng.integers(0, 5))):
        at = int(rng.integers(0, len(text) + 1))
        text[at:at] = _CACHE_FUZZ_TOKENS[int(rng.integers(len(_CACHE_FUZZ_TOKENS)))]
    return bytes(text)


def test_cache_reader_matches_the_whole_text_reader_on_fuzzed_tables(tmp_path, caplog):
    rng = np.random.default_rng(22)
    for case in range(300):
        kind = ("chroma", "structural", "ssdeep")[case % 3]
        raw = _fuzzed_cache_table(rng, kind) if case else b""
        cache_dir = tmp_path / str(case)
        cache_dir.mkdir()
        (cache_dir / f"{kind}.tsv").write_bytes(raw)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="maldoc.pipeline"):
            table = FeatureCache(cache_dir)._table(kind)
        expect, warned = cache_table_reference(raw, f"{kind}.tsv", kind)
        assert {d: v.tobytes() for d, v in table.items()} == {d: v.tobytes() for d, v in expect.items()}, raw
        assert [rec.getMessage() for rec in caplog.records] == warned, raw


def test_cache_table_read_error_is_data_error(tmp_path):
    # reading /proc/self/mem from offset 0 fails with EIO, though it is a
    # regular file by fstat
    mem = Path("/proc/self/mem")
    if not mem.exists():
        pytest.skip("needs Linux /proc/self/mem")
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "structural.tsv").symlink_to(mem)
    with pytest.raises(DataError, match=r"^cannot read .*structural\.tsv: \[Errno 5\]"):
        FeatureCache(cache_dir).get("a" * 64, "structural")


def test_version_bump_invalidates_kind(small_corpus, tmp_path, caplog):
    manifest = ingest(small_corpus)
    cache_dir = tmp_path / "cache"
    featurize_all(manifest, ["structural"], FeatureCache(cache_dir))
    path = cache_dir / "structural.tsv"
    body = path.read_text().splitlines()
    body[0] = "# maldoc-cache kind=structural version=0"
    path.write_text("\n".join(body) + "\n")
    with caplog.at_level(logging.WARNING):
        result = featurize_all(manifest, ["structural"], FeatureCache(cache_dir))
    assert result.computed["structural"] == 60
    assert any("version-stale" in rec.message for rec in caplog.records)


def test_featurizer_error_excludes_sample_for_that_kind_only(tmp_path):
    (tmp_path / "empty.pdf").write_bytes(b"")
    (tmp_path / "ok.pdf").write_bytes(b"%PDF-1.4 obj endobj")
    man = tmp_path / "m.csv"
    man.write_text("path,label\nempty.pdf,benign\nok.pdf,malware\n")
    manifest = ingest(man)
    cache = FeatureCache(tmp_path / "cache")
    result = featurize_all(manifest, ["byteplot-gist", "structural"], cache)
    # the empty file cannot be plotted but still has keyword counts
    assert result.computed == {"byteplot-gist": 1, "structural": 2}
    assert len(result.errors) == 1
    sha, kind, reason = result.errors[0]
    assert kind == "byteplot-gist"
    assert "empty" in reason


def test_featurize_errors_stay_per_kind_in_kind_order(tmp_path):
    (tmp_path / "empty.pdf").write_bytes(b"")
    (tmp_path / "one.pdf").write_bytes(b"%")
    man = tmp_path / "m.csv"
    man.write_text("path,label\nempty.pdf,benign\none.pdf,malware\n")
    manifest = ingest(man)
    cache = FeatureCache(tmp_path / "cache")
    result = featurize_all(manifest, STATIC_KINDS, cache)
    empty, one = (row.sha256 for row in manifest.rows)
    assert result.errors == (
        (empty, "byteplot-gist", "empty stream"),
        (empty, "bigramdct-gist", "insufficient bytes for bigrams"),
        (empty, "mfcc", "empty stream"),
        (empty, "chroma", "empty stream"),
        (empty, "melspectrogram", "empty stream"),
        (one, "bigramdct-gist", "insufficient bytes for bigrams"),
    )
    assert result.computed == {
        "byteplot-gist": 1,
        "bigramdct-gist": 0,
        "mfcc": 1,
        "chroma": 1,
        "melspectrogram": 1,
        "ssdeep": 2,
        "structural": 2,
    }
    empty_hash = ssdeep_digest(b"")
    assert empty_hash.canonical == "3::"
    assert np.array_equal(cache.get(empty, "ssdeep"), hash_feature(empty_hash))
    assert cache.get(empty, "structural") is not None


def test_featurize_caches_nothing_for_content_changed_since_ingest(tmp_path):
    manifest = ingest(make_corpus(tmp_path, n_total=4, seed=1))
    changed = next(row for row in manifest.rows if row.label == "benign")
    with open(changed.path, "ab") as f:
        f.write(b" /JS /JS /JS")
    cache = FeatureCache(tmp_path / "cache")
    result = featurize_all(manifest, ["mfcc", "structural"], cache)
    assert result.errors == (
        (changed.sha256, "mfcc", "content changed since ingest"),
        (changed.sha256, "structural", "content changed since ingest"),
    )
    assert result.computed == {"mfcc": 3, "structural": 3}
    assert cache.get(changed.sha256, "structural") is None
    assert changed.sha256 not in (tmp_path / "cache" / "structural.tsv").read_text()


@pytest.mark.parametrize("how", ["deleted", "fifo"])
def test_featurize_skips_only_a_sample_gone_since_ingest(tmp_path, how):
    manifest = ingest(make_corpus(tmp_path, n_total=6, seed=1))
    assert len(manifest.rows) == 6
    gone = manifest.rows[3]
    gone.path.unlink()
    if how == "fifo":
        os.mkfifo(gone.path)
    result = featurize_all(manifest, ["mfcc", "structural"], FeatureCache(tmp_path / "cache"))
    assert result.computed == {"mfcc": 5, "structural": 5}
    assert [(digest, kind) for digest, kind, _ in result.errors] == [
        (gone.sha256, "mfcc"),
        (gone.sha256, "structural"),
    ]
    assert all(f"cannot read {gone.path}" in reason for *_, reason in result.errors)
    saved = FeatureCache(tmp_path / "cache")  # reads back what featurize_all saved
    for row in manifest.rows:
        for kind in ("mfcc", "structural"):
            assert (saved.get(row.sha256, kind) is None) == (row is gone), (row.path.name, kind)


def test_featurize_output_does_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    manifest_path = make_corpus(tmp_path / "corpus", n_total=12, seed=5)
    (tmp_path / "corpus" / "empty.pdf").write_bytes(b"")
    (tmp_path / "corpus" / "tiny.pdf").write_bytes(b"%")  # fails fast, after the slow empty one
    # several power-frame blocks and bigram blocks, so each sample thread
    # also shares this sample's per-byte stages out over the split pool
    (tmp_path / "corpus" / "large.pdf").write_bytes(
        np.random.default_rng(5).integers(0, 256, 3 * image.BIGRAM_BLOCK_PAIRS + 2, dtype=np.uint8).tobytes()
    )
    header, *rows = manifest_path.read_text().splitlines()
    rows.insert(1, "empty.pdf,benign,")
    rows.insert(10, "tiny.pdf,malware,")
    rows.append("large.pdf,malware,")
    manifest_path.write_text("\n".join([header, *rows]) + "\n")
    manifest = ingest(manifest_path)
    empty, vanished, changed = manifest.rows[1], manifest.rows[4], manifest.rows[8]
    tiny = manifest.rows[10]
    vanished.path.unlink()
    with open(changed.path, "ab") as f:
        f.write(b" /JS")
    real = pipeline.compute_features

    def slow_on_empty(kinds, data):
        # the empty sample's featurizer errors are still pending when the rows
        # after it fail to read and the tiny sample's featurizer fails, so only
        # the sort into manifest order keeps them first
        if data.sha256 == empty.sha256:
            time.sleep(0.2)
        return real(kinds, data)

    monkeypatch.setattr(pipeline, "compute_features", slow_on_empty)

    results = {}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to shake out shared state
    try:
        for workers in (1, 2, 4):  # 4: more threads than the CI host has cores
            monkeypatch.setattr(core, "usable_cpus", lambda: workers)
            results[workers] = featurize_all(manifest, STATIC_KINDS, FeatureCache(tmp_path / f"c{workers}"))
    finally:
        sys.setswitchinterval(interval)
    assert results[1] == results[2] == results[4]
    for kind in STATIC_KINDS:
        one = (tmp_path / "c1" / f"{kind}.tsv").read_bytes()
        for workers in (2, 4):
            assert one == (tmp_path / f"c{workers}" / f"{kind}.tsv").read_bytes(), (kind, workers)
    failed = [digest for digest, _, _ in results[2].errors]
    assert failed == [empty.sha256] * 5 + [vanished.sha256] * 7 + [changed.sha256] * 7 + [tiny.sha256]
    healthy = len(manifest.rows) - 3  # the empty sample still has its hash and counts
    assert results[2].computed == {kind: healthy + (kind in ("ssdeep", "structural"))
                                   - (kind == "bigramdct-gist") for kind in STATIC_KINDS}
    assert results[2].errors[-1] == (tiny.sha256, "bigramdct-gist", "insufficient bytes for bigrams")


def test_featurize_admits_samples_by_count_and_bytes(tmp_path, monkeypatch):
    manifest = ingest(make_corpus(tmp_path, n_total=16, seed=3))
    largest = max(manifest.rows, key=lambda row: row.path.stat().st_size)
    budget = largest.path.stat().st_size - 1
    lock = threading.Lock()
    in_flight: dict[str, int] = {}  # digest -> size of each submitted, unfinished sample
    shared: set[str] = set()  # samples in flight beside another
    peaks = {"samples": 0, "shared_bytes": 0}

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, fn, kinds, data):
            with lock:
                in_flight[data.sha256] = len(data.data)
                peaks["samples"] = max(peaks["samples"], len(in_flight))
                if len(in_flight) > 1:
                    shared.update(in_flight)
                    peaks["shared_bytes"] = max(peaks["shared_bytes"], sum(in_flight.values()))

            def run():
                try:
                    time.sleep(0.02)  # long enough for the next samples to be admitted
                    return fn(kinds, data)
                finally:  # before the future is done, so before the next admission
                    with lock:
                        del in_flight[data.sha256]

            return super().submit(run)

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(core, "usable_cpus", lambda: 3)
    monkeypatch.setattr(pipeline, "_IN_FLIGHT_BYTES", budget)
    result = featurize_all(manifest, ["structural"], FeatureCache(tmp_path / "cache"))
    assert result.computed == {"structural": 16} and result.errors == ()
    assert 2 <= peaks["samples"] <= 3
    assert 0 < peaks["shared_bytes"] <= budget
    assert largest.sha256 not in shared


def test_cli_featurize_names_a_sample_deleted_after_ingest(tmp_path, monkeypatch, capsys):
    manifest_path = make_corpus(tmp_path, n_total=6, seed=1)
    removed = []

    def ingest_then_delete(path):
        manifest = ingest(path)
        manifest.rows[3].path.unlink()
        removed.append(manifest.rows[3].path)
        return manifest

    monkeypatch.setattr(cli, "ingest", ingest_then_delete)
    assert main(["featurize", "--manifest", str(manifest_path), "--kinds", "structural",
                 "--cache", str(tmp_path / "cache")]) == 2
    captured = capsys.readouterr()
    assert "structural: 5 computed" in captured.out
    assert f"structural: cannot read {removed[0]}" in captured.err
    saved = FeatureCache(tmp_path / "cache")  # the table is saved before the exit
    rows = ingest(manifest_path).rows  # the five samples left
    assert len(rows) == 5
    assert all(saved.get(row.sha256, "structural") is not None for row in rows)


def test_featurize_out_of_memory_costs_only_that_sample_and_kind(tmp_path, monkeypatch, capsys):
    manifest_path = make_corpus(tmp_path, n_total=6, seed=1)
    rows = ingest(manifest_path).rows
    big = rows[0]
    real = audio.byte_signal

    def byte_signal(raw):
        if hashlib.sha256(raw).hexdigest() == big.sha256:
            raise MemoryError()
        return real(raw)

    monkeypatch.setattr(audio, "byte_signal", byte_signal)
    with pytest.raises(MemoryError):
        compute_feature("mfcc", ByteStream.from_file(big.path))
    assert main(["featurize", "--manifest", str(manifest_path), "--kinds", "structural,mfcc",
                 "--cache", str(tmp_path / "cache")]) == 2
    captured = capsys.readouterr()
    assert "structural: 6 computed" in captured.out and "mfcc: 5 computed" in captured.out
    assert captured.err.splitlines() == [f"error: {big.path} mfcc: out of memory"]
    saved = FeatureCache(tmp_path / "cache")
    for row in rows:
        assert saved.get(row.sha256, "structural") is not None
        assert (saved.get(row.sha256, "mfcc") is None) == (row is big), row.path.name


def test_a_failed_shared_audio_stage_runs_once(monkeypatch):
    calls = []

    def byte_signal(raw):
        calls.append(len(raw))
        raise MemoryError()

    monkeypatch.setattr(audio, "byte_signal", byte_signal)
    out = compute_features(["mfcc", "chroma", "structural", "melspectrogram"], ByteStream(b"%PDF-1.4"))
    assert len(calls) == 1
    assert [type(out[kind]) for kind in ("mfcc", "chroma", "melspectrogram")] == [MemoryError] * 3
    assert isinstance(out["structural"], core.FeatureVector)


def test_cli_featurize_names_a_failing_sample_by_its_path(tmp_path, capsys):
    (tmp_path / "empty.pdf").write_bytes(b"")
    (tmp_path / "ok.pdf").write_bytes(b"%PDF-1.4 /JS /OpenAction")
    man = tmp_path / "m.csv"
    man.write_text("path,label\nempty.pdf,benign\nok.pdf,malware\n")
    assert main(["featurize", "--manifest", str(man), "--kinds", "mfcc",
                 "--cache", str(tmp_path / "cache")]) == 2
    err = capsys.readouterr().err
    assert f"error: {tmp_path / 'empty.pdf'} mfcc: empty stream" in err.splitlines()


def test_compute_features_equals_compute_feature(corpus_2024):
    for path in corpus_2024:
        data = ByteStream.from_file(path)
        batch = compute_features(STATIC_KINDS, data)
        assert list(batch) == list(STATIC_KINDS)
        for kind in STATIC_KINDS:
            assert batch[kind].kind == kind
            assert batch[kind].values.tobytes() == compute_feature(kind, data).values.tobytes()


def _stages_by_hand(raw: bytes) -> dict:
    """Each static kind's stage functions composed directly on raw bytes;
    the audio kinds read the whole-array power spectra, their whole-array
    filterbank products and the out-of-place mfcc of ``oracles.py``."""

    def power():
        return power_frames_reference(byte_signal(raw))

    return {
        "byteplot-gist": lambda: gist(byteplot_image(raw)),
        "bigramdct-gist": lambda: gist(bigram_dct_image(raw)),
        "mfcc": lambda: mfcc_reference(mel_power_reference(power())),
        "chroma": lambda: chroma(chroma_energy_reference(power())),
        "melspectrogram": lambda: melspectrogram(mel_power_reference(power())),
        "ssdeep": lambda: hash_feature(ssdeep_digest(raw)),
        "structural": lambda: structural_feature(raw),
    }


def test_compute_features_runs_each_kinds_own_stages(corpus_2024):
    # byteplot-gist and bigramdct-gist share a width, so only the values
    # show whether the kind table maps each kind to its own stages
    samples = [path.read_bytes() for path in corpus_2024] + [b"", b"\x00", b"\x00\xff"]
    for raw in samples:
        batch = compute_features(STATIC_KINDS, ByteStream(raw))
        for kind, stages in _stages_by_hand(raw).items():
            try:
                expected = stages()
            except ValueError as exc:
                got = batch[kind]
                assert (type(got), str(got)) == (type(exc), str(exc)), (kind, len(raw))
                continue
            got = batch[kind]
            assert isinstance(got, core.FeatureVector) and got.kind == kind, (kind, len(raw))
            assert got.values.tobytes() == expected.tobytes(), (kind, len(raw))


def test_compute_features_keeps_the_requested_order_and_rejects_unknown_kinds():
    data = ByteStream(b"%PDF-1.4 /JS " * 300)
    kinds = ["structural", "melspectrogram", "ssdeep", "mfcc"]
    assert list(compute_features(kinds, data)) == kinds
    with pytest.raises(ValueError, match="featurize handles static kinds only, got 'apicalls'"):
        compute_features(["mfcc", "apicalls"], data)
    with pytest.raises(ValueError, match="empty stream"):
        compute_feature("chroma", ByteStream(b""))


def test_featurize_rejects_dynamic_kind(small_corpus, tmp_path):
    manifest = ingest(small_corpus)
    with pytest.raises(ValueError, match="static kinds only"):
        featurize_all(manifest, ["apicalls"], FeatureCache(tmp_path / "c"))


# ---------------------------------------------------------------- experiments

@pytest.fixture(scope="module")
def featurized(small_corpus, tmp_path_factory):
    cache = FeatureCache(tmp_path_factory.mktemp("cache"))
    manifest = ingest(small_corpus)
    featurize_all(manifest, ["structural", "mfcc", "ssdeep"], cache)
    return manifest, cache


def test_structural_experiment_separates_synthetic_classes(featurized):
    manifest, cache = featurized
    rep = run_experiment(manifest, cache, ModelSpec("rf", n_trees=25), ["structural"], seed=1)
    assert rep.mean_accuracy >= 0.95
    assert rep.dims == FIXED_DIMS["structural"]
    assert rep.feature_kind == "structural"
    assert len(rep.fold_accuracies) == 10


def test_fused_experiment_concatenates_dims(featurized):
    manifest, cache = featurized
    rep = run_experiment(manifest, cache, ModelSpec("knn", k=3), ["structural", "mfcc"], seed=0, folds=5)
    assert rep.dims == FIXED_DIMS["structural"] + FIXED_DIMS["mfcc"]
    assert rep.feature_kind == "structural+mfcc"


def test_dynamic_experiment_runs_from_reports(featurized):
    manifest, cache = featurized
    rep = run_experiment(manifest, cache, ModelSpec("rf", n_trees=25), ["apicalls"], seed=3)
    assert rep.feature_kind == "apicalls"
    assert rep.mean_accuracy >= 0.9


def test_apicalls_cannot_fuse_with_static_kinds(featurized):
    manifest, cache = featurized
    with pytest.raises(ValueError, match="cannot be fused"):
        run_experiment(manifest, cache, ModelSpec("knn"), ["apicalls", "structural"])


def test_experiment_requires_cached_features(small_corpus, tmp_path):
    manifest = ingest(small_corpus)
    empty_cache = FeatureCache(tmp_path / "empty")
    with pytest.raises(DataError, match="not enough featurized"):
        run_experiment(manifest, empty_cache, ModelSpec("knn"), ["chroma"])


def test_experiment_rejects_unknown_kind(featurized):
    manifest, cache = featurized
    with pytest.raises(ValueError, match="unknown feature kind"):
        run_experiment(manifest, cache, ModelSpec("knn"), ["entropy"])


def test_experiment_rejects_a_repeated_kind(featurized):
    manifest, cache = featurized
    with pytest.raises(ValueError, match="feature kind 'structural' given twice"):
        run_experiment(manifest, cache, ModelSpec("knn"), ["structural", "structural"])


def test_same_seed_reproduces_fold_accuracies(featurized):
    manifest, cache = featurized
    a = run_experiment(manifest, cache, ModelSpec("rf", n_trees=15), ["ssdeep"], seed=9)
    b = run_experiment(manifest, cache, ModelSpec("rf", n_trees=15), ["ssdeep"], seed=9)
    assert a.fold_accuracies == b.fold_accuracies


# ---------------------------------------------------------------- reports

def test_report_csv_round_trip(featurized):
    manifest, cache = featurized
    reps = [
        run_experiment(manifest, cache, ModelSpec("knn", k=3), ["structural"], seed=0, folds=5),
        run_experiment(manifest, cache, ModelSpec("rf", n_trees=15), ["mfcc"], seed=0, folds=5),
    ]
    blob = emit_report(reps, "csv")
    parsed = parse_report_csv(blob.data)
    assert len(parsed) == 2
    by_kind = {r.feature_kind: r for r in parsed}
    for rep in reps:
        back = by_kind[rep.feature_kind]
        assert back.fold_accuracies == rep.fold_accuracies
        assert back.mean_accuracy == rep.mean_accuracy
        assert back.dims == rep.dims
        assert back.seed == rep.seed
        assert back.model_kind == rep.model_kind


def test_report_text_is_a_model_by_feature_table(featurized):
    manifest, cache = featurized
    reps = [
        run_experiment(manifest, cache, ModelSpec("knn", k=3), ["structural"], seed=0, folds=5),
        run_experiment(manifest, cache, ModelSpec("rf", n_trees=15), ["structural"], seed=0, folds=5),
    ]
    text = emit_report(reps, "text").data.decode("ascii")
    lines = text.splitlines()
    assert "feature" in lines[0] and "knn" in lines[0] and "rf" in lines[0]
    assert any(line.startswith("structural") for line in lines[2:])


def _cv_report(feature, model, seed, mean, folds=2):
    return CvReport(fold_accuracies=(mean,) * folds, mean_accuracy=mean, model_kind=model,
                    feature_kind=feature, seed=seed, dims=FIXED_DIMS[feature])


def test_report_text_keeps_one_row_per_seed_in_any_input_order():
    reps = [_cv_report("structural", "rf", 2, 0.6), _cv_report("structural", "rf", 1, 0.9),
            _cv_report("mfcc", "knn", 1, 0.7)]
    texts = {emit_report(order, "text").data.decode("ascii") for order in (reps, reps[::-1])}
    assert len(texts) == 1
    lines = texts.pop().splitlines()
    assert lines[0].split() == ["feature", "dims", "seed", "knn", "rf"]
    assert [line.split() for line in lines[2:]] == [
        ["mfcc", "20", "1", "0.7000", "-"],
        ["structural", "25", "1", "-", "0.9000"],
        ["structural", "25", "2", "-", "0.6000"],
    ]


@pytest.mark.parametrize("folds", [2, 3])
def test_report_text_refuses_two_results_for_one_cell(folds):
    reps = [_cv_report("structural", "rf", 1, 0.9), _cv_report("structural", "rf", 1, 0.6, folds)]
    with pytest.raises(DataError, match="two rf results for structural at seed 1"):
        emit_report(reps, "text")
    assert emit_report(reps, "csv").data.count(b"\n") == 3  # the csv keeps every row


def test_report_rejects_unknown_format(featurized):
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report([], "xml")


def test_parse_report_csv_rejects_garbage():
    with pytest.raises(DataError, match="header"):
        parse_report_csv(b"who,what\n1,2\n")
    with pytest.raises(DataError, match="empty"):
        parse_report_csv(b"")


_CSV_2_FOLDS = b"feature,dims,model,seed,mean,fold0,fold1\n"


def test_parse_report_csv_keeps_trailing_empty_folds_only():
    header = b"feature,dims,model,seed,mean,fold0,fold1,fold2\n"
    (report,) = parse_report_csv(header + b"mfcc,20,rf,0,0.75,0.5,1.0,,\n")
    assert report.fold_accuracies == (0.5, 1.0)
    with pytest.raises(DataError, match="line 2: an empty fold cell"):
        parse_report_csv(header + b"mfcc,20,rf,0,0.75,0.5,,1.0\n")


def test_parse_report_csv_rejects_more_folds_than_its_header():
    with pytest.raises(DataError, match="line 2: 4 fold cells under a 2-fold header"):
        parse_report_csv(_CSV_2_FOLDS + b"mfcc,20,rf,0,0.5,0.5,0.5,0.5,0.5\n")


def test_parse_report_csv_rejects_negative_dims():
    with pytest.raises(DataError, match="line 2: negative dims -5"):
        parse_report_csv(_CSV_2_FOLDS + b"mfcc,-5,rf,0,0.75,0.5,1.0\n")


def test_parse_report_csv_rejects_apicalls_fused_with_a_static_kind():
    with pytest.raises(DataError, match="line 2: apicalls features cannot be fused with static kinds"):
        parse_report_csv(_CSV_2_FOLDS + b"apicalls+mfcc,23,rf,0,0.75,0.5,1.0\n")


def test_parse_report_csv_rejects_a_kind_named_twice():
    with pytest.raises(DataError, match="line 2: feature kind 'mfcc' given twice"):
        parse_report_csv(_CSV_2_FOLDS + b"mfcc+mfcc,40,rf,0,0.75,0.5,1.0\n")


def test_parse_report_csv_rejects_dims_other_than_the_kinds_widths():
    with pytest.raises(DataError, match=r"line 2: dims 999 of 'mfcc' differ from its kinds' widths"):
        parse_report_csv(_CSV_2_FOLDS + b"mfcc,999,rf,0,0.75,0.5,1.0\n")
    with pytest.raises(DataError, match=r"line 2: dims 20 of 'structural\+mfcc' differ"):
        parse_report_csv(_CSV_2_FOLDS + b"structural+mfcc,20,rf,0,0.75,0.5,1.0\n")


def test_parse_report_csv_rejects_unknown_models_and_features():
    for feature, model, reason in [("mfcc", "zzz", "unknown model kind 'zzz'"),
                                   ("mfcc+entropy", "rf", "unknown feature kind 'entropy'"),
                                   ("", "rf", "unknown feature kind ''")]:
        with pytest.raises(DataError, match=f"line 2: {reason}"):
            parse_report_csv(_CSV_2_FOLDS + f"{feature},20,{model},0,0.75,0.5,1.0\n".encode())
    fused = parse_report_csv(_CSV_2_FOLDS + b"structural+mfcc,45,vec,0,0.75,0.5,1.0\napicalls,3,knn,0,1.0,1.0,1.0\n")
    assert [(r.feature_kind, r.model_kind) for r in fused] == [("structural+mfcc", "vec"), ("apicalls", "knn")]


def test_failed_cache_save_leaves_the_previous_table(tmp_path):
    cache_dir = tmp_path / "cache"
    cache = FeatureCache(cache_dir)
    cache.put("a" * 64, compute_feature("structural", ByteStream(b"%PDF-1.4 /JS")))
    cache.save("structural")
    path = cache_dir / "structural.tsv"
    before = path.read_bytes()
    cache.put("\u00e9" * 64, compute_feature("structural", ByteStream(b"%PDF-1.4")))
    with pytest.raises(UnicodeEncodeError):
        cache.save("structural")
    assert path.read_bytes() == before
    assert list(cache_dir.iterdir()) == [path]


# ---------------------------------------------------------------- cli

def test_cli_end_to_end(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), "--n", "20", "--seed", "3"]) == 0
    manifest = str(corpus / "manifest.csv")
    cache = str(tmp_path / "cache")

    assert main(["featurize", "--manifest", manifest, "--kinds", "structural,ssdeep", "--cache", cache]) == 0
    out = capsys.readouterr().out
    assert "structural: 10 computed" in out or "structural: 20 computed" in out

    results = str(tmp_path / "results")
    assert main([
        "cv", "--manifest", manifest, "--cache", cache, "--model", "rf",
        "--features", "structural", "--folds", "5", "--trees", "15",
        "--seed", "1", "--out", results,
    ]) == 0
    capsys.readouterr()

    assert main(["report", "--in", results, "--format", "text"]) == 0
    table = capsys.readouterr().out
    assert "structural" in table and "rf" in table

    disarmed = tmp_path / "disarmed"
    assert main([
        "disarm", "--method", "1", "--in", str(corpus / "pdfs"),
        "--out", str(disarmed), "--report", str(tmp_path / "disarm.log"),
    ]) == 0
    assert len(list(disarmed.glob("*.pdf"))) == 20
    assert (tmp_path / "disarm.log").exists()


class _FullDisk:
    """A binary file that takes 10 bytes of the first write, then fails."""

    def __init__(self, path, mode):
        self.file = builtins.open(path, mode)

    def write(self, data):
        self.file.write(data[:10])
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.file.close()


def test_cli_failed_writes_leave_the_previous_outputs(small_corpus, tmp_path, monkeypatch, capsys):
    manifest = str(small_corpus)
    cache = str(tmp_path / "cache")
    assert main(["featurize", "--manifest", manifest, "--kinds", "structural", "--cache", cache]) == 0
    results = tmp_path / "results"
    results.mkdir()
    (results / "r.csv").write_bytes(b"old csv\n")
    disarmed = tmp_path / "disarmed"
    disarmed.mkdir()
    pdf = sorted((small_corpus.parent / "pdfs").glob("*.pdf"))[0]
    (disarmed / pdf.name).write_bytes(b"old pdf\n")

    monkeypatch.setattr(core, "open", _FullDisk, raising=False)
    assert main([
        "cv", "--manifest", manifest, "--cache", cache, "--model", "rf",
        "--features", "structural", "--folds", "5", "--trees", "5",
        "--out", str(results / "r.csv"),
    ]) == 2
    assert main(["disarm", "--method", "1", "--in", str(pdf), "--out", str(disarmed)]) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert [(p.name, p.read_bytes()) for p in results.iterdir()] == [("r.csv", b"old csv\n")]
    assert [(p.name, p.read_bytes()) for p in disarmed.iterdir()] == [(pdf.name, b"old pdf\n")]


def test_cli_survives_and_repairs_malformed_cache_rows(small_corpus, tmp_path, capsys):
    cache = tmp_path / "cache"
    featurize = ["featurize", "--manifest", str(small_corpus), "--kinds", "structural",
                 "--cache", str(cache)]
    assert main(featurize) == 0
    table = cache / "structural.tsv"
    clean = table.read_bytes()
    lines = clean.splitlines()
    lines[1] = lines[1].rsplit(b"\t", 1)[0]  # torn: one value short
    lines[2] = lines[2].replace(b"\t", b"\t\xff", 1)  # garbage: not ASCII, not a number
    table.write_bytes(b"\n".join(lines) + b"\n")
    capsys.readouterr()

    assert main(["cv", "--manifest", str(small_corpus), "--cache", str(cache), "--model", "rf",
                 "--features", "structural", "--folds", "3", "--trees", "5"]) == 0
    assert main(featurize) == 0
    assert "structural: 2 computed" in capsys.readouterr().out
    assert table.read_bytes() == clean


@pytest.mark.parametrize("model", ["knn", "rf"])
def test_cli_huge_cached_values_are_data_error(tmp_path, capsys, model):
    manifest = make_corpus(tmp_path / "corpus", n_total=12, seed=2)
    cache = tmp_path / "cache"
    assert main(["featurize", "--manifest", str(manifest), "--kinds", "structural",
                 "--cache", str(cache)]) == 0
    table = cache / "structural.tsv"
    lines = table.read_text().splitlines()
    for i in range(1, 5):  # finite, so the cache reader keeps them; their mean overflows
        fields = lines[i].split("\t")
        fields[3] = repr(1.7e308)
        lines[i] = "\t".join(fields)
    table.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would fail the run
        assert main(["cv", "--manifest", str(manifest), "--cache", str(cache), "--model", model,
                     "--features", "structural", "--folds", "2"]) == 2
    err = capsys.readouterr().err
    assert err == "maldoc: structural features leave float range when standardized\n"


def test_cli_names_dropped_manifest_rows(small_corpus, tmp_path, capsys):
    for sub in ("pdfs", "reports"):
        (tmp_path / sub).symlink_to(small_corpus.parent / sub)
    lines = small_corpus.read_text().splitlines()
    pdf, _, report = lines[1].split(",")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines + [f"{pdf},purple,{report}", lines[1]]) + "\n")
    cache = str(tmp_path / "cache")
    for argv in (["featurize", "--manifest", str(manifest), "--kinds", "structural", "--cache", cache],
                 ["cv", "--manifest", str(manifest), "--cache", cache, "--model", "knn",
                  "--features", "structural", "--folds", "3"]):
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert f"rejected: {pdf}: unknown label 'purple'" in err
        assert f"duplicate: {pdf}" in err


def _corpus_with_torn_report(small_corpus, out, n_rows=None):
    """A copy of the corpus manifest whose first sandbox report is truncated."""
    (out / "pdfs").symlink_to(small_corpus.parent / "pdfs")
    lines = small_corpus.read_text().splitlines()
    lines = lines[: n_rows + 1] if n_rows else lines
    (out / "reports").mkdir()
    for line in lines[1:]:
        report = line.split(",")[2]
        (out / report).write_bytes((small_corpus.parent / report).read_bytes())
    torn = out / lines[1].split(",")[2]
    torn.write_bytes(torn.read_bytes()[:40])
    manifest = out / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest, torn


def _apicalls_cv_exclusions(manifest, tmp_path, caplog):
    """Run an apicalls cv that must succeed; return its exclusion warnings."""
    argv = ["cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
            "--model", "rf", "--features", "apicalls", "--folds", "3", "--trees", "5"]
    with caplog.at_level(logging.WARNING):
        assert main(argv) == 0
    return [rec.getMessage() for rec in caplog.records if "excluding" in rec.getMessage()]


def test_cli_excludes_only_the_sample_with_a_malformed_report(small_corpus, tmp_path, caplog):
    manifest, torn = _corpus_with_torn_report(small_corpus, tmp_path)
    excluded = _apicalls_cv_exclusions(manifest, tmp_path, caplog)
    assert len(excluded) == 1
    assert str(torn) in excluded[0] and "not valid JSON" in excluded[0]


@pytest.mark.parametrize(
    "hostile",
    [b"[" * 200_000, b'{"behavior": [{"api": "NtOpenFile", "status": ' + b"1" * 5_000 + b"}]}"],
    ids=["nested", "long-integer"],
)
def test_cli_excludes_only_the_sample_with_an_unparsable_report(
    small_corpus, tmp_path, caplog, hostile
):
    manifest, torn = _corpus_with_torn_report(small_corpus, tmp_path)
    torn.write_bytes(hostile)
    excluded = _apicalls_cv_exclusions(manifest, tmp_path, caplog)
    assert len(excluded) == 1 and str(torn) in excluded[0]


def test_cli_escapes_the_pipeline_warnings(small_corpus, tmp_path):
    import subprocess

    manifest, _ = _corpus_with_torn_report(small_corpus, tmp_path)
    name = "x\x1b[31mred.pdf"  # a name that would turn a terminal red
    (tmp_path / name).write_bytes(b"%PDF-1.4 a sample without a sandbox report")
    with manifest.open("a") as f:
        f.write(f"{name},benign,\n")
    # in a subprocess: pytest's log capture would keep a logging warning out of stderr
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "maldoc", "cv", "--manifest", str(manifest), "--cache",
         str(tmp_path / "cache"), "--model", "rf", "--features", "apicalls", "--folds", "3",
         "--trees", "5"],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert b"\x1b" not in proc.stderr
    assert b"excluding x\\x1b[31mred.pdf: no sandbox report\n" in proc.stderr


def test_cli_needs_two_readable_reports(small_corpus, tmp_path, capsys):
    manifest, _ = _corpus_with_torn_report(small_corpus, tmp_path, n_rows=2)
    assert main(["cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
                 "--model", "knn", "--k", "1", "--features", "apicalls", "--folds", "2"]) == 2
    assert "not enough sandbox reports" in capsys.readouterr().err


def test_cli_cv_on_a_missing_cache_creates_nothing(small_corpus, tmp_path, capsys):
    cache = tmp_path / "missing" / "cache"
    assert main(["cv", "--manifest", str(small_corpus), "--cache", str(cache),
                 "--model", "rf", "--features", "structural"]) == 2
    assert "not enough featurized samples" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_featurize_fails_before_the_work_on_a_cache_path_it_cannot_make(small_corpus, tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.write_bytes(b"")
    monkeypatch.setattr(pipeline, "compute_features", lambda kinds, data: pytest.fail("featurized"))
    with pytest.raises(FileExistsError):
        featurize_all(ingest(small_corpus), ["structural"], FeatureCache(cache))


def test_cli_class_smaller_than_the_folds_is_data_error(small_corpus, tmp_path, capsys):
    base = small_corpus.parent
    lines = small_corpus.read_text().splitlines()
    rows = [line for line in lines[1:] if ",benign," in line][:4]
    rows += [line for line in lines[1:] if ",malware," in line][:1]
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(lines[0] + "\n" + "".join(
        f"{base / p},{label},{base / r}\n" for p, label, r in (row.split(",") for row in rows)))
    assert main(["cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
                 "--model", "knn", "--k", "1", "--features", "apicalls", "--folds", "2"]) == 2
    assert "class 1 has 1 samples, fewer than 2 folds" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["knn", "rf", "vec"])
def test_cli_apicalls_with_no_api_call_in_training_is_data_error(small_corpus, tmp_path, capsys, model):
    base = small_corpus.parent
    lines = small_corpus.read_text().splitlines()
    silent = tmp_path / "silent.json"
    silent.write_bytes(b'{"behavior": []}')
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(lines[0] + "\n" + "".join(
        f"{base / p},{label},{silent}\n" for p, label, _ in (row.split(",") for row in lines[1:])))
    assert main(["cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
                 "--model", model, "--features", "apicalls", "--folds", "2"]) == 2
    out = capsys.readouterr()
    assert "apicalls: a fold's training reports hold no API call" in out.err
    assert out.out == ""


def test_cli_disarm_refuses_to_overwrite_its_input(tmp_path, capsys, monkeypatch):
    pdfs = tmp_path / "pdfs"
    pdfs.mkdir()
    risky, plain = b"%PDF-1.4 /OpenAction /JS (x)", b"%PDF-1.4 /Type /Page"
    (pdfs / "a.pdf").write_bytes(risky)
    (pdfs / "b.pdf").write_bytes(plain)
    (tmp_path / "out").mkdir()
    os.link(pdfs / "b.pdf", tmp_path / "out" / "b.pdf")  # the output dir holds an input too

    monkeypatch.chdir(pdfs)
    assert main(["disarm", "--method", "2", "--in", "a.pdf", "--out", "."]) == 2
    assert "a.pdf: skipped, since its output would overwrite it" in capsys.readouterr().err
    assert main(["disarm", "--method", "2", "--in", str(pdfs), "--out", str(pdfs)]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.count("skipped, since its output would overwrite it") == 2
    assert main(["disarm", "--method", "1", "--in", str(pdfs), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    assert out.out == "a.pdf: 2 replacements\n" and "b.pdf: skipped" in out.err
    assert (pdfs / "a.pdf").read_bytes() == risky
    assert (pdfs / "b.pdf").read_bytes() == plain
    assert (tmp_path / "out" / "a.pdf").read_bytes() != risky


def test_cli_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["featurize", "--manifest", "x", "--kinds", "nope", "--cache", "c"]) == 1
    assert main(["cv", "--manifest", "x", "--cache", "c", "--model", "svm",
                 "--features", "structural"]) == 1
    capsys.readouterr()


def test_cli_repeated_feature_kind_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")  # exit 2 if it were read
    assert main(["featurize", "--manifest", missing, "--kinds", "structural,structural",
                 "--cache", str(tmp_path / "c")]) == 1
    assert "feature kind 'structural' given twice" in capsys.readouterr().err
    assert main(["cv", "--manifest", missing, "--cache", str(tmp_path / "c"), "--model", "rf",
                 "--features", "mfcc,structural,mfcc"]) == 1
    assert "feature kind 'mfcc' given twice" in capsys.readouterr().err


def test_cli_bad_forest_size_is_usage_error_before_any_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")  # exit 2 if it were read
    assert main(["cv", "--manifest", missing, "--cache", str(tmp_path / "c"), "--model", "rf",
                 "--features", "structural", "--trees", "0"]) == 1
    assert "n_trees must be at least 1, got 0" in capsys.readouterr().err


def test_cli_single_fold_is_usage_error_before_any_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")  # exit 2 if it were read
    assert main(["cv", "--manifest", missing, "--cache", str(tmp_path / "c"), "--model", "rf",
                 "--features", "structural", "--folds", "1"]) == 1
    assert "need at least two folds" in capsys.readouterr().err


def test_cli_featurize_refuses_apicalls_before_any_read(tmp_path, capsys):
    cache = tmp_path / "c"
    assert main(["featurize", "--manifest", str(tmp_path / "missing.csv"), "--kinds", "apicalls",
                 "--cache", str(cache)]) == 1
    assert "featurize handles static kinds only, got 'apicalls'" in capsys.readouterr().err
    assert not cache.exists()


def test_cli_synth_bad_seed_leaves_no_directory(tmp_path, capsys):
    out = tmp_path / "d"
    assert main(["synth", "--out", str(out), "--seed", "-1"]) == 1
    assert not out.exists()
    capsys.readouterr()


@pytest.mark.parametrize("model", ["knn", "vec"])
def test_cli_even_k_is_usage_error(tmp_path, small_corpus, capsys, model):
    cache = str(tmp_path / "cache")
    code = main(["cv", "--manifest", str(small_corpus), "--cache", cache,
                 "--model", model, "--features", "structural", "--k", "4"])
    assert code == 1
    assert "odd" in capsys.readouterr().err


def test_cli_data_errors_exit_2(tmp_path, capsys):
    assert main(["featurize", "--manifest", str(tmp_path / "missing.csv"),
                 "--kinds", "structural", "--cache", str(tmp_path / "c")]) == 2
    assert main(["report", "--in", str(tmp_path / "void"), "--format", "text"]) == 2
    assert main(["disarm", "--method", "1", "--in", str(tmp_path / "nothing.pdf"),
                 "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()


_CSV_OK = "feature,dims,model,seed,mean,fold0,fold1\nstructural,25,knn,7,1.0,1.0,1.0\n"


@pytest.mark.parametrize(
    "row",
    [
        b"structural,25,rf",  # fewer than 5 fields
        b"structural,25,rf,7,abc,1.0,1.0",  # non-numeric mean
        b"structural,twenty,rf,7,1.0,1.0,1.0",  # non-numeric dims
        b"structural,25,rf,7,1.0,1.0,1.0 \xc3\xa9",  # non-ASCII bytes
        b"structural,25,rf,7,0.5,1.0,1.0",  # mean disagrees with the folds
        b"structural,25,rf,7,nan,1.0,1.0",  # a NaN mean compares false to every bound
        b"structural,25,rf,7,1.0,1.0",  # a single fold
        b"structural,25,rf,7,1.0," + b"1" * 200_000,  # field past the csv size limit
    ],
    ids=["few-fields", "text-mean", "text-dims", "non-ascii", "mean-mismatch", "nan-mean", "one-fold",
         "huge-field"],
)
def test_cli_report_rejects_malformed_csv_rows(tmp_path, capsys, row):
    results = tmp_path / "results"
    results.mkdir()
    path = results / "bad.csv"
    path.write_bytes(_CSV_OK.encode("ascii") + row + b"\n")
    assert main(["report", "--in", str(results), "--format", "text"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: line 3:" in captured.err


def test_module_entry_point(tmp_path):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "maldoc", "synth", "--out", str(tmp_path / "c"), "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert (tmp_path / "c" / "manifest.csv").exists()


def test_cli_escapes_the_paths_it_prints(tmp_path):
    import subprocess

    # stdout and stderr as ASCII, the narrowest a terminal can be
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="ascii")

    def maldoc(*argv):
        return subprocess.run([sys.executable, "-m", "maldoc", *argv],
                              capture_output=True, text=True, env=env, timeout=120)

    proc = maldoc("synth", "--out", str(tmp_path / "s\u00ffnth"), "--n", "8", "--seed", "1")
    assert (proc.returncode, proc.stdout) == (0, f"{tmp_path}/s\\xc3\\xbfnth/manifest.csv\n"), proc.stderr
    manifest = tmp_path / "s\u00ffnth" / "manifest.csv"
    with manifest.open("a") as f:
        f.write("x\x1b[31mred,benign,\n")  # a name that would turn a terminal red
    cache = str(tmp_path / "cache")
    proc = maldoc("featurize", "--manifest", str(manifest), "--kinds", "structural", "--cache", cache)
    assert proc.returncode == 0, proc.stderr
    proc = maldoc("cv", "--manifest", str(manifest), "--cache", cache, "--model", "rf", "--trees", "5",
                  "--features", "structural", "--folds", "2", "--out", str(tmp_path / "r\u00e9sultats"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith(f"wrote {tmp_path}/r\\xc3\\xa9sultats/structural-rf-seed0.csv\n")
    assert (tmp_path / "r\u00e9sultats" / "structural-rf-seed0.csv").is_file()
    assert "\x1b" not in proc.stderr
    assert "rejected: x\\x1b[31mred: cannot read" in proc.stderr


@pytest.mark.parametrize(
    "name, shown, logged",
    [
        ("é.pdf", rb"\xc3\xa9.pdf", "é.pdf".encode()),
        (os.fsdecode(b"\xff.pdf"), rb"\xff.pdf", b"\xff.pdf"),
        # a control byte or a backslash could forge a line of the log or of stdout
        ("a\nmethod\t1\t\\x.pdf", rb"a\x0amethod\x091\x09\x5cx.pdf",
         rb"a\x0amethod\x091\x09\x5cx.pdf"),
    ],
    ids=["utf8", "undecodable", "newline"],
)
def test_cli_disarm_logs_non_ascii_file_names(tmp_path, name, shown, logged):
    import subprocess
    import sys

    pdfs = tmp_path / "in"
    pdfs.mkdir()
    (pdfs / name).write_bytes(b"%PDF-1.4\n<< /OpenAction << /JS (x) >> >>\n%%EOF\n")
    (pdfs / "plain.pdf").write_bytes(b"%PDF-1.4\n%%EOF\n")
    log = tmp_path / "log.txt"
    # stdout as strict ASCII, the narrowest a terminal can be
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="ascii:strict")
    proc = subprocess.run(
        [sys.executable, "-m", "maldoc", "disarm", "--method", "1", "--in", str(pdfs),
         "--out", str(tmp_path / "out"), "--report", str(log)],
        capture_output=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert shown + b": 2 replacements\n" in proc.stdout
    assert b"plain.pdf: 0 replacements\n" in proc.stdout
    assert proc.stdout.count(b"\n") == 2
    blocks = log.read_bytes()
    assert b"# " + os.fsencode(pdfs) + b"/" + logged + b"\nmethod\t1\t" in blocks
    assert blocks.count(b"\nmethod\t") == 2 and blocks.count(b"# ") == 2
    assert b"# " + os.fsencode(pdfs / "plain.pdf") + b"\nmethod\t1\t" in blocks
    assert (tmp_path / "out" / name).read_bytes().count(b"/oPENaCTION << /js") == 1
