"""Manifest ingest, cache behavior, experiments, reports, and the CLI."""

import builtins
import errno
import logging
import os

import numpy as np
import pytest

from maldoc import (
    ByteStream,
    DataError,
    FeatureCache,
    ModelSpec,
    compute_feature,
    emit_report,
    featurize_all,
    hash_feature,
    ingest,
    parse_report_csv,
    run_experiment,
    ssdeep_digest,
)
from maldoc import core
from maldoc.cli import main
from maldoc.core import FIXED_DIMS, STATIC_KINDS
from maldoc.pipeline import FEATURE_VERSIONS, compute_features


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


def test_ingest_first_copy_wins_on_duplicate_content(tmp_path, caplog):
    (tmp_path / "a.pdf").write_bytes(b"same bytes")
    (tmp_path / "b.pdf").write_bytes(b"same bytes")
    man = tmp_path / "m.csv"
    man.write_text("path,label\na.pdf,benign\nb.pdf,malware\n")
    with caplog.at_level(logging.WARNING):
        manifest = ingest(man)
    assert len(manifest.rows) == 1
    assert manifest.rows[0].path.name == "a.pdf"
    assert manifest.rows[0].label == "benign"
    assert manifest.duplicates == ("b.pdf",)
    assert any("duplicate" in rec.message for rec in caplog.records)


def test_ingest_rejects_bad_rows_individually(tmp_path):
    (tmp_path / "ok.pdf").write_bytes(b"fine")
    man = tmp_path / "m.csv"
    man.write_text(
        "path,label\n"
        "ok.pdf,benign\n"
        "missing.pdf,benign\n"
        "ok.pdf,gray\n"
        "short,row,count,extra\n"
    )
    manifest = ingest(man)
    assert len(manifest.rows) == 1
    reasons = dict(manifest.rejects)
    assert "missing.pdf" in reasons
    assert any("gray" in reason for reason in reasons.values())
    assert len(manifest.rejects) == 3


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
    empty_hash = ssdeep_digest(ByteStream(b""))
    assert empty_hash.canonical == "3::"
    assert np.array_equal(cache.get(empty, "ssdeep"), hash_feature(empty_hash).values)
    assert cache.get(empty, "structural") is not None


def test_compute_features_equals_compute_feature(corpus_2024):
    for path in corpus_2024:
        data = ByteStream.from_file(path)
        batch = compute_features(STATIC_KINDS, data)
        assert list(batch) == list(STATIC_KINDS)
        for kind in STATIC_KINDS:
            assert batch[kind].kind == kind
            assert batch[kind].values.tobytes() == compute_feature(kind, data).values.tobytes()


def test_compute_features_keeps_the_requested_order_and_rejects_unknown_kinds():
    data = ByteStream(b"%PDF-1.4 /JS " * 300)
    kinds = ["structural", "melspectrogram", "ssdeep", "mfcc"]
    assert list(compute_features(kinds, data)) == kinds
    with pytest.raises(ValueError, match="unknown static feature kind"):
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
    parsed = parse_report_csv(blob)
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


def test_report_rejects_unknown_format(featurized):
    with pytest.raises(ValueError, match="unknown report format"):
        emit_report([], "xml")


def test_parse_report_csv_rejects_garbage():
    with pytest.raises(DataError, match="header"):
        parse_report_csv(b"who,what\n1,2\n")
    with pytest.raises(DataError, match="empty"):
        parse_report_csv(b"")


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


def test_cli_needs_two_readable_reports(small_corpus, tmp_path, capsys):
    manifest, _ = _corpus_with_torn_report(small_corpus, tmp_path, n_rows=2)
    assert main(["cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
                 "--model", "knn", "--k", "1", "--features", "apicalls", "--folds", "2"]) == 2
    assert "not enough sandbox reports" in capsys.readouterr().err


def test_cli_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["featurize", "--manifest", "x", "--kinds", "nope", "--cache", "c"]) == 1
    assert main(["cv", "--manifest", "x", "--cache", "c", "--model", "svm",
                 "--features", "structural"]) == 1
    capsys.readouterr()


def test_cli_even_k_is_usage_error(tmp_path, small_corpus, capsys):
    cache = str(tmp_path / "cache")
    code = main(["cv", "--manifest", str(small_corpus), "--cache", cache,
                 "--model", "knn", "--features", "structural", "--k", "4"])
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
        b"structural,25,rf,7,1.0,1.0",  # a single fold
        b"structural,25,rf,7,1.0," + b"1" * 200_000,  # field past the csv size limit
    ],
    ids=["few-fields", "text-mean", "text-dims", "non-ascii", "mean-mismatch", "one-fold", "huge-field"],
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
