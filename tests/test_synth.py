"""Synthetic corpus generator: determinism and class contrast."""

import json
from pathlib import Path

from maldoc import ByteStream, count_keywords, ingest, make_corpus, normalize_names
from maldoc.disarm import TARGET_TAGS
from maldoc.dynamic import parse_report


def test_corpus_is_deterministic(tmp_path):
    m1 = make_corpus(tmp_path / "a", n_total=16, seed=42)
    m2 = make_corpus(tmp_path / "b", n_total=16, seed=42)
    assert m1.read_text() == m2.read_text()
    for r1, r2 in zip(ingest(m1).rows, ingest(m2).rows):
        assert r1.sha256 == r2.sha256
        assert Path(r1.report_path).read_bytes() == Path(r2.report_path).read_bytes()


def test_corpus_differs_across_seeds(tmp_path):
    m1 = make_corpus(tmp_path / "a", n_total=8, seed=1)
    m2 = make_corpus(tmp_path / "b", n_total=8, seed=2)
    h1 = {r.sha256 for r in ingest(m1).rows}
    h2 = {r.sha256 for r in ingest(m2).rows}
    assert h1 != h2


def test_classes_are_balanced_and_labeled(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=10, seed=0))
    labels = [r.label for r in manifest.rows]
    assert labels.count("benign") == 5
    assert labels.count("malware") == 5


def test_benign_files_carry_no_rewrite_targets(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=12, seed=7))
    for row in manifest.rows:
        counts = count_keywords(normalize_names(ByteStream.from_file(row.path)))
        hits = sum(counts[tag] for tag in TARGET_TAGS)
        if row.label == "benign":
            assert hits == 0, row.path.name
        else:
            assert hits >= 1, row.path.name


def test_malware_always_opens_action(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=12, seed=3))
    for row in manifest.rows:
        if row.label != "malware":
            continue
        counts = count_keywords(normalize_names(ByteStream.from_file(row.path)))
        assert counts["/OpenAction"] >= 1


def test_pdfs_have_wrapper_structure(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=6, seed=9))
    for row in manifest.rows:
        raw = row.path.read_bytes()
        assert raw.startswith(b"%PDF-")
        assert raw.rstrip().endswith(b"%%EOF")
        counts = count_keywords(ByteStream(raw))
        assert counts["obj"] == counts["endobj"] > 0
        assert counts["stream"] == counts["endstream"]
        assert counts["trailer"] == 1
        assert counts["startxref"] == 1


def test_reports_parse_and_reference_behavior(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=8, seed=5))
    for row in manifest.rows:
        rep = parse_report(ByteStream.from_file(row.report_path))
        assert len(rep.calls) > 0
        raw = json.loads(Path(row.report_path).read_text())
        assert len(raw["behavior"]) == len(rep.calls)


def test_odd_total_gives_extra_sample_to_malware(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=7, seed=0))
    labels = [r.label for r in manifest.rows]
    assert labels.count("benign") == 3
    assert labels.count("malware") == 4
