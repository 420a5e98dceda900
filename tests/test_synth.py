"""Synthetic corpus generator: determinism and class contrast."""

import hashlib
import json
from pathlib import Path

import pytest

from maldoc import count_keywords, ingest, make_corpus, normalize_names
from maldoc.disarm import TARGET_TAGS
from maldoc.dynamic import parse_report


def test_corpus_is_deterministic(tmp_path):
    m1 = make_corpus(tmp_path / "a", n_total=16, seed=42)
    m2 = make_corpus(tmp_path / "b", n_total=16, seed=42)
    assert m1.read_text() == m2.read_text()
    for r1, r2 in zip(ingest(m1).rows, ingest(m2).rows):
        assert r1.sha256 == r2.sha256
        assert Path(r1.report_path).read_bytes() == Path(r2.report_path).read_bytes()


# sha256 over each written file's relative path and sha256, in path order
CORPUS_DIGESTS = {
    0: "a730d05f72335ce953f2e176a70e5bbf2350d16fe2cefaf39eefeb299ae30c71",
    2024: "22d28b9bb5fe2c723b8d78b5d2a72b2066293f37a077c69bd2aaa73197461937",
    9001: "c79e9f7830ce5b4bbbb47bcde60644b9cda652a2af2ed4e4cef95b34c5eb59a9",
}


@pytest.mark.parametrize("seed", sorted(CORPUS_DIGESTS))
def test_corpus_bytes_are_pinned(tmp_path, seed):
    out = tmp_path / "c"
    make_corpus(out, n_total=40, seed=seed)
    files = sorted(p for p in out.rglob("*") if p.is_file())
    assert len(files) == 81  # 40 PDFs, 40 reports and the manifest
    h = hashlib.sha256()
    for p in files:
        h.update(p.relative_to(out).as_posix().encode() + b"\0" + hashlib.sha256(p.read_bytes()).digest())
    assert h.hexdigest() == CORPUS_DIGESTS[seed]


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
        counts = count_keywords(normalize_names(row.path.read_bytes()))
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
        counts = count_keywords(normalize_names(row.path.read_bytes()))
        assert counts["/OpenAction"] >= 1


def test_pdfs_have_wrapper_structure(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=6, seed=9))
    for row in manifest.rows:
        raw = row.path.read_bytes()
        assert raw.startswith(b"%PDF-")
        assert raw.rstrip().endswith(b"%%EOF")
        counts = count_keywords(raw)
        assert counts["obj"] == counts["endobj"] > 0
        assert counts["stream"] == counts["endstream"]
        assert counts["trailer"] == 1
        assert counts["startxref"] == 1


def test_reports_parse_and_reference_behavior(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=8, seed=5))
    for row in manifest.rows:
        rep = parse_report(row.report_path.read_bytes())
        assert rep.total() > 0
        raw = json.loads(Path(row.report_path).read_text())
        assert len(raw["behavior"]) == rep.total()


def test_odd_total_gives_extra_sample_to_malware(tmp_path):
    manifest = ingest(make_corpus(tmp_path / "c", n_total=7, seed=0))
    labels = [r.label for r in manifest.rows]
    assert labels.count("benign") == 3
    assert labels.count("malware") == 4
