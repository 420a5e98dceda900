"""A damaged row costs only its own row, across a whole run.

A seeded 40-file corpus is ingested, and then four of its rows are damaged
on disk: one file gets a byte appended, one is deleted, one is replaced by a
FIFO, and one is renamed to a name that is not valid UTF-8.  Featurizing all
seven static kinds must then name exactly those rows, for every kind, and
``maldoc disarm`` must name the FIFO alone; every healthy row must get the
cache rows and disarmed bytes of a run over the undamaged corpus.  Run on
the damaged corpus, with a row added under a non-ASCII UTF-8 name, ``maldoc
featurize`` must name each bad row on stderr and keep the healthy rows'
cache bytes.  Likewise two damaged sandbox reports, one truncated and one a
FIFO, cost ``maldoc cv --features apicalls`` only their own rows.
"""

import errno
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from maldoc import DataError, FeatureCache, core, featurize_all, ingest, make_corpus
from maldoc.core import STATIC_KINDS
from maldoc.dynamic import parse_report
from maldoc.pipeline import DatasetManifest, ManifestRow

ROOT = Path(__file__).resolve().parent.parent
SEED = 30
N_FILES = 40
UNDECODABLE = b"\xff\xfe.pdf"


def _maldoc(*args: str) -> subprocess.CompletedProcess:
    """``maldoc`` with ``args``, run from this checkout's source, its stderr in UTF-8."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, "-m", "maldoc", *args], capture_output=True, env=env, timeout=120)


def _escaped(text: str) -> str:
    """``text`` as ``maldoc`` prints it on stderr: control bytes and backslashes as ``\\xNN``."""
    return re.sub(r"[\x00-\x1f\x7f\\]", lambda c: "\\x%02x" % ord(c[0]), text)


def _missing(path: Path) -> str:
    return f"cannot read {path}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(path)!r}"


def _damage(manifest: DatasetManifest) -> tuple[ManifestRow, ...]:
    """Damage four rows of an ingested corpus on disk, and return them: one
    file gets a byte appended, one is deleted, one is replaced by a FIFO,
    and one is renamed to ``UNDECODABLE``."""
    appended, deleted, fifo, renamed = (manifest.rows[i] for i in (3, 14, 22, 37))
    with open(appended.path, "ab") as f:
        f.write(b"\n")
    deleted.path.unlink()
    fifo.path.unlink()
    os.mkfifo(fifo.path)
    os.rename(os.fsencode(renamed.path), os.path.join(os.fsencode(renamed.path.parent), UNDECODABLE))
    return appended, deleted, fifo, renamed


def _disarm(corpus: Path) -> tuple[int, dict[str, str], str]:
    """Exit code, ``{shown name: replacements}`` from stdout, and stderr of
    ``maldoc disarm --method 1`` over the corpus's PDFs."""
    proc = _maldoc("disarm", "--method", "1", "--in", str(corpus / "pdfs"), "--out", str(corpus / "disarmed"))
    shown = dict(line.split(": ", 1) for line in proc.stdout.decode("ascii").splitlines())
    return proc.returncode, shown, proc.stderr.decode("utf-8", "surrogateescape")


def _tables(cache: Path) -> dict[str, bytes]:
    return {kind: (cache / f"{kind}.tsv").read_bytes() for kind in STATIC_KINDS}


def test_a_damaged_row_costs_only_its_own_row(tmp_path, monkeypatch):
    clean_root, root = tmp_path / "clean", tmp_path / "damaged"
    clean = ingest(make_corpus(clean_root, n_total=N_FILES, seed=SEED))
    assert featurize_all(clean, STATIC_KINDS, FeatureCache(clean_root / "cache")).errors == ()
    clean_status, clean_shown, clean_err = _disarm(clean_root)
    assert (clean_status, clean_err) == (0, "")

    manifest = ingest(make_corpus(root, n_total=N_FILES, seed=SEED))
    assert [row.sha256 for row in manifest.rows] == [row.sha256 for row in clean.rows]
    appended, deleted, fifo, renamed = _damage(manifest)
    reasons = {
        appended.sha256: "content changed since ingest",
        deleted.sha256: _missing(deleted.path),
        fifo.sha256: f"cannot read {fifo.path}: not a regular file",
        renamed.sha256: _missing(renamed.path),
    }
    expected_errors = tuple(
        (row.sha256, kind, reasons[row.sha256])
        for row in manifest.rows if row.sha256 in reasons for kind in STATIC_KINDS
    )
    # a clean table with the damaged rows' lines taken out; the header stays
    expected_tables = {
        kind: b"".join(line for line in table.splitlines(keepends=True) if line[:64].decode() not in reasons)
        for kind, table in _tables(clean_root / "cache").items()
    }
    for workers in (1, 3):  # read and featurizer errors meet in one list, in manifest order
        monkeypatch.setattr(core, "usable_cpus", lambda: workers)
        cache = root / f"cache-{workers}"
        result = featurize_all(manifest, STATIC_KINDS, FeatureCache(cache))
        assert result.errors == expected_errors, workers
        assert result.computed == dict.fromkeys(STATIC_KINDS, N_FILES - len(reasons))
        assert _tables(cache) == expected_tables, workers

    status, shown, err = _disarm(root)
    assert status == 2
    assert err == f"maldoc: cannot read {fifo.path}: not a regular file\n"
    damaged_names = {row.path.name for row in (appended, deleted, fifo, renamed)}
    healthy = [row.path.name for row in clean.rows if row.path.name not in damaged_names]
    assert shown.keys() == {*healthy, appended.path.name, r"\xff\xfe.pdf"}
    assert shown[r"\xff\xfe.pdf"] == clean_shown[renamed.path.name]
    out, clean_out = root / "disarmed", clean_root / "disarmed"
    for name in healthy:
        assert shown[name] == clean_shown[name], name
        assert (out / name).read_bytes() == (clean_out / name).read_bytes(), name
    with open(os.path.join(os.fsencode(out), UNDECODABLE), "rb") as f:
        assert f.read() == (clean_out / renamed.path.name).read_bytes()
    assert not (out / deleted.path.name).exists() and not (out / fifo.path.name).exists()


def _featurize(manifest: Path, cache: Path) -> subprocess.CompletedProcess:
    return _maldoc("featurize", "--manifest", str(manifest), "--kinds", ",".join(STATIC_KINDS), "--cache", str(cache))


def _rows(table: bytes) -> dict[str, bytes]:
    """A cache table's rows by their digests."""
    return {line[:64].decode(): line for line in table.splitlines(keepends=True)[1:]}


def test_cli_featurize_names_each_bad_row_of_a_damaged_corpus(tmp_path):
    clean_root, root = tmp_path / "clean", tmp_path / "damaged"
    clean_manifest = make_corpus(clean_root, n_total=N_FILES, seed=SEED)
    assert _featurize(clean_manifest, clean_root / "cache").returncode == 0
    manifest_path = make_corpus(root, n_total=N_FILES, seed=SEED)
    manifest = ingest(manifest_path)
    damaged = _damage(manifest)
    # an empty file, which five kinds cannot featurize, under a name that is
    # valid UTF-8 but not ASCII, and holds a tab and a backslash, which stderr escapes
    empty = root / "pdfs" / "leer\t\\Ünïcødé €.pdf"
    empty.write_bytes(b"")
    with open(manifest_path, "a", encoding="utf-8") as f:
        f.write(f'"pdfs/{empty.name}",benign,\n')

    proc = _featurize(manifest_path, root / "cache")
    assert proc.returncode == 2, proc.stderr
    appended, deleted, fifo, renamed = damaged
    raw_path = lambda row: row.path.relative_to(root).as_posix()
    failed = {"byteplot-gist": "empty stream", "bigramdct-gist": "insufficient bytes for bigrams",
              "mfcc": "empty stream", "chroma": "empty stream", "melspectrogram": "empty stream"}
    assert proc.stderr.decode("utf-8").splitlines() == [_escaped(line) for line in [
        f"rejected: {raw_path(deleted)}: {_missing(deleted.path)}",
        f"rejected: {raw_path(fifo)}: cannot read {fifo.path}: not a regular file",
        f"rejected: {raw_path(renamed)}: {_missing(renamed.path)}",
        *(f"error: {empty} {kind}: {reason}" for kind, reason in failed.items()),
    ]]
    assert "leer\\x09\\x5cÜnïcødé €.pdf" in proc.stderr.decode("utf-8")
    healthy = [row.sha256 for row in manifest.rows if row not in damaged]
    clean_tables = _tables(clean_root / "cache")
    for kind, table in _tables(root / "cache").items():
        rows, clean_rows = _rows(table), _rows(clean_tables[kind])
        assert table.split(b"\n", 1)[0] == clean_tables[kind].split(b"\n", 1)[0], kind
        assert [rows[digest] for digest in healthy] == [clean_rows[digest] for digest in healthy], kind


def _apicalls_cv(manifest: Path, out: Path) -> tuple[int, str]:
    """Exit code and stderr of an apicalls ``maldoc cv`` writing its CSV to ``out``."""
    proc = _maldoc("cv", "--manifest", str(manifest), "--cache", str(manifest.parent / "cache"),
                   "--model", "rf", "--trees", "5", "--folds", "3", "--seed", "1",
                   "--features", "apicalls", "--out", str(out))
    return proc.returncode, proc.stderr.decode("utf-8", "surrogateescape")


def test_damaged_sandbox_reports_cost_only_their_own_rows(tmp_path):
    manifest_path = make_corpus(tmp_path, n_total=N_FILES, seed=SEED)
    lines = manifest_path.read_text().splitlines(keepends=True)
    # a truncated report under a name with a tab, and a FIFO under one with
    # a backslash: both names reach stderr escaped
    damaged = {3: "reports/torn\treport.json", 22: "reports/fifo\\report.json"}
    for line, name in damaged.items():
        pdf, label, report = lines[line].rstrip("\n").split(",")
        (tmp_path / report).rename(tmp_path / name)
        lines[line] = f"{pdf},{label},{name}\n"
    torn, fifo = (tmp_path / name for name in damaged.values())
    raw = torn.read_bytes()
    torn.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError) as parsed:
        parse_report(torn.read_bytes())
    fifo.unlink()
    os.mkfifo(fifo)
    manifest_path.write_text("".join(lines))
    healthy = tmp_path / "healthy.csv"
    healthy.write_text("".join(line for i, line in enumerate(lines) if i not in damaged))

    status, err = _apicalls_cv(manifest_path, tmp_path / "damaged-out.csv")
    assert status == 0, err
    pdf_name = lambda line: Path(lines[line].split(",")[0]).name
    assert err.splitlines() == [
        _escaped(f"excluding {pdf_name(3)}: sandbox report {torn}: {parsed.value}"),
        _escaped(f"excluding {pdf_name(22)}: sandbox report {fifo}: cannot read {fifo}: not a regular file"),
    ]
    assert "\\x09report.json" in err and "fifo\\x5creport.json" in err
    assert _apicalls_cv(healthy, tmp_path / "healthy-out.csv") == (0, "")
    assert (tmp_path / "damaged-out.csv").read_bytes() == (tmp_path / "healthy-out.csv").read_bytes()
