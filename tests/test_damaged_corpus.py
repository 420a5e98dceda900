"""A damaged row costs only its own row, across a whole run.

A seeded 40-file corpus is ingested, and then two of its rows of each kind
are damaged on disk: two files get a byte appended, two are deleted, two
are replaced by FIFOs, one of them under a name that is not valid UTF-8,
and two are renamed to such names.  Featurizing all seven static kinds must
then name exactly those rows, for every kind, and ``maldoc disarm`` must
name the two FIFOs alone, the undecodable name's bytes escaped; every
healthy row must get the cache rows and disarmed bytes of a run over the
undamaged corpus.  Run on
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
from typing import NamedTuple

import pytest

from maldoc import DataError, FeatureCache, core, featurize_all, ingest, make_corpus
from maldoc.core import STATIC_KINDS
from maldoc.dynamic import parse_report
from maldoc.pipeline import DatasetManifest, ManifestRow

ROOT = Path(__file__).resolve().parent.parent
SEED = 30
N_FILES = 40
# names that are not valid UTF-8: two renamed samples', and a FIFO's
UNDECODABLE = (b"\xff\xfe.pdf", b"\xfe\xff.pdf")
UNDECODABLE_FIFO = b"\xc3(.pdf"


def _maldoc(*args: str) -> subprocess.CompletedProcess:
    """``maldoc`` with ``args``, run from this checkout's source, its stderr in UTF-8."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONIOENCODING="utf-8")
    return subprocess.run([sys.executable, "-m", "maldoc", *args], capture_output=True, env=env, timeout=120)


def _escaped(text: str) -> str:
    """``text`` as ``maldoc`` prints it on stderr: control bytes and backslashes as ``\\xNN``."""
    return re.sub(r"[\x00-\x1f\x7f\\]", lambda c: "\\x%02x" % ord(c[0]), text)


def _missing(path: Path) -> str:
    return f"cannot read {path}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(path)!r}"


class Damaged(NamedTuple):
    """Two damaged rows of each kind."""

    appended: tuple[ManifestRow, ...]
    deleted: tuple[ManifestRow, ...]
    fifo: tuple[ManifestRow, ...]
    renamed: tuple[ManifestRow, ...]

    def rows(self) -> set[ManifestRow]:
        return {row for rows in self for row in rows}

    def unread(self) -> dict[str, str]:
        """Why each row but the appended ones cannot be read from its manifest
        path, by its digest: the first FIFO sits at that path, the second
        under ``UNDECODABLE_FIFO``."""
        reasons = {row.sha256: _missing(row.path) for row in (*self.deleted, self.fifo[1], *self.renamed)}
        return reasons | {self.fifo[0].sha256: f"cannot read {self.fifo[0].path}: not a regular file"}


def _named(directory: Path, name: bytes) -> bytes:
    """The OS path of the file ``name``, a name that may not be UTF-8, in ``directory``."""
    return os.path.join(os.fsencode(directory), name)


def _damage(manifest: DatasetManifest) -> Damaged:
    """Damage two rows of each kind of an ingested corpus on disk, and return
    them: two files get a byte appended, two are deleted, two are replaced
    by FIFOs, the second under ``UNDECODABLE_FIFO``, and two are renamed to
    the ``UNDECODABLE`` names."""
    damaged = Damaged(*((manifest.rows[i], manifest.rows[j]) for i, j in ((3, 9), (14, 18), (22, 27), (33, 37))))
    for row in damaged.appended:
        with open(row.path, "ab") as f:
            f.write(b"\n")
    for row in (*damaged.deleted, *damaged.fifo):
        row.path.unlink()
    os.mkfifo(damaged.fifo[0].path)
    os.mkfifo(_named(damaged.fifo[1].path.parent, UNDECODABLE_FIFO))
    for row, name in zip(damaged.renamed, UNDECODABLE):
        os.rename(os.fsencode(row.path), _named(row.path.parent, name))
    return damaged


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
    damaged = _damage(manifest)
    reasons = damaged.unread() | {row.sha256: "content changed since ingest" for row in damaged.appended}
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
    # the undecodable name's bytes as \xNN, as on stdout, not as a surrogate
    assert err.splitlines() == [
        f"maldoc: cannot read {damaged.fifo[0].path}: not a regular file",
        f"maldoc: cannot read {damaged.fifo[1].path.parent}/\\xc3(.pdf: not a regular file",
    ]
    damaged_names = {row.path.name for row in damaged.rows()}
    healthy = [row.path.name for row in clean.rows if row.path.name not in damaged_names]
    assert shown.keys() == {*healthy, *(row.path.name for row in damaged.appended), r"\xff\xfe.pdf", r"\xfe\xff.pdf"}
    out, clean_out = root / "disarmed", clean_root / "disarmed"
    for name in healthy:
        assert shown[name] == clean_shown[name], name
        assert (out / name).read_bytes() == (clean_out / name).read_bytes(), name
    for row, name, shown_name in zip(damaged.renamed, UNDECODABLE, (r"\xff\xfe.pdf", r"\xfe\xff.pdf")):
        assert shown[shown_name] == clean_shown[row.path.name]
        with open(_named(out, name), "rb") as f:
            assert f.read() == (clean_out / row.path.name).read_bytes()
    for row in (*damaged.deleted, *damaged.fifo):
        assert not (out / row.path.name).exists()
    assert not os.path.exists(_named(out, UNDECODABLE_FIFO))


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
    unread = damaged.unread()
    # an empty file, which five kinds cannot featurize, under a name that is
    # valid UTF-8 but not ASCII, and holds a tab and a backslash, which stderr escapes
    empty = root / "pdfs" / "leer\t\\Ünïcødé €.pdf"
    empty.write_bytes(b"")
    with open(manifest_path, "a", encoding="utf-8") as f:
        f.write(f'"pdfs/{empty.name}",benign,\n')

    proc = _featurize(manifest_path, root / "cache")
    assert proc.returncode == 2, proc.stderr
    raw_path = lambda row: row.path.relative_to(root).as_posix()
    failed = {"byteplot-gist": "empty stream", "bigramdct-gist": "insufficient bytes for bigrams",
              "mfcc": "empty stream", "chroma": "empty stream", "melspectrogram": "empty stream"}
    assert proc.stderr.decode("utf-8").splitlines() == [_escaped(line) for line in [
        *(f"rejected: {raw_path(row)}: {unread[row.sha256]}" for row in manifest.rows if row.sha256 in unread),
        *(f"error: {empty} {kind}: {reason}" for kind, reason in failed.items()),
    ]]
    assert "leer\\x09\\x5cÜnïcødé €.pdf" in proc.stderr.decode("utf-8")
    healthy = [row.sha256 for row in manifest.rows if row not in damaged.rows()]
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
