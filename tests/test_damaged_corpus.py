"""A damaged row costs only its own row, across a whole run.

A seeded 40-file corpus is ingested, and then four of its rows are damaged
on disk: one file gets a byte appended, one is deleted, one is replaced by a
FIFO, and one is renamed to a name that is not valid UTF-8.  Featurizing all
seven static kinds must then name exactly those rows, for every kind, and
``maldoc disarm`` must name the FIFO alone; every healthy row must get the
cache rows and disarmed bytes of a run over the undamaged corpus.
"""

import errno
import os
import subprocess
import sys
from pathlib import Path

from maldoc import FeatureCache, core, featurize_all, ingest, make_corpus
from maldoc.core import STATIC_KINDS

ROOT = Path(__file__).resolve().parent.parent
SEED = 30
N_FILES = 40
UNDECODABLE = b"\xff\xfe.pdf"


def _disarm(corpus: Path) -> tuple[int, dict[str, str], str]:
    """Exit code, ``{shown name: replacements}`` from stdout, and stderr of
    ``maldoc disarm --method 1`` over the corpus's PDFs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "maldoc", "disarm", "--method", "1",
         "--in", str(corpus / "pdfs"), "--out", str(corpus / "disarmed")],
        capture_output=True, env=env, timeout=120,
    )
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
    appended, deleted, fifo, renamed = (manifest.rows[i] for i in (3, 14, 22, 37))
    with open(appended.path, "ab") as f:
        f.write(b"\n")
    deleted.path.unlink()
    fifo.path.unlink()
    os.mkfifo(fifo.path)
    os.rename(os.fsencode(renamed.path), os.path.join(os.fsencode(renamed.path.parent), UNDECODABLE))

    missing = lambda path: f"cannot read {path}: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: {str(path)!r}"
    reasons = {
        appended.sha256: "content changed since ingest",
        deleted.sha256: missing(deleted.path),
        fifo.sha256: f"cannot read {fifo.path}: not a regular file",
        renamed.sha256: missing(renamed.path),
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
