"""Every file read from outside fails closed unless it is a regular file.

A FIFO with no writer would block a plain ``open`` forever, and a device
such as ``/dev/zero`` never ends, so each CLI case runs in a subprocess
under a timeout and an address-space limit: a reader that blocks or slurps
fails the test instead of hanging or exhausting the machine.
"""

import errno
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from maldoc import ByteStream, DataError, disarm_method1, make_corpus, render_report
from maldoc.core import MAX_SAMPLE_BYTES, open_append

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 30
ADDRESS_SPACE = 1 << 30  # bytes; each case here runs within 600 MB


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=TIMEOUT_S,
        preexec_fn=_limit_address_space,
    )


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return _run("-m", "maldoc", *argv)


def _assert_refused(proc: subprocess.CompletedProcess) -> None:
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "not a regular file" in proc.stderr


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory) -> Path:
    return make_corpus(tmp_path_factory.mktemp("tiny"), n_total=20, seed=4)


def test_report_refuses_a_fifo_csv(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    os.mkfifo(results / "x.csv")
    _assert_refused(_cli("report", "--in", str(results)))


def test_report_names_a_refused_csv_once(tmp_path):
    results = tmp_path / "results"
    results.mkdir()
    os.mkfifo(results / "x.csv")
    proc = _cli("report", "--in", str(results))
    _assert_refused(proc)
    assert proc.stderr.count(str(results / "x.csv")) == 1, proc.stderr


def test_cv_refuses_a_fifo_cache_table(tiny_corpus, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    os.mkfifo(cache / "structural.tsv")
    _assert_refused(_cli("cv", "--manifest", str(tiny_corpus), "--cache", str(cache),
                         "--model", "rf", "--features", "structural", "--folds", "2"))


def test_cv_refuses_a_regular_file_as_its_cache(tiny_corpus, tmp_path):
    # under a regular file every table path is ENOTDIR, which used to read
    # as an empty cache: "not enough featurized samples", naming no path
    cache = tmp_path / "cache"
    cache.write_bytes(b"")
    proc = _cli("cv", "--manifest", str(tiny_corpus), "--cache", str(cache),
                "--model", "rf", "--features", "structural", "--folds", "2")
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.endswith(f"maldoc: cache {cache} is not a directory\n")


def test_disarm_refuses_a_fifo_pdf(tiny_corpus, tmp_path):
    pdfs = tmp_path / "pdfs"
    pdfs.mkdir()
    os.mkfifo(pdfs / "a.pdf")
    pdf = sorted((tiny_corpus.parent / "pdfs").glob("*.pdf"))[0]
    (pdfs / "b.pdf").write_bytes(pdf.read_bytes())
    _assert_refused(
        _cli("disarm", "--method", "1", "--in", str(pdfs), "--out", str(tmp_path / "o"))
    )


def test_disarm_refuses_a_fifo_log_before_any_output(tiny_corpus, tmp_path):
    log = tmp_path / "log.txt"
    os.mkfifo(log)
    pdf = sorted((tiny_corpus.parent / "pdfs").glob("*.pdf"))[0]
    out = tmp_path / "o"
    proc = _cli("disarm", "--method", "1", "--in", str(pdf), "--out", str(out),
                "--report", str(log))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert f"cannot append to {log}" in proc.stderr
    assert proc.stdout == "" and list(out.iterdir()) == []


def test_disarm_logs_each_file_as_its_output_is_written(tmp_path):
    pdfs = tmp_path / "in"
    pdfs.mkdir()
    raw = b"%PDF-1.4\n1 0 obj << /JS (x) >> endobj\n"
    (pdfs / "a.pdf").write_bytes(raw)
    os.mkfifo(pdfs / "z.pdf")
    log = tmp_path / "log.txt"
    proc = _cli("disarm", "--method", "1", "--in", str(pdfs), "--out", str(tmp_path / "out"),
                "--report", str(log))
    _assert_refused(proc)
    result, report = disarm_method1(ByteStream(raw))
    assert (tmp_path / "out" / "a.pdf").read_bytes() == result.data
    assert log.read_text() == f"# {pdfs / 'a.pdf'}\n{render_report(report)}"


def test_disarm_rewrites_the_inputs_after_an_unreadable_one(tmp_path):
    pdfs = tmp_path / "in"
    pdfs.mkdir()
    raw = b"%PDF-1.4\n1 0 obj << /JS (x) >> endobj\n"
    (pdfs / "a.pdf").write_bytes(raw)
    os.mkfifo(pdfs / "b.pdf")
    (pdfs / "c.pdf").write_bytes(raw)
    log = tmp_path / "log.txt"
    proc = _cli("disarm", "--method", "1", "--in", str(pdfs), "--out", str(tmp_path / "out"),
                "--report", str(log))
    _assert_refused(proc)
    assert str(pdfs / "b.pdf") in proc.stderr
    result, report = disarm_method1(ByteStream(raw))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["a.pdf", "c.pdf"]
    assert (tmp_path / "out" / "c.pdf").read_bytes() == result.data
    block = render_report(report)
    assert log.read_text() == f"# {pdfs / 'a.pdf'}\n{block}# {pdfs / 'c.pdf'}\n{block}"
    assert proc.stdout.splitlines() == ["a.pdf: 1 replacements", "c.pdf: 1 replacements"]


def test_disarm_rewrites_the_inputs_after_an_unwritable_output(tmp_path):
    # the output path of the second input is a directory: that input costs
    # only its own output, named (escaped) rather than the temporary file
    pdfs = tmp_path / "in"
    pdfs.mkdir()
    raw = b"%PDF-1.4\n1 0 obj << /JS (x) >> endobj\n"
    for name in ("a.pdf", "b\tb.pdf", "c.pdf"):
        (pdfs / name).write_bytes(raw)
    out = tmp_path / "out"
    (out / "b\tb.pdf").mkdir(parents=True)
    log = tmp_path / "log.txt"
    proc = _cli("disarm", "--method", "1", "--in", str(pdfs), "--out", str(out), "--report", str(log))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == f"maldoc: cannot write {out}/b\\x09b.pdf: {os.strerror(errno.EISDIR)}\n"
    result, report = disarm_method1(ByteStream(raw))
    assert sorted(p.name for p in out.iterdir()) == ["a.pdf", "b\tb.pdf", "c.pdf"]
    assert (out / "a.pdf").read_bytes() == (out / "c.pdf").read_bytes() == result.data
    assert list((out / "b\tb.pdf").iterdir()) == []
    block = render_report(report)
    assert log.read_text() == f"# {pdfs / 'a.pdf'}\n{block}# {pdfs / 'c.pdf'}\n{block}"
    assert proc.stdout.splitlines() == ["a.pdf: 1 replacements", "c.pdf: 1 replacements"]


def test_append_refuses_a_device():
    with pytest.raises(DataError, match="not a regular file"):
        open_append("/dev/null")


def test_append_refuses_a_nul_byte_in_the_path(tmp_path):
    with pytest.raises(DataError, match="^cannot append to .*: embedded null byte$"):
        open_append(tmp_path / "a\0b")
    assert list(tmp_path.iterdir()) == []


def test_load_model_refuses_a_fifo(tmp_path):
    fifo = tmp_path / "model.txt"
    os.mkfifo(fifo)
    script = (
        "import sys\n"
        "from maldoc.core import DataError\n"
        "from maldoc.ml import load_model\n"
        "try:\n"
        "    load_model(sys.argv[1])\n"
        "except DataError as exc:\n"
        "    sys.exit(f'maldoc: {exc}')\n"
    )
    proc = _run("-c", script, str(fifo))
    assert proc.returncode == 1 and "not a regular file" in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr


def test_cv_excludes_the_sample_whose_report_is_a_fifo(tiny_corpus, tmp_path):
    for sub in ("pdfs", "reports"):
        (tmp_path / sub).symlink_to(tiny_corpus.parent / sub)
    fifo = tmp_path / "fifo.json"
    os.mkfifo(fifo)
    lines = tiny_corpus.read_text().splitlines()
    pdf, label, _ = lines[1].split(",")
    lines[1] = f"{pdf},{label},{fifo.name}"
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    proc = _cli("cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
                "--model", "rf", "--features", "apicalls", "--folds", "2", "--trees", "3")
    assert proc.returncode == 0, proc.stderr
    assert f"excluding {Path(pdf).name}: sandbox report {fifo}: " in proc.stderr
    assert "not a regular file" in proc.stderr


def _sparse_file(path: Path, size: int) -> Path:
    path.write_bytes(b"%PDF-1.4\n")
    os.truncate(path, size)  # a hole: no disk blocks are written
    return path


def test_from_file_refuses_a_sample_over_the_cap(tmp_path):
    assert MAX_SAMPLE_BYTES == 32 * 2**20
    at_cap = _sparse_file(tmp_path / "at.pdf", MAX_SAMPLE_BYTES)
    assert len(ByteStream.from_file(at_cap).data) == MAX_SAMPLE_BYTES
    over = _sparse_file(tmp_path / "over.pdf", MAX_SAMPLE_BYTES + 1)
    with pytest.raises(DataError, match="larger than"):
        ByteStream.from_file(over)


def test_featurize_rejects_device_and_oversized_rows(tiny_corpus, tmp_path):
    pdf = sorted((tiny_corpus.parent / "pdfs").glob("*.pdf"))[0]
    big = _sparse_file(tmp_path / "big.pdf", MAX_SAMPLE_BYTES + 1)
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        f"path,label\n{pdf},benign\n/dev/zero,benign\n/dev/null,malware\n{big},malware\n"
    )
    proc = _cli("featurize", "--manifest", str(manifest), "--kinds", "structural",
                "--cache", str(tmp_path / "cache"))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "rejected: /dev/zero: cannot read /dev/zero: not a regular file" in proc.stderr
    assert "rejected: /dev/null: cannot read /dev/null: not a regular file" in proc.stderr
    assert f"rejected: {big}: cannot read {big}: larger than" in proc.stderr
    assert "structural: 1 computed" in proc.stdout
