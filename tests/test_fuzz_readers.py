"""Seeded mutations of every file the system reads back must fail closed.

Each reader gets mutated copies of a valid file: truncated, with flipped
bytes, with a duplicated line, with a number blown up to a huge one, and
with non-ASCII bytes spliced in.  The CLI readers (manifest, cache table,
``report --in`` CSV, sandbox report, ``disarm`` input) run through
``cli.main`` and must exit 0 or 2 with no exception escaping; the model file
runs through ``load_model``, which must return a model or raise
``DataError``.  No case may leave a ``.tmp`` file behind.

A cache table's binary index is a derived copy, so a damaged one must cost
nothing: each mutated index sits beside its valid ``structural.tsv``, and
``cv`` must exit 0 with the stdout and stderr of a run with no index,
loading the rows the table's text holds, bit for bit.  A 2 GiB sparse index and a FIFO in
the index's place are two more such cases.

All cases run in one subprocess, this file run as a script, under a 1 GiB
address-space limit with an alarm per case, so a reader that hangs or
slurps fails the test instead of stalling or exhausting the machine.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path

import numpy as np

from maldoc import DataError, FeatureCache, ModelSpec, make_corpus
from maldoc.cli import main
from maldoc.dynamic import MAX_REPORT_BYTES
from maldoc.ml import LabeledSet, load_model, save_model, train_model
from maldoc.pipeline import _read_index, _read_table

SEED = 20240
VARIANTS = 12  # mutated copies per (reader, mutation)
CASE_SECONDS = 10
TIMEOUT_S = 120
ADDRESS_SPACE = 1 << 30

HUGE = (b"99999999999999999999", b"1e999", b"1" + b"0" * 5000)


def truncate(rng: random.Random, data: bytes) -> bytes:
    return data[: rng.randrange(len(data))]


def flip_bytes(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(len(out))] ^= rng.randint(1, 255)
    return bytes(out)


def duplicate_line(rng: random.Random, data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
    return b"\n".join(lines)


def huge_number(rng: random.Random, data: bytes) -> bytes:
    runs = list(re.finditer(rb"\d+", data))
    if not runs:
        at = rng.randrange(len(data) + 1)
        return data[:at] + rng.choice(HUGE) + data[at:]
    run = rng.choice(runs)
    return data[: run.start()] + rng.choice(HUGE) + data[run.end() :]


def non_ascii(rng: random.Random, data: bytes) -> bytes:
    at = rng.randrange(len(data) + 1)
    return data[:at] + bytes(rng.randint(0x80, 0xFF) for _ in range(rng.randint(1, 6))) + data[at:]


MUTATIONS = (truncate, flip_bytes, duplicate_line, huge_number, non_ascii)

INDEX_RECORD = 32  # a digest; each row's values take 8 bytes per dimension
INDEX_TRAILER = 32  # the payload's SHA-256
STRUCTURAL_DIMS = 25


def _index_fields(data: bytes) -> tuple[bytes, int, bytes, bytes]:
    """A saved index's header line, its row count, its payload and its trailer."""
    head, rest = data.split(b"\n", 1)
    rows = int(re.search(rb" rows=(\d+) ", head)[1])
    return head + b"\n", rows, rest[:-INDEX_TRAILER], rest[-INDEX_TRAILER:]


def flip_header(rng: random.Random, data: bytes) -> bytes:
    head, _, payload, trailer = _index_fields(data)
    return flip_bytes(rng, head) + payload + trailer


def flip_payload(rng: random.Random, data: bytes) -> bytes:
    head, _, payload, trailer = _index_fields(data)
    return head + flip_bytes(rng, payload) + trailer


def duplicate_record(rng: random.Random, data: bytes) -> bytes:
    """One row's digest written over the next one's, so the sizes still
    agree, with the values of the row itself or of another; in half the
    variants the payload hash is recomputed too, so only the digests' order
    is wrong."""
    head, rows, payload, trailer = _index_fields(data)
    width = 8 * STRUCTURAL_DIMS
    digests, values = bytearray(payload[: INDEX_RECORD * rows]), bytearray(payload[INDEX_RECORD * rows :])
    i, j = rng.randrange(rows - 1), rng.randrange(rows)
    digests[INDEX_RECORD * (i + 1) : INDEX_RECORD * (i + 2)] = digests[INDEX_RECORD * i : INDEX_RECORD * (i + 1)]
    values[width * (i + 1) : width * (i + 2)] = values[width * j : width * (j + 1)]
    if rng.random() < 0.5:
        trailer = hashlib.sha256(digests + values).digest()
    return head + digests + values + trailer


def inflate_rows(rng: random.Random, data: bytes) -> bytes:
    """A larger row count, with the file padded to its size in half the variants."""
    head, rows, payload, trailer = _index_fields(data)
    more = rng.choice([1, 2, rng.randrange(3, 10**6)])
    head = head.replace(b" rows=%d " % rows, b" rows=%d " % (rows + more))
    padding = bytes(more * (INDEX_RECORD + 8 * STRUCTURAL_DIMS)) if rng.random() < 0.5 else b""
    return head + payload + trailer + padding


def append_bytes(rng: random.Random, data: bytes) -> bytes:
    return data + bytes(rng.randrange(256) for _ in range(rng.randint(1, 300)))


INDEX_MUTATIONS = (truncate, flip_header, flip_payload, duplicate_record, inflate_rows, append_bytes)


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout(f"case ran past {CASE_SECONDS} s")


def _call(fn, arg, out=None):
    """(outcome, result or exception, stderr) of one call under the per-case
    alarm; its stdout goes to ``out`` if given."""
    err = io.StringIO()
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out or io.StringIO()), contextlib.redirect_stderr(err):
            return "returned", fn(arg), err.getvalue()
    except Exception as exc:  # the point is to see what escapes
        return "raised", exc, err.getvalue()
    finally:
        signal.alarm(0)


def _build(work: Path) -> dict:
    """A tiny valid corpus, cache, cv CSV and model file to mutate."""
    manifest = make_corpus(work / "corpus", n_total=12, seed=SEED)
    cache = work / "cache"
    results = work / "results"
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["featurize", "--manifest", str(manifest), "--kinds", "structural",
                     "--cache", str(cache)]) == 0
        assert main(["cv", "--manifest", str(manifest), "--cache", str(cache), "--model", "knn",
                     "--k", "1", "--features", "structural", "--folds", "2",
                     "--out", str(results)]) == 0
    x = np.random.default_rng(SEED).standard_normal((10, 3))
    model = train_model(ModelSpec("vec", k=3, n_trees=2), LabeledSet(x, np.array([0, 1] * 5), "t"),
                        seed=1)
    save_model(model, work / "model.txt")
    return {
        "manifest": manifest,
        "cache": cache / "structural.tsv",
        "csv": next(results.glob("*.csv")),
        "report": work / "corpus" / "reports" / "malware_0000.json",
        "pdf": work / "corpus" / "pdfs" / "malware_0000.pdf",
        "model": work / "model.txt",
        "index": cache / ".index" / "structural.bin",
    }


def _cases(work: Path, files: dict, name: str, data: bytes):
    """The commands that read one mutated file: cli argv lists, or a model path."""
    case = work / name
    case.mkdir()
    corpus = files["manifest"].parent
    cv = ["--model", "knn", "--k", "1", "--folds", "2", "--out", str(case / "results")]
    reader = name.split("-")[0]
    if reader == "manifest":
        path = corpus / f"{name}.csv"  # beside the corpus, so relative rows resolve
        path.write_bytes(data)
        shutil.copytree(files["cache"].parent, case / "cache")
        return [["featurize", "--manifest", str(path), "--kinds", "structural",
                 "--cache", str(case / "cache")],
                ["cv", "--manifest", str(path), "--cache", str(case / "cache"),
                 "--features", "structural", *cv]]
    if reader == "cache":
        (case / "cache").mkdir()
        (case / "cache" / "structural.tsv").write_bytes(data)
        common = ["--manifest", str(files["manifest"]), "--cache", str(case / "cache")]
        return [["cv", *common, "--features", "structural", *cv],
                ["featurize", *common, "--kinds", "structural"]]
    if reader == "index":
        (case / "cache" / ".index").mkdir(parents=True)
        shutil.copy(files["cache"], case / "cache")
        if data is not None:
            (case / "cache" / ".index" / "structural.bin").write_bytes(data)
        return [_index_cv(files, case / "cache")]
    if reader == "csv":
        (case / "in").mkdir()
        (case / "in" / files["csv"].name).write_bytes(data)
        return [["report", "--in", str(case / "in"), "--format", fmt] for fmt in ("text", "csv")]
    if reader == "report":
        path = case / "report.json"
        path.write_bytes(data)
        text = files["manifest"].read_text().replace(
            "reports/malware_0000.json", os.path.relpath(path, corpus))
        manifest = corpus / f"{name}.csv"
        manifest.write_text(text)
        return [["cv", "--manifest", str(manifest), "--cache", str(files["cache"].parent),
                 "--features", "apicalls", *cv]]
    if reader == "pdf":
        path = case / "in.pdf"
        path.write_bytes(data)
        return [["disarm", "--method", method, "--in", str(path), "--out", str(case / "out"),
                 "--report", str(case / "log.txt")] for method in ("1", "2")]
    path = case / "model.txt"
    path.write_bytes(data)
    return [path]


def _index_cv(files: dict, cache: Path) -> list[str]:
    return ["cv", "--manifest", str(files["manifest"]), "--cache", str(cache), "--model", "knn",
            "--k", "1", "--folds", "2", "--features", "structural"]


def _index_case(files: dict, cache: Path, expected: tuple[str, str]) -> tuple[bool, str, object, str]:
    """Whether ``cv`` over ``cache``, whose index may be damaged, exits 0 with
    the ``expected`` stdout and stderr and loads the rows the table's text
    holds; with the call's outcome, detail and stderr."""
    out = io.StringIO()
    outcome, detail, err = _call(main, _index_cv(files, cache), out)
    ok = outcome == "returned" and detail == 0 and (out.getvalue(), err) == expected
    if ok:
        outcome, table, err = _call(lambda kind: FeatureCache(cache)._table(kind), "structural")
        parsed = _read_table(cache / "structural.tsv", "structural")
        ok = outcome == "returned" and {d: v.tobytes() for d, v in table.items()} == {
            d: v.tobytes() for d, v in parsed.items()}
        detail = detail if ok else "loaded rows differ from the parsed table"
    return ok, outcome, detail, err


def _special_indexes(work: Path, files: dict) -> dict:
    """Index cases that are not mutated bytes: sparse 2 GiB files, refused from
    their sizes (read whole, the second would not fit the address space), and
    a FIFO, which must not hang the load."""
    head, rows, _, _ = _index_fields(files["index"].read_bytes())
    record = INDEX_RECORD + 8 * STRUCTURAL_DIMS
    inflated = (2 * ADDRESS_SPACE - len(head)) // record
    huge = head.replace(b" rows=%d " % rows, b" rows=%d " % inflated)
    cases = {"index-sparse-2gib": (head, 2 * ADDRESS_SPACE),
             "index-sparse-2gib-rows": (huge, len(huge) + inflated * record + INDEX_TRAILER),
             "index-fifo": None}
    out = {}
    for name, sparse in cases.items():
        _cases(work, files, name, None)
        path = work / name / "cache" / ".index" / "structural.bin"
        if sparse is None:
            os.mkfifo(path)
        else:
            path.write_bytes(sparse[0])
            os.truncate(path, sparse[1])  # sparse: no disk block is written
        out[name] = path.parent.parent
    return out


def run_cases(work: Path) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    files = _build(work)
    rng = random.Random(SEED)
    failures, count = [], 0
    assert _read_index(files["index"], files["cache"], "structural") is not None  # the valid index is used
    (work / "no-index").mkdir()
    shutil.copy(files["cache"], work / "no-index")
    out = io.StringIO()
    outcome, code, err = _call(main, _index_cv(files, work / "no-index"), out)
    assert (outcome, code) == ("returned", 0)
    expected = out.getvalue(), err
    for reader, source in files.items():
        original = source.read_bytes()
        for mutate in INDEX_MUTATIONS if reader == "index" else MUTATIONS:
            for variant in range(VARIANTS):
                name = f"{reader}-{mutate.__name__}-{variant}"
                data = mutate(rng, original)
                for command in _cases(work, files, name, data):
                    count += 1
                    if reader == "index":
                        ok, outcome, detail, err = _index_case(files, work / name / "cache", expected)
                    elif isinstance(command, list):
                        outcome, detail, err = _call(main, command)
                        ok = outcome == "returned" and detail in (0, 2) and "Traceback" not in err
                    else:
                        outcome, detail, err = _call(load_model, command)
                        ok = outcome == "returned" or isinstance(detail, DataError)
                    if not ok:
                        if outcome == "raised":
                            err += "".join(traceback.format_exception(detail))
                        failures.append({"case": name, "command": str(command),
                                         "outcome": f"{outcome} {detail!r}", "stderr": err[-2000:]})
    for name, cache in _special_indexes(work, files).items():
        count += 1
        ok, outcome, detail, err = _index_case(files, cache, expected)
        if not ok:
            failures.append({"case": name, "outcome": f"{outcome} {detail!r}", "stderr": err[-2000:]})
    leftovers = [str(p) for p in work.rglob("*.tmp")]
    if leftovers:
        failures.append({"case": "all", "outcome": "tmp files left", "stderr": str(leftovers)})
    return {"cases": count, "failures": failures}


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_every_reader_fails_closed_on_mutated_input(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], capture_output=True,
                          text=True, env=env, timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    # commands per mutated file: manifest 2, cache 2, csv 2, report 1, pdf 2, model 1,
    # index 1; then the sparse and FIFO indexes
    assert result["cases"] == (10 * len(MUTATIONS) + len(INDEX_MUTATIONS)) * VARIANTS + 3
    assert result["failures"] == [], json.dumps(result["failures"][:3], indent=1)


def test_cli_running_out_of_memory_is_a_data_error(tmp_path):
    # a synthetic corpus of a trillion files asks for more than the address
    # space and raises a MemoryError with an empty message
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    run = lambda *command: subprocess.run(
        [sys.executable, "-m", "maldoc", *command], capture_output=True, text=True, env=env,
        timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
    proc = run("synth", "--out", str(tmp_path / "corpus"), "--n", "1000000000000")
    assert (proc.returncode, proc.stderr) == (2, "maldoc: out of memory\n")
    # a manifest larger than the address space, of one line, is refused at
    # that line, read a piece at a time; the file is sparse, so truncate
    # writes no disk block
    manifest = tmp_path / "manifest.csv"
    manifest.touch()
    os.truncate(manifest, 2 * ADDRESS_SPACE)
    proc = run("cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
               "--model", "rf", "--features", "structural")
    assert proc.returncode == 2, proc.stderr
    assert f"{manifest}: line 1: over " in proc.stderr
    assert "out of memory" not in proc.stderr and "Traceback" not in proc.stderr


def test_cv_excludes_a_report_over_the_cap(tmp_path):
    # read whole, this report would not fit the address space; refused by its
    # size, it costs only its own row
    manifest = make_corpus(tmp_path / "corpus", n_total=12, seed=SEED)
    report = manifest.parent / "reports" / "malware_0000.json"
    os.truncate(report, 2 * ADDRESS_SPACE)  # sparse: no disk block is written
    assert os.stat(report).st_size > MAX_REPORT_BYTES
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    command = ["cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
               "--model", "rf", "--trees", "3", "--folds", "2", "--features", "apicalls"]
    proc = subprocess.run([sys.executable, "-m", "maldoc", *command], capture_output=True,
                          text=True, env=env, timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert (f"excluding malware_0000.pdf: sandbox report {report}: cannot read {report}: "
            f"larger than {MAX_REPORT_BYTES} bytes") in proc.stderr


if __name__ == "__main__":
    print(json.dumps(run_cases(Path(sys.argv[1]))))
