"""Seeded mutations of every file the system reads back must fail closed.

Each reader gets mutated copies of a valid file: truncated, with flipped
bytes, with a duplicated line, with a number blown up to a huge one, and
with non-ASCII bytes spliced in.  The CLI readers (manifest, cache table,
``report --in`` CSV, sandbox report, ``disarm`` input) run through
``cli.main`` and must exit 0 or 2 with no exception escaping; the model file
runs through ``load_model``, which must return a model or raise
``DataError``.  No case may leave a ``.tmp`` file behind.

All cases run in one subprocess, this file run as a script, under a 1 GiB
address-space limit with an alarm per case, so a reader that hangs or
slurps fails the test instead of stalling or exhausting the machine.
"""

import contextlib
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

from maldoc import DataError, ModelSpec, make_corpus
from maldoc.cli import main
from maldoc.ml import LabeledSet, load_model, save_model, train_model

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


class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout(f"case ran past {CASE_SECONDS} s")


def _call(fn, arg):
    """(outcome, result or exception, stderr) of one call under the per-case alarm."""
    err = io.StringIO()
    signal.alarm(CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
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


def run_cases(work: Path) -> dict:
    signal.signal(signal.SIGALRM, _on_alarm)
    files = _build(work)
    rng = random.Random(SEED)
    failures, count = [], 0
    for reader, source in files.items():
        original = source.read_bytes()
        for mutate in MUTATIONS:
            for variant in range(VARIANTS):
                name = f"{reader}-{mutate.__name__}-{variant}"
                data = mutate(rng, original)
                for command in _cases(work, files, name, data):
                    count += 1
                    if isinstance(command, list):
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
    # commands per mutated file: manifest 2, cache 2, csv 2, report 1, pdf 2, model 1
    assert result["cases"] == 10 * len(MUTATIONS) * VARIANTS
    assert result["failures"] == [], json.dumps(result["failures"][:3], indent=1)


def test_cli_running_out_of_memory_is_a_data_error(tmp_path):
    # a manifest larger than the address space, read whole, raises a
    # MemoryError with an empty message; the file is sparse, so truncate
    # writes no disk block
    manifest = tmp_path / "manifest.csv"
    manifest.touch()
    os.truncate(manifest, 2 * ADDRESS_SPACE)
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    command = ["cv", "--manifest", str(manifest), "--cache", str(tmp_path / "cache"),
               "--model", "rf", "--features", "structural"]
    proc = subprocess.run([sys.executable, "-m", "maldoc", *command], capture_output=True,
                          text=True, env=env, timeout=TIMEOUT_S, preexec_fn=_limit_address_space)
    assert (proc.returncode, proc.stderr) == (2, "maldoc: out of memory\n")


if __name__ == "__main__":
    print(json.dumps(run_cases(Path(sys.argv[1]))))
