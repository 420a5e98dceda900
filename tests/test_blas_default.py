"""`import maldoc` pins the BLAS pools to one thread unless the user chose."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from maldoc import make_corpus

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNSET = dict.fromkeys((*BLAS_VARS, "OMP_NUM_THREADS"))
# the kinds whose projections are BLAS matrix products (docs/formats.md)
BLAS_KINDS = "mfcc,melspectrogram,chroma,byteplot-gist"


def _env(**preset: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in UNSET}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(preset)
    return env


@pytest.mark.parametrize("code, preset, expected", [
    ("import maldoc", {}, {**UNSET, **dict.fromkeys(BLAS_VARS, "1")}),
    ("import maldoc", {"OPENBLAS_NUM_THREADS": "2"}, {**UNSET, "OPENBLAS_NUM_THREADS": "2"}),
    ("import maldoc", {"OMP_NUM_THREADS": "2"}, {**UNSET, "OMP_NUM_THREADS": "2"}),
    ("import numpy, maldoc", {}, UNSET),
], ids=["unset", "blas-preset", "omp-preset", "numpy-first"])
def test_import_pins_blas_only_when_nothing_chose_a_thread_count(code, preset, expected):
    code += "\nimport os\nfor v in %r: print(v, os.environ.get(v))\n" % (tuple(UNSET),)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(**preset), timeout=120)
    assert proc.returncode == 0, proc.stderr
    pairs = (line.split(" ") for line in proc.stdout.splitlines())
    assert {var: None if value == "None" else value for var, value in pairs} == expected


def test_default_featurize_writes_the_one_thread_tables(tmp_path):
    # on two or more CPUs a multithreaded BLAS changes some rows' last bits
    manifest = make_corpus(tmp_path / "corpus", n_total=20, seed=2024)
    tables = {}
    for name, preset in (("default", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        cache = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "maldoc", "featurize", "--manifest", str(manifest),
             "--kinds", BLAS_KINDS, "--cache", str(cache)],
            capture_output=True, text=True, env=_env(**preset), timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        tables[name] = {p.name: p.read_bytes() for p in sorted(cache.iterdir()) if p.is_file()}
    assert sorted(tables["default"]) == sorted(f"{k}.tsv" for k in BLAS_KINDS.split(","))
    assert tables["default"] == tables["pinned"]
