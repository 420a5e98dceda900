"""Every benchmark workload runs one pass at a small scale and checks clean.

``bench/workloads.py`` drives the public API the way the benchmark does, and
an operation that raises there is only counted as failed, never raised.  So
each workload's set-up, one pass and its checks run here, on a corpus small
enough for the tier-1 suite, and must report no problem.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 2024


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module by name
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["featurize-cold", "cv-warm", "scan-large"])
def test_workload_passes_its_checks_at_a_small_scale(workloads, tmp_path, name):
    assert sorted(workloads.WORKLOADS) == sorted(["featurize-cold", "cv-warm", "scan-large"])
    scale = workloads.Scale(corpus=40, docs=4, doc_min=8 * 1024, doc_max=64 * 1024)
    workload = workloads.WORKLOADS[name]
    state = workload.setup(tmp_path, SEED, scale)
    digests, problems = workload.check(state, workload.run_pass(state, 0).output)
    assert problems == []
    assert digests and None not in digests.values()
