"""The API-call fold builder against the reference that counts each call log.

``pipeline._report_rows`` counts every report once into one count matrix
and gives each fold its vocabulary's columns of it.  Its training and test
matrices must equal, bit for bit and in C order, the rows that the
reference's vocabulary and per-log counts stack: the standardization sums
a matrix in its memory order, so an F-ordered copy would change the scaler's
bits even with the same values.
"""

import json

import numpy as np
import pytest

from maldoc import DataError
from maldoc.pipeline import DatasetManifest, ManifestRow, _report_rows
from oracles import api_call_feature, build_api_vocabulary, call_log_reference


def _write_reports(tmp_path, logs: list[list[tuple[str, int]]]) -> tuple[DatasetManifest, list]:
    """A manifest with one row per call log, each log written as a report,
    and the logs as the reference reads them back."""
    rows, parsed = [], []
    for i, calls in enumerate(logs):
        path = tmp_path / f"report_{i}.json"
        path.write_text(json.dumps({"behavior": [{"api": a, "status": s} for a, s in calls]}))
        parsed.append(call_log_reference(path.read_bytes()))
        rows.append(ManifestRow(tmp_path / f"{i}.pdf", f"{i:064x}", "benign", path))
    return DatasetManifest(rows=tuple(rows)), parsed


def _random_logs(rng: np.random.Generator, n: int, apis: int) -> list[list[tuple[str, int]]]:
    # few names and short logs, so many pairs tie on their totals
    return [
        [(f"Api{int(rng.integers(apis))}", int(rng.integers(2))) for _ in range(int(rng.integers(0, 6)))]
        for _ in range(n)
    ]


def _assert_folds_match_the_reference(build, parsed, train_idx, test_idx):
    train, test = build(train_idx, test_idx)
    vocab = build_api_vocabulary([parsed[i] for i in train_idx])
    for got, idx in ((train, train_idx), (test, test_idx)):
        want = np.vstack([api_call_feature(parsed[i], vocab) for i in idx])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous


@pytest.mark.parametrize("seed", range(12))
def test_fold_matrices_equal_the_reference_rows(tmp_path, seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 30))
    manifest, parsed = _write_reports(tmp_path, _random_logs(rng, n, apis=int(rng.integers(1, 8))))
    kept, build = _report_rows(manifest)
    assert kept == list(manifest.rows)
    for _ in range(4):
        order = rng.permutation(n)
        cut = int(rng.integers(1, n))
        train_idx, test_idx = np.sort(order[:cut]), np.sort(order[cut:])
        if not any(parsed[i] for i in train_idx):
            continue
        _assert_folds_match_the_reference(build, parsed, train_idx, test_idx)


def test_pairs_seen_only_in_the_test_fold_are_dropped(tmp_path):
    logs = [[("Open", 1), ("Read", 0)], [("Open", 1)], [("Open", 1), ("Spawn", 1), ("Spawn", 1)], [("Spawn", 0)]]
    manifest, parsed = _write_reports(tmp_path, logs)
    _, build = _report_rows(manifest)
    train, test = build(np.array([0, 1]), np.array([2, 3]))
    assert train.tolist() == [[1.0, 1.0], [1.0, 0.0]]  # Open/1 (total 2), then Read/0
    assert test.tolist() == [[1.0, 0.0], [0.0, 0.0]]
    _assert_folds_match_the_reference(build, parsed, np.array([0, 1]), np.array([2, 3]))


def test_a_fold_whose_training_reports_hold_no_call_is_a_data_error(tmp_path):
    manifest, _ = _write_reports(tmp_path, [[], [], [("Open", 1)]])
    _, build = _report_rows(manifest)
    with pytest.raises(DataError, match="^apicalls: a fold's training reports hold no API call$"):
        build(np.array([0, 1]), np.array([2]))
