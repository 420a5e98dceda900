"""Sandbox-report parsing to call counts, against the reference call log, and
the vocabulary and call-count features of the reference that the library's
per-fold count-matrix columns must equal."""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from maldoc import DataError
from maldoc.dynamic import parse_report
from oracles import Calls, api_call_feature, build_api_vocabulary, call_log_reference

FIXTURES = Path(__file__).parent / "fixtures" / "reports"


def load(name: str) -> Counter:
    return parse_report((FIXTURES / name).read_bytes())


def log(name: str) -> Calls:
    return call_log_reference((FIXTURES / name).read_bytes())


def test_parse_counts_calls_with_multiplicity():
    rep = load("sample_a.json")
    assert rep.total() == 5
    assert rep[("NtCreateFile", 1)] == 2
    assert rep[("NtCreateFile", 0)] == 1
    assert rep[("RegOpenKeyExW", 1)] == 1
    assert rep[("InternetOpenUrlA", 0)] == 1


def test_parse_preserves_call_order():
    # the counts keep the order of each pair's first call
    rep = load("sample_b.json")
    assert list(rep.items()) == [(("NtCreateFile", 1), 1), (("WriteProcessMemory", 0), 2)]


def test_missing_behavior_section_is_empty_report():
    rep = load("no_behavior.json")
    assert rep == Counter() and not rep


def _random_report(rng: np.random.Generator, calls: int) -> bytes:
    # few names, so pairs repeat and their first calls interleave
    return json.dumps({"behavior": [
        {"api": f"Api{int(rng.integers(12))}", "status": int(rng.integers(2))} for _ in range(calls)
    ]}).encode()


@pytest.mark.parametrize("seed", range(6))
def test_counts_and_their_order_equal_the_reference_call_log(seed):
    rng = np.random.default_rng(seed)
    raw = _random_report(rng, int(rng.integers(0, 200)))
    rep = parse_report(raw)
    want = Counter(call_log_reference(raw))
    assert list(rep.items()) == list(want.items())
    assert all(type(api) is str and type(status) is int for api, status in rep)


def test_truncated_json_reports_byte_offset():
    with pytest.raises(DataError, match=r"\(byte offset [1-9][0-9]*\)$"):
        load("truncated.json")


def test_boolean_status_rejected():
    # JSON true/false must not silently coerce to 1/0
    with pytest.raises(DataError, match="status"):
        load("bool_status.json")


def test_control_character_api_rejected():
    with pytest.raises(DataError, match="api"):
        load("control_char_api.json")


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(DataError, match="nests too deeply"):
        parse_report(b"[" * 200_000)


def test_integer_over_the_digit_limit_is_a_parse_error():
    raw = b'{"behavior": [{"api": "NtOpenFile", "status": ' + b"1" * 5_000 + b"}]}"
    with pytest.raises(DataError, match="digits"):
        parse_report(raw)


def test_parse_rejects_non_object_root():
    with pytest.raises(DataError):
        parse_report(b"[1, 2]")


def test_vocabulary_ordering_by_frequency_then_name():
    reports = [log("sample_a.json"), log("sample_b.json")]
    vocab = build_api_vocabulary(reports)
    # (NtCreateFile, 1) occurs 3 times across the corpus: it leads
    assert vocab[0] == ("NtCreateFile", 1)
    counts = Counter(call for rep in reports for call in rep)
    assert counts[("NtCreateFile", 1)] == 3
    assert counts[("WriteProcessMemory", 0)] == 2
    # ties broken by name then status
    tied = [e for e in vocab if counts[e] == 1]
    assert tied == sorted(tied)


def test_vocabulary_is_permutation_invariant():
    a = build_api_vocabulary([log("sample_a.json"), log("sample_b.json")])
    b = build_api_vocabulary([log("sample_b.json"), log("sample_a.json")])
    assert a == b


def test_feature_counts_with_multiplicity():
    rep = log("sample_a.json")
    vocab = build_api_vocabulary([rep])
    vec = api_call_feature(rep, vocab)
    assert vec.shape == (len(vocab),)
    idx = vocab.index(("NtCreateFile", 1))
    assert vec[idx] == 2.0


def test_feature_is_additive_over_call_lists():
    rep_a = log("sample_a.json")
    rep_b = log("sample_b.json")
    vocab = build_api_vocabulary([rep_a, rep_b])
    merged = rep_a + rep_b
    va = api_call_feature(rep_a, vocab)
    vb = api_call_feature(rep_b, vocab)
    vm = api_call_feature(merged, vocab)
    assert np.array_equal(vm, va + vb)


def test_out_of_vocabulary_calls_dropped():
    rep_a = log("sample_a.json")
    vocab = build_api_vocabulary([rep_a])
    foreign = (("NeverSeenBefore", 1),) + rep_a
    vec = api_call_feature(foreign, vocab)
    assert np.array_equal(vec, api_call_feature(rep_a, vocab))


def test_vocabulary_from_many_synthetic_reports():
    # larger corpus: frequency ordering must hold at every adjacent pair
    rng = np.random.default_rng(0)
    reports = []
    for i in range(50):
        calls = []
        for _ in range(int(rng.integers(1, 30))):
            api = f"Api{int(rng.integers(0, 20)):02d}"
            calls.append({"api": api, "status": int(rng.integers(0, 2))})
        raw = json.dumps({"behavior": calls}).encode()
        reports.append(call_log_reference(raw))
    vocab = build_api_vocabulary(reports)
    totals = Counter(call for r in reports for call in r)
    counts = [totals[pair] for pair in vocab]
    assert list(counts) == sorted(counts, reverse=True) or all(
        counts[i] >= counts[i + 1] for i in range(len(counts) - 1)
    )
    total_calls = sum(len(r) for r in reports)
    assert sum(counts) == total_calls
