"""Sandbox-report parsing, vocabulary construction, and call-count features."""

import json
from pathlib import Path

import numpy as np
import pytest

from maldoc import ByteStream
from maldoc.dynamic import (
    ApiReport,
    ApiVocabulary,
    ReportParseError,
    api_call_feature,
    build_api_vocabulary,
    parse_report,
)

FIXTURES = Path(__file__).parent / "fixtures" / "reports"


def load(name: str) -> ApiReport:
    return parse_report(ByteStream.from_file(FIXTURES / name))


def test_parse_counts_calls_with_multiplicity():
    rep = load("sample_a.json")
    assert len(rep.calls) == 5
    assert rep.calls.count(("NtCreateFile", 1)) == 2
    assert rep.calls.count(("NtCreateFile", 0)) == 1
    assert ("RegOpenKeyExW", 1) in rep.calls
    assert ("InternetOpenUrlA", 0) in rep.calls


def test_parse_preserves_call_order():
    rep = load("sample_b.json")
    assert rep.calls == (
        ("NtCreateFile", 1),
        ("WriteProcessMemory", 0),
        ("WriteProcessMemory", 0),
    )


def test_missing_behavior_section_is_empty_report():
    rep = load("no_behavior.json")
    assert rep.calls == ()


def test_truncated_json_reports_byte_offset():
    with pytest.raises(ReportParseError) as exc:
        load("truncated.json")
    assert exc.value.offset is not None
    assert exc.value.offset > 0


def test_boolean_status_rejected():
    # JSON true/false must not silently coerce to 1/0
    with pytest.raises(ReportParseError, match="status"):
        load("bool_status.json")


def test_control_character_api_rejected():
    with pytest.raises(ReportParseError, match="api"):
        load("control_char_api.json")


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(ReportParseError, match="nests too deeply"):
        parse_report(ByteStream(b"[" * 200_000))


def test_integer_over_the_digit_limit_is_a_parse_error():
    raw = b'{"behavior": [{"api": "NtOpenFile", "status": ' + b"1" * 5_000 + b"}]}"
    with pytest.raises(ReportParseError, match="digits"):
        parse_report(ByteStream(raw))


def test_parse_rejects_non_object_root():
    with pytest.raises(ReportParseError):
        parse_report(ByteStream(b"[1, 2]"))


def test_vocabulary_ordering_by_frequency_then_name():
    reports = [load("sample_a.json"), load("sample_b.json")]
    vocab = build_api_vocabulary(reports)
    # (NtCreateFile, 1) occurs 3 times across the corpus: it leads
    assert vocab.entries[0] == ("NtCreateFile", 1)
    counts = dict(zip(vocab.entries, vocab.counts))
    assert counts[("NtCreateFile", 1)] == 3
    assert counts[("WriteProcessMemory", 0)] == 2
    # ties broken by name then status
    tied = [e for e in vocab.entries if counts[e] == 1]
    assert tied == sorted(tied)


def test_vocabulary_is_permutation_invariant():
    a = build_api_vocabulary([load("sample_a.json"), load("sample_b.json")])
    b = build_api_vocabulary([load("sample_b.json"), load("sample_a.json")])
    assert a.entries == b.entries
    assert a.counts == b.counts


def test_feature_counts_with_multiplicity():
    rep = load("sample_a.json")
    vocab = build_api_vocabulary([rep])
    vec = api_call_feature(rep, vocab)
    assert vec.kind == "apicalls"
    assert vec.values.shape == (len(vocab.entries),)
    idx = vocab.entries.index(("NtCreateFile", 1))
    assert vec.values[idx] == 2.0


def test_feature_is_additive_over_call_lists():
    rep_a = load("sample_a.json")
    rep_b = load("sample_b.json")
    vocab = build_api_vocabulary([rep_a, rep_b])
    merged = ApiReport(calls=rep_a.calls + rep_b.calls)
    va = api_call_feature(rep_a, vocab).values
    vb = api_call_feature(rep_b, vocab).values
    vm = api_call_feature(merged, vocab).values
    assert np.array_equal(vm, va + vb)


def test_out_of_vocabulary_calls_dropped():
    rep_a = load("sample_a.json")
    vocab = build_api_vocabulary([rep_a])
    foreign = ApiReport(calls=(("NeverSeenBefore", 1),) + rep_a.calls)
    vec = api_call_feature(foreign, vocab)
    assert np.array_equal(vec.values, api_call_feature(rep_a, vocab).values)


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
        reports.append(parse_report(ByteStream(raw, path=f"r{i}.json")))
    vocab = build_api_vocabulary(reports)
    assert list(vocab.counts) == sorted(vocab.counts, reverse=True) or all(
        vocab.counts[i] >= vocab.counts[i + 1] for i in range(len(vocab.counts) - 1)
    )
    total_calls = sum(len(r.calls) for r in reports)
    assert sum(vocab.counts) == total_calls
