"""Case-flip rewrites: involution, length accounting, and scan exactness."""

import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

from maldoc import (
    ByteStream,
    RISKY_TAGS,
    core,
    count_keywords,
    disarm_method1,
    disarm_method2,
    normalize_names,
    render_report,
    structural_feature,
)
from maldoc.disarm import DISARM_SUFFIX, TARGET_TAGS, DisarmReport, Replacement


def m1(raw: bytes) -> tuple[bytes, DisarmReport]:
    out, report = disarm_method1(ByteStream(raw))
    return out.data, report


def m2(raw: bytes) -> tuple[bytes, DisarmReport]:
    out, report = disarm_method2(ByteStream(raw))
    return out.data, report


def test_simple_tag_flips_case():
    out, report = m1(b"<< /AA 5 0 R >>")
    assert out == b"<< /aa 5 0 R >>"
    assert len(report.replacements) == 1
    assert report.replacements[0].tag == "/AA"


def test_mixed_case_tag_flips_per_letter():
    out, _ = m1(b"/JavaScript")
    assert out == b"/jAVAsCRIPT"


def test_matching_ignores_case():
    out, report = m1(b"/javascript /OPENACTION /OpenAction")
    assert out == b"/JAVASCRIPT /openaction /oPENaCTION"
    assert len(report.replacements) == 3


def test_method1_is_an_involution():
    raw = b"%PDF-1.5 1 0 obj << /OpenAction << /S /JavaScript /JS (x) >> /AA 2 0 R >> endobj"
    once, rep1 = m1(raw)
    twice, rep2 = m1(once)
    assert twice == raw
    assert once != raw
    assert len(rep1.replacements) == len(rep2.replacements)


def test_method1_preserves_length():
    raw = b"/OpenAction /J#61vaScript /RichMedia trailing"
    out, report = m1(raw)
    assert len(out) == len(raw)
    assert len(report.replacements) == 3


def test_method2_appends_suffix_per_replacement():
    raw = b"<< /JS (a) /Launch (b) >>"
    out, report = m2(raw)
    assert len(report.replacements) == 2
    assert len(out) == len(raw) + len(DISARM_SUFFIX) * 2
    assert out.count(b"_disarmed") == 2


def test_method2_rewrites_name_and_adds_marker():
    out, _ = m2(b"/JS 4 0 R")
    assert out == b"/js_disarmed 4 0 R"


def test_zero_match_input_untouched(monkeypatch):
    raw = b"%PDF-1.4 plain body with /Font and /Pages only"
    hashed = []

    def sha256(data):
        hashed.append(data)
        return hashlib.sha256(data)

    # the input stream comes back as the output, its digest taken once for both
    monkeypatch.setattr(core, "hashlib", SimpleNamespace(sha256=sha256))
    for fn in (disarm_method1, disarm_method2):
        hashed.clear()
        stream = ByteStream(raw)
        out, report = fn(stream)
        assert out is stream
        assert report.replacements == ()
        assert report.input_sha256 == report.output_sha256 == hashlib.sha256(raw).hexdigest()
        assert hashed == [raw]


def test_output_hash_differs_when_rewritten():
    raw = b"/AA"
    out, report = m1(raw)
    assert report.input_sha256 == hashlib.sha256(raw).hexdigest()
    assert report.output_sha256 == hashlib.sha256(out).hexdigest()
    assert report.input_sha256 != report.output_sha256


def test_escaped_tag_is_found_and_stays_escaped():
    raw = b"/J#61vaScript"
    out, report = m1(raw)
    assert len(report.replacements) == 1
    # the escape survives as an escape: only its case bit moves
    assert out == b"/j#41VAsCRIPT"
    back, _ = m1(out)
    assert back == raw


def test_escape_second_hex_digit_is_preserved_verbatim():
    # 0x61 and 0x41 differ only in the first hex digit; a lowercase
    # second digit spelling must round-trip byte for byte
    raw = b"/J#61vaScript"
    out, _ = m1(raw)
    assert b"#41" in out
    raw2 = b"/#4aS"  # "J" escaped, second digit spelled lowercase
    out2, rep2 = m1(raw2)
    assert len(rep2.replacements) == 1
    assert out2 == b"/#6as"
    back2, _ = m1(out2)
    assert back2 == raw2


def test_non_target_names_untouched():
    raw = b"/JSOwnedName /Keywords /LaunchPad"
    for fn in (m1, m2):
        out, report = fn(raw)
        assert out == raw
        assert report.replacements == ()


def test_all_seven_targets_covered():
    assert set(TARGET_TAGS) == {
        "/AA",
        "/OpenAction",
        "/JS",
        "/JavaScript",
        "/RichMedia",
        "/Launch",
        "/JBIG2Decode",
    }
    raw = b" ".join(tag.encode("ascii") for tag in TARGET_TAGS)
    out, report = m1(raw)
    assert len(report.replacements) == 7
    assert {r.tag for r in report.replacements} == set(TARGET_TAGS)


def test_replacement_offsets_point_at_original_bytes():
    raw = b"x /AA y /JS z /AA"
    _, report = m1(raw)
    assert len(report.replacements) == 3
    offsets = [r.offset for r in report.replacements]
    assert offsets == sorted(offsets)
    assert len(set(offsets)) == 3
    for r in report.replacements:
        assert raw[r.offset : r.offset + len(r.original)] == r.original


def test_rewrite_neutralizes_keyword_counts():
    raw = b"<< /OpenAction << /JS (app.alert(1)) >> /AA 3 0 R /JBIG2Decode 1 >>"
    for fn in (m1, m2):
        out, _ = fn(raw)
        counts = count_keywords(normalize_names(out))
        for tag in TARGET_TAGS:
            assert counts[tag] == 0, (fn, tag)


def test_structural_feature_drops_after_disarm():
    raw = b"/OpenAction /JS /JS /Launch /Page obj endobj"
    before = structural_feature(raw)
    after = structural_feature(disarm_method1(ByteStream(raw))[0].data)

    for tag in TARGET_TAGS:
        assert after[RISKY_TAGS.index(tag)] == 0.0
    # untouched tags keep their counts
    assert after[RISKY_TAGS.index("/Page")] == before[RISKY_TAGS.index("/Page")]
    assert after[RISKY_TAGS.index("obj")] == before[RISKY_TAGS.index("obj")]


def test_report_invariants_enforced():
    reps = (
        Replacement(tag="/JS", offset=5, original=b"/JS", replacement=b"/js"),
        Replacement(tag="/AA", offset=2, original=b"/AA", replacement=b"/aa"),
    )
    with pytest.raises(ValueError, match="offset"):
        DisarmReport(method=1, replacements=reps, input_sha256="a" * 64, output_sha256="b" * 64)
    with pytest.raises(ValueError, match="change exactly when"):
        DisarmReport(method=1, replacements=(), input_sha256="a" * 64, output_sha256="b" * 64)


def test_render_report_lists_method_hashes_and_rows():
    raw = b"/AA /JS"
    _, report = m1(raw)
    text = render_report(report)
    header, *rows = text.splitlines()
    assert header.split("\t")[:2] == ["method", "1"]
    assert report.input_sha256 in header and report.output_sha256 in header
    assert len(rows) == 2
    assert rows[0].split("\t")[1] == "/AA"
    assert rows[1].split("\t")[1] == "/JS"
    # replaced bytes are carried as hex
    assert rows[0].split("\t")[2] == b"/AA".hex()
    assert rows[0].split("\t")[3] == b"/aa".hex()


def test_involution_on_random_pdfish_bytes():
    rng = np.random.default_rng(321)
    tags = [t.encode("ascii") for t in TARGET_TAGS]
    for _ in range(25):
        parts = [rng.integers(32, 127, int(rng.integers(0, 80)), dtype=np.uint8).tobytes()]
        for _ in range(int(rng.integers(0, 5))):
            parts.append(b" " + tags[int(rng.integers(0, len(tags)))] + b" ")
        raw = b"".join(parts)
        once, _ = m1(raw)
        twice, _ = m1(once)
        assert twice == raw
