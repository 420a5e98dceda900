"""Keyword scanner: escape folding, whole-name matching, subtractive keywords."""

import numpy as np

from maldoc import ByteStream, RISKY_TAGS, count_keywords, normalize_names, structural_feature


def counts_of(raw: bytes) -> dict[str, int]:
    return count_keywords(ByteStream(raw))


def nonzero(counts: dict[str, int]) -> dict[str, int]:
    return {tag: n for tag, n in counts.items() if n}


def test_object_wrapper_example():
    got = counts_of(b"1 0 obj << /JavaScript 2 0 R >> endobj")
    assert nonzero(got) == {"obj": 1, "endobj": 1, "/JavaScript": 1}


def test_startxref_does_not_count_as_xref():
    got = counts_of(b"startxref\n116\n%%EOF")
    assert got["startxref"] == 1
    assert got["xref"] == 0


def test_endobj_does_not_count_as_obj():
    assert nonzero(counts_of(b"endobj")) == {"endobj": 1}
    got = counts_of(b"2 0 obj endobj")
    assert got["obj"] == 1 and got["endobj"] == 1


def test_endstream_does_not_count_as_stream():
    got = counts_of(b"stream\nAB\nendstream")
    assert got["stream"] == 1 and got["endstream"] == 1
    assert nonzero(counts_of(b"endstream"))["endstream"] == 1
    assert counts_of(b"endstream")["stream"] == 0


def test_name_matches_whole_token_only():
    # the name token here is "JSOwnedName", not "JS"
    got = counts_of(b"<< /JSOwnedName 4 0 R >>")
    assert got["/JS"] == 0
    got = counts_of(b"/JavaScriptX")
    assert got["/JavaScript"] == 0


def test_adjacent_names_both_count():
    # "/" is a delimiter, so it terminates the previous name token
    got = counts_of(b"/JavaScript/JS")
    assert got["/JavaScript"] == 1 and got["/JS"] == 1


def test_name_matching_is_case_sensitive():
    got = counts_of(b"/javascript /JAVASCRIPT /JavaScript")
    assert got["/JavaScript"] == 1


def test_normalize_names_decodes_hex_escape():
    out = normalize_names(ByteStream(b"/Na#6d#65 (#41)"))
    assert out.data == b"/Name (#41)"


def test_normalize_names_outside_name_untouched():
    raw = b"(#41) <#42> %#43\n"
    assert normalize_names(ByteStream(raw)).data == raw


def test_normalize_names_malformed_escape_kept():
    assert normalize_names(ByteStream(b"/A#6")).data == b"/A#6"
    assert normalize_names(ByteStream(b"/A#6G")).data == b"/A#6G"
    assert normalize_names(ByteStream(b"/A#")).data == b"/A#"


def test_normalize_names_single_pass():
    # a decoded '#' must not seed a second round of decoding
    assert normalize_names(ByteStream(b"/A#2361")).data == b"/A#61"


def test_normalize_names_uppercase_hex():
    assert normalize_names(ByteStream(b"/J#61vaScript /J#41S")).data == b"/JavaScript /JAS"


def test_escaped_tag_counts_via_structural_feature():
    vec = structural_feature(ByteStream(b"/J#61vaScript"))
    assert vec.values[RISKY_TAGS.index("/JavaScript")] == 1.0


def test_escaped_slash_splits_the_name():
    # #2F decodes to "/", which then starts a name token of its own
    vec = structural_feature(ByteStream(b"/A#2FJS"))
    assert vec.values[RISKY_TAGS.index("/JS")] == 1.0
    assert vec.values.sum() == 1.0


def test_structural_feature_layout_and_kind():
    raw = b"1 0 obj /OpenAction /AA /AA endobj trailer xref"
    vec = structural_feature(ByteStream(raw))
    assert vec.kind == "structural"
    assert vec.values.shape == (25,)
    assert vec.values[RISKY_TAGS.index("/AA")] == 2.0
    assert vec.values[RISKY_TAGS.index("/OpenAction")] == 1.0
    assert vec.values[RISKY_TAGS.index("trailer")] == 1.0
    assert vec.values[RISKY_TAGS.index("xref")] == 1.0


def test_structural_feature_matches_counts_dict():
    data = ByteStream(b"/JS /J#53 /Launch stream endstream")
    counts = count_keywords(normalize_names(data))
    vec = structural_feature(data)
    for tag in RISKY_TAGS:
        assert vec.values[RISKY_TAGS.index(tag)] == counts[tag]
    assert counts["/JS"] == 2


def test_empty_stream_counts_zero():
    counts = count_keywords(ByteStream(b""))
    assert all(n == 0 for n in counts.values())


def _random_pdfish(rng: np.random.Generator, size: int) -> bytes:
    """Byte soup with planted tags so counts are rarely all zero."""
    soup = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
    parts = [soup]
    for _ in range(int(rng.integers(0, 6))):
        tag = RISKY_TAGS[int(rng.integers(0, 25))]
        parts.append(b" " + tag.encode("ascii") + b" ")
    order = rng.permutation(len(parts))
    return b"".join(parts[i] for i in order)


def test_whitespace_seam_is_exactly_additive():
    # no token can span a whitespace byte, so counts add exactly
    rng = np.random.default_rng(1001)
    for _ in range(50):
        a = _random_pdfish(rng, int(rng.integers(0, 400)))
        b = _random_pdfish(rng, int(rng.integers(0, 400)))
        joined = count_keywords(ByteStream(a + b"\n" + b))
        ca = count_keywords(ByteStream(a))
        cb = count_keywords(ByteStream(b))
        for tag in RISKY_TAGS:
            assert joined[tag] == ca[tag] + cb[tag], (tag, a, b)


def test_raw_concatenation_changes_each_count_by_at_most_two():
    # a raw seam can create or destroy at most one match on each side
    rng = np.random.default_rng(1002)
    for _ in range(50):
        a = _random_pdfish(rng, int(rng.integers(0, 400)))
        b = _random_pdfish(rng, int(rng.integers(0, 400)))
        joined = count_keywords(ByteStream(a + b))
        ca = count_keywords(ByteStream(a))
        cb = count_keywords(ByteStream(b))
        for tag in RISKY_TAGS:
            assert abs(joined[tag] - (ca[tag] + cb[tag])) <= 2, (tag, a, b)
