"""The regex name lexer against the per-byte loops it replaced.

Normalization, keyword counting and both disarm methods all lex names
through ``iter_names``; each must agree byte for byte with the reference
loops in ``oracles.py`` on the seeded corpus, on escape-heavy random
strings, and on hand-picked edge cases.
"""

import numpy as np
import pytest

from maldoc import (
    ByteStream,
    RISKY_TAGS,
    count_keywords,
    disarm_method1,
    disarm_method2,
    iter_names,
    make_corpus,
    normalize_names,
)

from oracles import count_keywords_reference, disarm_reference, normalize_names_reference

EDGE_CASES = (
    b"",
    b"/",
    b"/A#2FJS",  # the escape decodes to "/", which splits the name
    b"/A#2361",  # a decoded "#" starts no second escape
    b"/A#6",
    b"/A#",
    b"/#6Fbj obj",
    b"/JS#20x",  # an escaped space stays inside the name
    b"/J#61vaScript /j#41VAsCRIPT /JBIG#32Decode /J#53#4aS",
    b"(#41) <#42> %#43\n/#4A#53",
)

# bytes that matter to the lexer, plus the letters of the tags it looks for
_ALPHABET = (
    b"/#0123456789abcdefABCDEFgG"
    b"\x00\t\n\x0c\r ()<>[]{}%"
    + bytes(sorted(set("".join(RISKY_TAGS).encode("ascii"))))
)


def _escape_some(rng: np.random.Generator, tag: bytes) -> bytes:
    out = bytearray(tag[:1])
    for byte in tag[1:]:
        if rng.random() < 0.3:
            hex_digits = f"{byte:02x}"
            out += b"#" + (hex_digits.upper() if rng.random() < 0.5 else hex_digits).encode("ascii")
        else:
            out.append(byte)
    return bytes(out)


def _random_strings(count: int, seed: int) -> list[bytes]:
    """Soup over the lexer's alphabet with planted, partly escaped tags."""
    rng = np.random.default_rng(seed)
    tags = [t.encode("ascii") for t in RISKY_TAGS if t.startswith("/")]
    out = []
    for _ in range(count):
        pieces = []
        for _ in range(int(rng.integers(0, 40))):
            roll = rng.random()
            if roll < 0.15:
                tag = tags[int(rng.integers(0, len(tags)))]
                pieces.append(_escape_some(rng, tag.swapcase() if rng.random() < 0.3 else tag))
            else:
                pieces.append(_ALPHABET[int(rng.integers(0, len(_ALPHABET)))].to_bytes(1, "big"))
        out.append(b"".join(pieces))
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> list[bytes]:
    manifest = make_corpus(tmp_path_factory.mktemp("lexer"), n_total=400, seed=2024)
    corpus = sorted((manifest.parent / "pdfs").glob("*.pdf"))
    assert len(corpus) == 400
    return [p.read_bytes() for p in corpus] + _random_strings(2500, seed=77) + list(EDGE_CASES)


def test_lexer_matches_reference_loops(inputs):
    mismatches = []
    for raw in inputs:
        data = ByteStream(raw)
        normalized = normalize_names(data)
        if normalized.data != normalize_names_reference(data).data:
            mismatches.append(("normalize_names", raw))
        for counted in (data, normalized):
            if count_keywords(counted) != count_keywords_reference(counted):
                mismatches.append(("count_keywords", counted.data))
        for method, rewrite in ((1, disarm_method1), (2, disarm_method2)):
            if rewrite(data) != disarm_reference(data, method):
                mismatches.append((f"disarm_method{method}", raw))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]!r}"


def test_iter_names_reports_raw_extent_and_decoded_name():
    raw = b"<< /J#61vaScript /A#6 >>/#2F"
    assert list(iter_names(raw)) == [(3, 16, b"JavaScript"), (17, 21, b"A#6"), (24, 28, b"/")]
