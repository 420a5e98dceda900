"""The regex name lexer against the per-byte loops it replaced.

Normalization, keyword counting and both disarm methods each lex names
with their own regular expression, built from the one regular-byte class
in ``tokenizer``; each must agree byte for byte with the reference loops in
``oracles.py`` on the seeded corpus, on concatenations of it the size of a
scanned document, on escape-heavy random strings, and on hand-picked edge
cases.
"""

import numpy as np
import pytest

from maldoc import (
    ByteStream,
    RISKY_TAGS,
    count_keywords,
    disarm_method1,
    disarm_method2,
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
    b"/JSx",  # a target's prefix is not the target
    b"/jS",
    b"/J#53x",
    b"/JavaScript#",  # a trailing bare "#" stays in the name
    b"/aa/AA",
    b"/JS%",
    b"/JS\x00",
    b"/#4a#53",  # every byte escaped
    b"1 0 obj << /Type /Catalog /OpenAction",  # a target as the last bytes
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


def _concatenations(pdfs: list[bytes], count: int, seed: int) -> list[bytes]:
    """``count`` scan-sized inputs, each at least 1 MB of whole PDFs drawn in
    a seeded order."""
    order = iter(np.random.default_rng(seed).permutation(len(pdfs)).tolist())
    out = []
    for _ in range(count):
        parts: list[bytes] = []
        while sum(map(len, parts)) < 2**20:
            parts.append(pdfs[next(order)])
        out.append(b"".join(parts))
    return out


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> list[bytes]:
    manifest = make_corpus(tmp_path_factory.mktemp("lexer"), n_total=400, seed=2024)
    corpus = [p.read_bytes() for p in sorted((manifest.parent / "pdfs").glob("*.pdf"))]
    assert len(corpus) == 400
    large = _concatenations(corpus, 3, seed=11)
    return corpus + large + _random_strings(2500, seed=77) + list(EDGE_CASES)


def test_lexer_matches_reference_loops(inputs):
    mismatches = []
    for raw in inputs:
        data = ByteStream(raw)
        normalized = normalize_names(raw)
        if normalized != normalize_names_reference(raw):
            mismatches.append(("normalize_names", raw))
        for counted in (raw, normalized):
            if count_keywords(counted) != count_keywords_reference(counted):
                mismatches.append(("count_keywords", counted))
        for method, rewrite in ((1, disarm_method1), (2, disarm_method2)):
            if rewrite(data) != disarm_reference(data, method):
                mismatches.append((f"disarm_method{method}", raw))
    assert not mismatches, f"{len(mismatches)} mismatches, first: {mismatches[0]!r}"

