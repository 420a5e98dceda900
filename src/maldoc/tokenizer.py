"""Byte-level PDF keyword scanning and the 25-tag structural feature.

Works directly on raw bytes: no object-tree parse, no decompression.  A PDF
that never decompresses cleanly still yields counts, which is the point when
the input is hostile.  Name escapes (``/J#61vaScript``) are folded away by
:func:`normalize_names` before counting so an attacker cannot hide a tag from
the scan by hex-escaping one letter.

Counts are a plain ``dict`` from tag to count; ``structural_feature`` lays
them out as the feature vector, in ``RISKY_TAGS`` order.

Token extent and ``#xx`` decoding are defined here only, and each pass over
a document visits just the tokens it needs.  :func:`normalize_names` visits
the name tokens that hold a ``#``, since no other token changes.
:func:`count_keywords` counts all name tokens with one ``findall`` and the
bare keywords with ``bytes.count``.  The ``disarm`` rewrites visit the tokens
that hold a ``#`` or that spell a target name in some case.
:func:`iter_names` yields every token with its decoded name.
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterator

import numpy as np

# PDF lexical classes.  A name token is / followed by a maximal run of
# regular bytes: anything that is neither whitespace (NUL, TAB, LF, FF, CR,
# space) nor a delimiter ( ( ) < > [ ] { } / % ).  Inside one, # followed by
# two hex digits (either case) encodes one byte.  Every name pattern, here and
# in ``disarm``, is built from _REGULAR.  A / is never regular, so a match
# that starts with / starts a token, and one that ends in _REGULAR* or in
# (?!_REGULAR) ends where that token ends.
_REGULAR = rb"[^\x00\t\n\x0c\r ()<>\[\]{}/%]"
_NAME = re.compile(rb"/" + _REGULAR + rb"*")
_ESCAPED_NAME = re.compile(rb"/" + _REGULAR + rb"*#" + _REGULAR + rb"*")
_ESCAPE = re.compile(rb"#[0-9A-Fa-f]{2}")

# The structural vocabulary, in feature-index order.  18 name tags that are
# matched as whole /-names (case-sensitive), and 7 bare keywords matched as
# raw substrings with subtractive disambiguation (an "obj" inside "endobj"
# is an endobj, not an obj).
RISKY_TAGS = (
    "/AA",
    "/AcroForm",
    "/Colors",
    "/EmbeddedFile",
    "/Encrypt",
    "/GoTo",
    "/GoToR",
    "/JBIG2Decode",
    "/JS",
    "/JavaScript",
    "/Launch",
    "/ObjStm",
    "/OpenAction",
    "/Page",
    "/RichMedia",
    "/SubmitForm",
    "/URI",
    "/XFA",
    "endobj",
    "endstream",
    "obj",
    "startxref",
    "stream",
    "trailer",
    "xref",
)

# keyword -> the longer keyword whose occurrences must not be double-counted
_SUBTRACT = {"obj": "endobj", "stream": "endstream", "xref": "startxref"}
_NAME_TAGS = {tag.encode("ascii"): tag for tag in RISKY_TAGS if tag.startswith("/")}
_BARE_TAGS = tuple(tag for tag in RISKY_TAGS if not tag.startswith("/"))


def _unescape(escape: re.Match) -> bytes:
    """The byte one ``#xx`` escape encodes."""
    return bytes.fromhex(escape[0][1:].decode("ascii"))


def _decode(name: bytes) -> bytes:
    """``name`` with its ``#xx`` escapes decoded, as :func:`iter_names` says."""
    return _ESCAPE.sub(_unescape, name) if b"#" in name else name


def iter_names(raw: bytes) -> Iterator[tuple[int, int, bytes]]:
    """Yield ``(offset, end, decoded)`` for every name token in ``raw``.

    ``raw[offset]`` is the token's ``/`` and ``raw[offset:end]`` its raw
    bytes; ``decoded`` is the name after the ``/`` with every ``#xx`` escape
    replaced, in one left-to-right pass (a decoded ``#`` starts no new
    escape).  A malformed escape is kept verbatim.
    """
    for token in _NAME.finditer(raw):
        yield token.start(), token.end(), _decode(token[0][1:])


def normalize_names(raw: bytes) -> bytes:
    """Decode ``#xx`` escapes inside name tokens; leave everything else alone.

    Escapes outside name tokens are untouched.  Output length never exceeds
    input length.
    """
    if b"#" not in raw:
        return raw  # nothing to decode
    parts: list[bytes] = []
    copied = 0  # input bytes emitted so far
    for token in _ESCAPED_NAME.finditer(raw):
        parts += (raw[copied : token.start()], _decode(token[0]))
        copied = token.end()
    parts.append(raw[copied:])
    return b"".join(parts)


def count_keywords(raw: bytes) -> dict[str, int]:
    """Count the 25 structural tags in raw bytes, keyed by tag.

    Name tags match only as the whole name: ``/JS`` in ``/JSOwnedName`` does
    not count because the name token there is ``JSOwnedName``.  Matching is
    exact on case and on the raw bytes.  Run :func:`normalize_names` first if
    escaped names should count.
    """
    names = Counter(_NAME.findall(raw))
    counts = {tag: names[token] for token, tag in _NAME_TAGS.items()}
    raw_hits = {kw: raw.count(kw.encode("ascii")) for kw in _BARE_TAGS}
    for kw in _BARE_TAGS:
        longer = _SUBTRACT.get(kw)
        counts[kw] = raw_hits[kw] - (raw_hits[longer] if longer else 0)
    return counts  # in RISKY_TAGS order, which lists the name tags first


def structural_feature(raw: bytes) -> np.ndarray:
    """Normalize escapes, count, and lay the counts out as the 25-entry
    structural vector, in ``RISKY_TAGS`` order."""
    counts = count_keywords(normalize_names(raw))
    return np.array([counts[tag] for tag in RISKY_TAGS], dtype=np.float64)
