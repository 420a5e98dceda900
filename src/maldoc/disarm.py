"""Obfuscation-removal rewrites that disable risky PDF name tags in place.

Method 1 flips the case of every letter in seven targeted names (/AA,
/OpenAction, /JS, /JavaScript, /RichMedia, /Launch, /JBIG2Decode) so a
case-sensitive consumer no longer recognizes them, while file length and
every byte offset are preserved.  Method 2 additionally plants a
``_disarmed`` suffix right after each rewritten name, growing the file by 9
bytes per hit.  Neither repairs the xref table: the point is neutralizing
the name, not producing a pristine document.

Matching is escape-aware (``/J#61vaScript`` is the same name as
``/JavaScript``) and case-insensitive on the decoded name.  The
case-insensitive match is what makes Method 1 an involution: running it
twice restores the original bytes exactly, because the flipped spelling is
still matched on the second pass and flipped back.  The disclosed flip side:
a file that already contains an inverted spelling such as ``/aa`` gets it
rewritten to the canonical risky spelling ``/AA``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import ByteStream
from .tokenizer import _ESCAPE, _unescape, iter_names

TARGET_TAGS = (
    "/AA",
    "/OpenAction",
    "/JS",
    "/JavaScript",
    "/RichMedia",
    "/Launch",
    "/JBIG2Decode",
)
DISARM_SUFFIX = b"_disarmed"

_TARGETS_LOWER = {tag[1:].lower().encode("ascii"): tag for tag in TARGET_TAGS}


@dataclass(frozen=True)
class Replacement:
    """One rewritten name: canonical tag, offset of its '/', old and new bytes."""

    tag: str
    offset: int
    original: bytes
    replacement: bytes


@dataclass(frozen=True)
class DisarmReport:
    method: int
    replacements: tuple[Replacement, ...]
    input_sha256: str
    output_sha256: str

    def __post_init__(self) -> None:
        offsets = [r.offset for r in self.replacements]
        if any(b >= a for a, b in zip(offsets[1:], offsets)):
            raise ValueError("replacement offsets must be strictly increasing")
        if bool(self.replacements) != (self.input_sha256 != self.output_sha256):
            raise ValueError("output must change exactly when something was replaced")


def _flip_case(name: bytes) -> bytes:
    """Case-flipped rendering of a matched name's raw bytes.

    A literal letter is flipped in place.  An escaped letter keeps its
    escape: the flip toggles bit 0x20, which only moves the high hex digit
    between 4<->6 or 5<->7, so the rewrite toggles bit 0x02 of that digit
    and keeps the second byte-for-byte (hex letter case included).
    """
    out = bytearray(name.swapcase())
    for escape in _ESCAPE.finditer(name):
        hi = escape.start() + 1
        out[hi : hi + 2] = name[hi : hi + 2]
        if _unescape(escape).isalpha():
            out[hi] ^= 0x02
    return bytes(out)


def _disarm(data: ByteStream, method: int) -> tuple[ByteStream, DisarmReport]:
    raw = data.data
    parts: list[bytes] = []
    copied = 0  # input bytes emitted so far
    replacements: list[Replacement] = []
    for offset, end, name in iter_names(raw):
        tag = _TARGETS_LOWER.get(name.lower())
        if tag is None:
            continue
        new_name = b"/" + _flip_case(raw[offset + 1 : end])
        if method == 2:
            new_name += DISARM_SUFFIX
        parts += (raw[copied:offset], new_name)
        copied = end
        replacements.append(
            Replacement(tag=tag, offset=offset, original=raw[offset:end], replacement=new_name)
        )
    parts.append(raw[copied:])

    result = ByteStream(b"".join(parts), path=data.path)
    report = DisarmReport(
        method=method,
        replacements=tuple(replacements),
        input_sha256=data.sha256,
        output_sha256=result.sha256,
    )
    return result, report


def disarm_method1(data: ByteStream) -> tuple[ByteStream, DisarmReport]:
    """Case-flip targeted names in place; length-preserving involution."""
    return _disarm(data, method=1)


def disarm_method2(data: ByteStream) -> tuple[ByteStream, DisarmReport]:
    """Method 1 plus a ``_disarmed`` suffix after each rewritten name."""
    return _disarm(data, method=2)


def render_report(report: DisarmReport) -> str:
    """Structured text: a header line, then one line per replacement."""
    lines = [
        f"method\t{report.method}\tinput\t{report.input_sha256}\toutput\t{report.output_sha256}"
    ]
    for r in report.replacements:
        lines.append(f"{r.offset}\t{r.tag}\t{r.original.hex()}\t{r.replacement.hex()}")
    return "\n".join(lines) + "\n"
