"""Seeded synthetic corpus: benign-looking and malicious-looking PDFs.

Nothing here is hostile.  Benign files are plain text-object documents;
malicious files carry the structural tells of real PDF malware (launch and
JavaScript actions, auto-open hooks, embedded files, form XFA blobs,
high-entropy payload streams) with inert string payloads.  Sandbox-style
call reports are fabricated alongside so the dynamic feature path runs
offline too.

Payload streams never contain the 0x2F byte ('/'): a random stream could
otherwise mint a byte-visible name tag and make corpus-level guarantees
(for example "disarm removes every targeted tag") depend on seed luck.

Same seed, same corpus, byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

_WORDS = (
    "annual report quarterly revenue margin forecast committee agenda minutes "
    "budget travel policy invoice schedule overview summary appendix figure "
    "table draft final review notes meeting october january product customer "
    "contract delivery status update region staff training memo archive"
).split()

_BENIGN_APIS = (
    "NtOpenFile", "NtReadFile", "NtClose", "NtQueryAttributesFile",
    "RegOpenKeyExW", "RegQueryValueExW", "GetSystemMetrics", "LoadLibraryW",
    "GetProcAddress", "NtAllocateVirtualMemory", "GetSystemTimeAsFileTime",
    "FindFirstFileExW", "CoInitializeEx", "DrawTextExW",
)

_SUSPICIOUS_APIS = (
    "CreateProcessInternalW", "NtWriteVirtualMemory", "WinExec",
    "URLDownloadToFileW", "NtCreateThreadEx", "ShellExecuteExW",
    "InternetOpenUrlA", "CryptEncrypt", "NtSetContextThread",
    "WriteProcessMemory", "NtMapViewOfSection", "RegSetValueExW",
)


def _text_stream(rng: np.random.Generator) -> bytes:
    lines = []
    for _ in range(int(rng.integers(12, 90))):
        words = rng.integers(0, len(_WORDS), size=int(rng.integers(4, 11)))
        lines.append(" ".join([_WORDS[w] for w in words.tolist()]))
    body = ["BT", "/F1 11 Tf", "72 760 Td"]
    for line in lines:
        body.append(f"({line}) Tj")
        body.append("0 -14 Td")
    body.append("ET")
    return "\n".join(body).encode("ascii")


def _payload_stream(rng: np.random.Generator) -> bytes:
    # high-entropy filler; '/' is excluded (see module docstring)
    size = int(rng.integers(2_000, 24_000))
    raw = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
    return raw.replace(b"/", b"\\")


def _stream_object(num: int, body: bytes, extra: str = "") -> bytes:
    head = f"{num} 0 obj\n<< /Length {len(body)}{extra} >>\nstream\n".encode("ascii")
    return head + body + b"\nendstream\nendobj"


def _assemble(objects: list[bytes]) -> bytes:
    """Lay objects out sequentially and append a correct xref table."""
    out = bytearray(b"%PDF-1.4\n%\xc7\xec\x8f\xa2\n")
    offsets = []
    for body in objects:
        offsets.append(len(out))
        out += body + b"\n"
    xref_at = len(out)
    out += b"xref\n0 %d\n" % (len(objects) + 1)
    out += b"0000000000 65535 f \n"
    for off in offsets:
        out += b"%010d 00000 n \n" % off
    out += b"trailer\n<< /Size %d /Root 1 0 R >>\nstartxref\n%d\n%%%%EOF\n" % (
        len(objects) + 1,
        xref_at,
    )
    return bytes(out)


def _js_payload(rng: np.random.Generator) -> str:
    var = "v" + "".join(chr(97 + c) for c in rng.integers(0, 26, size=6))
    hexes = "".join(f"%u{c:04x}" for c in rng.integers(0x4141, 0x7A7A, size=8))
    return f"var {var} = unescape('{hexes}'); app.alert({var}.length);"


def benign_pdf(rng: np.random.Generator) -> bytes:
    n_pages = int(rng.integers(1, 4))
    objects: list[bytes] = []
    kids = " ".join(f"{3 + 2 * i} 0 R" for i in range(n_pages))
    objects.append(b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj")
    objects.append(
        f"2 0 obj\n<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>\nendobj".encode("ascii")
    )
    font_num = 3 + 2 * n_pages
    for i in range(n_pages):
        page, content = 3 + 2 * i, 4 + 2 * i
        objects.append(
            (
                f"{page} 0 obj\n<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                f"/Contents {content} 0 R /Resources << /Font << /F1 {font_num} 0 R >> >> >>"
                "\nendobj"
            ).encode("ascii")
        )
        objects.append(_stream_object(content, _text_stream(rng)))
    objects.append(
        (
            f"{font_num} 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>\nendobj"
        ).encode("ascii")
    )
    return _assemble(objects)


def malicious_pdf(rng: np.random.Generator) -> bytes:
    objects: list[bytes] = []
    n_payloads = int(rng.integers(1, 3))
    use_aa = bool(rng.integers(0, 2))
    use_launch = bool(rng.integers(0, 2))
    use_embedded = bool(rng.integers(0, 2))
    use_xfa = bool(rng.integers(0, 4) == 0)
    use_richmedia = bool(rng.integers(0, 4) == 0)
    escape_trick = bool(rng.integers(0, 8) == 0)

    # fixed skeleton: catalog 1, pages 2, page 3, content 4, js action 5
    js_name = "/J#61vaScript" if escape_trick else "/JavaScript"
    catalog = "<< /Type /Catalog /Pages 2 0 R /OpenAction 5 0 R"
    if use_aa:
        catalog += " /AA << /WC 5 0 R >>"
    if use_xfa:
        catalog += " /AcroForm << /XFA (x) >>"
    catalog += " >>"
    objects.append(f"1 0 obj\n{catalog}\nendobj".encode("ascii"))
    objects.append(b"2 0 obj\n<< /Type /Pages /Kids [3 0 R] /Count 1 >>\nendobj")
    page = "<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R"
    if use_richmedia:
        page += " /Annots [<< /Subtype /RichMedia >>]"
    page += " >>"
    objects.append(f"3 0 obj\n{page}\nendobj".encode("ascii"))
    objects.append(_stream_object(4, _text_stream(rng)))
    objects.append(
        (
            f"5 0 obj\n<< /Type /Action /S {js_name} /JS ({_js_payload(rng)}) >>\nendobj"
        ).encode("ascii")
    )
    next_num = 6
    if use_launch:
        objects.append(
            (
                f"{next_num} 0 obj\n<< /Type /Action /S /Launch /F (payload.bin) >>\nendobj"
            ).encode("ascii")
        )
        next_num += 1
    if use_embedded:
        objects.append(
            _stream_object(next_num, _payload_stream(rng), " /Type /EmbeddedFile")
        )
        next_num += 1
    for _ in range(n_payloads):
        extra = " /Filter /JBIG2Decode" if rng.integers(0, 2) else " /Type /ObjStm"
        objects.append(_stream_object(next_num, _payload_stream(rng), extra))
        next_num += 1
    return _assemble(objects)


def _fake_report(rng: np.random.Generator, malicious: bool) -> bytes:
    calls = []
    n_base = int(rng.integers(18, 50))
    for _ in range(n_base):
        api = _BENIGN_APIS[int(rng.integers(0, len(_BENIGN_APIS)))]
        status = 1 if rng.random() < 0.9 else 0
        calls.append({"api": api, "status": status})
    if malicious:
        for _ in range(int(rng.integers(10, 30))):
            api = _SUSPICIOUS_APIS[int(rng.integers(0, len(_SUSPICIOUS_APIS)))]
            status = 1 if rng.random() < 0.6 else 0
            calls.append({"api": api, "status": status})
    return json.dumps({"behavior": calls}).encode("utf-8")


def make_corpus(out_dir: str | Path, n_total: int = 400, seed: int = 0) -> Path:
    """Write pdfs/, reports/, and manifest.csv under ``out_dir``.

    ``n_total`` splits evenly; an odd count gives the extra file to the
    malicious half.  Returns the manifest path.
    """
    if n_total < 2:
        raise ValueError("a corpus needs at least one file per class")
    rng = np.random.Generator(np.random.PCG64(seed))  # a bad seed raises before any directory is made
    out_dir = Path(out_dir)
    (out_dir / "pdfs").mkdir(parents=True, exist_ok=True)
    (out_dir / "reports").mkdir(parents=True, exist_ok=True)

    n_benign = n_total // 2
    n_malicious = n_total - n_benign
    manifest_lines = ["path,label,report_path"]
    jobs = [("benign", i, False) for i in range(n_benign)] + [
        ("malware", i, True) for i in range(n_malicious)
    ]
    for label, i, is_mal in jobs:
        stem = f"{label}_{i:04d}"
        pdf = malicious_pdf(rng) if is_mal else benign_pdf(rng)
        (out_dir / "pdfs" / f"{stem}.pdf").write_bytes(pdf)
        (out_dir / "reports" / f"{stem}.json").write_bytes(_fake_report(rng, is_mal))
        manifest_lines.append(f"pdfs/{stem}.pdf,{label},reports/{stem}.json")

    manifest = out_dir / "manifest.csv"
    manifest.write_text("\n".join(manifest_lines) + "\n", encoding="ascii")
    return manifest
