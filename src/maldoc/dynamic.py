"""Sandbox-report parsing and the API-call bag-of-words feature.

Reports are a small JSON subset (see docs/formats.md):

    {"behavior": [{"api": "NtOpenFile", "status": 1}, ...]}

``status`` is an opaque 0/1 outcome flag.  Calls from all processes arrive
flattened into the one list.  A report without a ``behavior`` key is an
empty (still valid) report.  Anything structurally off is an error: these
files come from an analysis sandbox, and a half-read report must not turn
into a silently empty feature.

The feature is a count vector over a corpus-fitted vocabulary of distinct
(api, status) pairs; pairs outside the vocabulary are dropped.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

import numpy as np

from .core import DataError

# one sample's flattened call log, (api, status) pairs with multiplicity
Calls = tuple[tuple[str, int], ...]

# a report larger than this is refused before it is read: parsing one adds
# about 10 bytes of peak memory per report byte, and the call log kept for
# the run about 3
MAX_REPORT_BYTES = 32 * 1024 * 1024


def parse_report(raw: bytes) -> Calls:
    """One sandbox report's call log; fail closed on anything malformed.

    A malformed report is a :class:`DataError`, with the byte offset in its
    message where the decoder knows it.
    """
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"report is not valid UTF-8 (byte offset {exc.start})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"report is not valid JSON: {exc.msg} (byte offset {exc.pos})") from exc
    except RecursionError:
        raise DataError("report nests too deeply to parse") from None
    except ValueError as exc:  # an integer literal over the conversion digit limit
        raise DataError(f"report is not valid JSON: {exc}") from None

    if not isinstance(doc, dict):
        raise DataError("report root must be an object")
    behavior = doc.get("behavior")
    calls: list[tuple[str, int]] = []
    if behavior is not None:
        if not isinstance(behavior, list):
            raise DataError("'behavior' must be a list of call entries")
        for i, entry in enumerate(behavior):
            if not isinstance(entry, dict):
                raise DataError(f"behavior[{i}] is not an object")
            api = entry.get("api")
            status = entry.get("status")
            if not isinstance(api, str) or not api:
                raise DataError(f"behavior[{i}].api must be a non-empty string")
            if "\t" in api or "\n" in api or "\r" in api:
                raise DataError(f"behavior[{i}].api contains control characters")
            # bool is an int subclass; a JSON true/false status is malformed
            if isinstance(status, bool) or status not in (0, 1):
                raise DataError(f"behavior[{i}].status must be 0 or 1")
            calls.append((api, int(status)))
    return tuple(calls)


def build_api_vocabulary(reports: Sequence[Calls]) -> Calls:
    """Fit the vocabulary on a corpus of call logs: its distinct (api, status) pairs.

    Ordered by descending corpus total, then api name, then status, so any
    reordering of the same multiset of reports yields an identical
    vocabulary.
    """
    if not reports:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    totals: Counter[tuple[str, int]] = Counter()
    for calls in reports:
        totals.update(calls)
    return tuple(sorted(totals, key=lambda pair: (-totals[pair], pair[0], pair[1])))


def api_call_feature(report: Calls, vocab: Calls) -> np.ndarray:
    """Raw per-pair counts laid out in vocabulary order; OOV pairs dropped.

    Additive: the feature of a concatenated call log is the sum of the
    parts' features.
    """
    count = Counter(report).get
    return np.array([count(pair, 0) for pair in vocab], dtype=np.float64)

