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
from dataclasses import dataclass

import numpy as np

from .core import ByteStream, DataError, FeatureVector


class ReportParseError(DataError):
    """Malformed sandbox report; carries the byte offset when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


@dataclass(frozen=True)
class ApiReport:
    """Flattened call log of one sample: (api_name, status) with multiplicity."""

    calls: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ApiVocabulary:
    """Ordered distinct (api, status) pairs with their corpus totals.

    Order: descending total count, then api name, then status.
    """

    entries: tuple[tuple[str, int], ...]
    counts: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.entries)


def parse_report(data: ByteStream) -> ApiReport:
    """Parse one sandbox report; fail closed on anything malformed."""
    try:
        text = data.data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ReportParseError("report is not valid UTF-8", offset=exc.start) from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportParseError(f"report is not valid JSON: {exc.msg}", offset=exc.pos) from exc
    except RecursionError:
        raise ReportParseError("report nests too deeply to parse") from None
    except ValueError as exc:  # an integer literal over the conversion digit limit
        raise ReportParseError(f"report is not valid JSON: {exc}") from None

    if not isinstance(doc, dict):
        raise ReportParseError("report root must be an object")
    behavior = doc.get("behavior")
    calls: list[tuple[str, int]] = []
    if behavior is not None:
        if not isinstance(behavior, list):
            raise ReportParseError("'behavior' must be a list of call entries")
        for i, entry in enumerate(behavior):
            if not isinstance(entry, dict):
                raise ReportParseError(f"behavior[{i}] is not an object")
            api = entry.get("api")
            status = entry.get("status")
            if not isinstance(api, str) or not api:
                raise ReportParseError(f"behavior[{i}].api must be a non-empty string")
            if "\t" in api or "\n" in api or "\r" in api:
                raise ReportParseError(f"behavior[{i}].api contains control characters")
            # bool is an int subclass; a JSON true/false status is malformed
            if isinstance(status, bool) or status not in (0, 1):
                raise ReportParseError(f"behavior[{i}].status must be 0 or 1")
            calls.append((api, int(status)))
    return ApiReport(calls=tuple(calls))


def build_api_vocabulary(reports: list[ApiReport] | tuple[ApiReport, ...]) -> ApiVocabulary:
    """Fit the vocabulary on a report corpus.

    Permutation-invariant: any reordering of the same multiset of reports
    yields an identical vocabulary.
    """
    if not reports:
        raise ValueError("cannot fit a vocabulary on an empty corpus")
    totals: Counter[tuple[str, int]] = Counter()
    for report in reports:
        totals.update(report.calls)
    ordered = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0][0], kv[0][1]))
    return ApiVocabulary(
        entries=tuple(pair for pair, _ in ordered),
        counts=tuple(count for _, count in ordered),
    )


def api_call_feature(report: ApiReport, vocab: ApiVocabulary) -> FeatureVector:
    """Raw per-pair counts laid out in vocabulary order; OOV pairs dropped.

    Additive: the feature of a concatenated call log is the sum of the
    parts' features.
    """
    count = Counter(report.calls).get
    values = np.array([count(pair, 0) for pair in vocab.entries], dtype=np.float64)
    return FeatureVector(kind="apicalls", values=values)

