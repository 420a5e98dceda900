"""Sandbox-report parsing and the API-call bag-of-words feature.

Reports are a small JSON subset (see docs/formats.md):

    {"behavior": [{"api": "NtOpenFile", "status": 1}, ...]}

``status`` is an opaque 0/1 outcome flag.  Calls from all processes arrive
flattened into the one list.  A report without a ``behavior`` key is an
empty (still valid) report.  Anything structurally off is an error: these
files come from an analysis sandbox, and a half-read report must not turn
into a silently empty feature.

A report, read whole under ``MAX_REPORT_BYTES``, parses straight to its call
counts (:func:`parse_report`), each call checked as it is counted; no call
log is kept.  The feature is a count vector over a vocabulary of distinct
(api, status) pairs fit on a cross-validation fold's training rows; pairs
outside the vocabulary are dropped.  An experiment lays each report's counts
out as a row of one count matrix over every pair of its reports
(:func:`count_matrix`); each fold then takes its vocabulary's columns from
the matrix's training rows (:func:`build_api_vocabulary`) and lays out its
training and test rows in that order (:func:`api_call_feature`), so no fold
reads a report again.  The matrix holds 8 bytes per (report, pair), the
size of the feature matrices that one fold builds.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Iterator, Sequence

import numpy as np

from .core import DataError

# a report larger than this is refused before it is read: parsing one adds
# about 9 bytes of peak memory per report byte
MAX_REPORT_BYTES = 32 * 1024 * 1024


def parse_report(raw: bytes) -> Counter[tuple[str, int]]:
    """One sandbox report's calls counted by (api, status), in the order of
    their first calls.  A malformed report fails closed, as a :class:`DataError`
    with the byte offset in its message where the decoder knows it."""
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
    if behavior is not None and not isinstance(behavior, list):
        raise DataError("'behavior' must be a list of call entries")

    def calls() -> Iterator[tuple[str, int]]:  # each call's pair, given once it is checked
        for i, entry in enumerate(behavior or ()):
            if not isinstance(entry, dict):
                raise DataError(f"behavior[{i}] is not an object")
            api, status = entry.get("api"), entry.get("status")
            if not isinstance(api, str) or not api:
                raise DataError(f"behavior[{i}].api must be a non-empty string")
            if "\t" in api or "\n" in api or "\r" in api:
                raise DataError(f"behavior[{i}].api contains control characters")
            # bool is an int subclass; a JSON true/false status is malformed
            if isinstance(status, bool) or status not in (0, 1):
                raise DataError(f"behavior[{i}].status must be 0 or 1")
            yield api, int(status)

    return Counter(calls())


def count_matrix(counts: Sequence[Counter[tuple[str, int]]]) -> np.ndarray:
    """One row of call counts per report, one column per distinct (api,
    status) pair of all the reports, the columns in (api, status) order.

    C-ordered float64, so a fold's rows and columns taken from it lay out
    as the per-report count vectors stacked would.
    """
    column = {pair: j for j, pair in enumerate(sorted(set().union(*counts)))}
    matrix = np.zeros((len(counts), len(column)))
    for i, report in enumerate(counts):
        matrix[i, [column[pair] for pair in report]] = list(report.values())
    return matrix


def build_api_vocabulary(train: np.ndarray) -> np.ndarray:
    """A fold's vocabulary: the columns of ``count_matrix`` that its training
    rows ``train`` call at all, by descending training total.

    The sort is stable over columns in (api, status) order, so equal totals
    fall in (api, status) order and any reordering of the same training
    rows yields the same vocabulary.
    """
    totals = train.sum(axis=0)
    return np.argsort(-totals, kind="stable")[: np.count_nonzero(totals)]


def api_call_feature(counts: np.ndarray, vocab: np.ndarray) -> np.ndarray:
    """Rows of ``count_matrix`` as features: their counts in vocabulary order,
    pairs outside it dropped.

    ``take`` copies in C order; ``counts[:, vocab]`` may give an F-ordered
    copy, whose means and deviations sum in another order and so differ in
    their last bits.
    """
    return counts.take(vocab, axis=1)
