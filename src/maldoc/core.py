"""Shared value types for the feature pipeline.

Every featurizer consumes a :class:`ByteStream` (raw file bytes plus
provenance) and emits a :class:`FeatureVector` (a fixed-length float vector
tagged with the feature family that produced it).  Keeping the tag on the
vector lets the cache, the fusion step, and the reports check dimensional
contracts instead of trusting call sites.
"""

from __future__ import annotations

import hashlib
import os
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Iterator

import numpy as np

# Fixed output length per feature family.  "apicalls" is sized by the fitted
# vocabulary, so it does not appear here.
FIXED_DIMS = {
    "byteplot-gist": 320,
    "bigramdct-gist": 320,
    "mfcc": 20,
    "chroma": 12,
    "melspectrogram": 128,
    "ssdeep": 40,
    "structural": 25,
}

STATIC_KINDS = tuple(FIXED_DIMS)
FEATURE_KINDS = STATIC_KINDS + ("apicalls",)


class MaldocError(Exception):
    """Base class for errors raised by this package."""


class DataError(MaldocError):
    """Bad input data: unreadable files, malformed manifests or reports."""


def sha256_hex(data: bytes) -> str:
    """Hex SHA-256 of a byte string; the content identity used everywhere."""
    return hashlib.sha256(data).hexdigest()


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[bytes]]:
    """Open a binary file that replaces ``path`` only once it is fully written.

    The bytes go to a temporary file beside ``path``, moved into place with
    ``os.replace`` when the block ends.  If the block raises, the temporary
    file is removed and ``path`` keeps its previous contents.  Text callers
    encode ASCII themselves.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class ByteStream:
    """Raw file contents with provenance.

    ``path`` is informational only; two streams with equal ``data`` are the
    same sample regardless of where they were read from.
    """

    data: bytes
    path: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            raise TypeError("ByteStream.data must be bytes")

    @classmethod
    def from_file(cls, path: str | Path) -> "ByteStream":
        p = Path(path)
        try:
            payload = p.read_bytes()
        except OSError as exc:
            raise DataError(f"cannot read {p}: {exc}") from exc
        return cls(data=payload, path=str(p))

    @cached_property
    def sha256(self) -> str:
        return sha256_hex(self.data)

    def __len__(self) -> int:
        return len(self.data)


@dataclass(frozen=True)
class FeatureVector:
    """A 1-D float64 feature vector tagged with the family that produced it.

    Vectors of a fixed-dimensional kind are length-checked at construction;
    a mismatch is a programming error, not a data error.
    """

    kind: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        if self.kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if vals.ndim != 1:
            raise ValueError(f"feature values must be 1-D, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"non-finite value in {self.kind} feature")
        expected = FIXED_DIMS.get(self.kind)
        if expected is not None and vals.shape[0] != expected:
            raise ValueError(
                f"{self.kind} feature must have {expected} entries, got {vals.shape[0]}"
            )

    def __len__(self) -> int:
        return int(self.values.shape[0])
