"""Shared value types, the one opener and appender of outside files, and
the one place that reads how many CPUs the process may use.

Featurizers take raw ``bytes`` and return a float64 ``np.ndarray``.
:func:`maldoc.pipeline.compute_features` is where the two types meet: it
unwraps a :class:`ByteStream` (a document's bytes, read through
:func:`read_regular`, and its content hash) once and tags each featurizer's
output as a :class:`FeatureVector`, whose construction checks the kind's
fixed width and finiteness.  ``FeatureCache.put`` files each vector under
the kind read from that tag; experiments and reports name their features
from the kinds they were asked for.

:func:`usable_cpus` sizes both kinds of parallel work: ``featurize_all``
runs one sample per CPU, and :func:`split_work` shares one large sample's
power spectra (``audio.power_frames``) out over the CPUs.
"""

from __future__ import annotations

import hashlib
import os
import stat
import uuid
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from pathlib import Path
from typing import IO, Callable, Iterator

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

# a sample larger than this is refused before it is read: featurizing one
# adds about 11 bytes of peak memory per input byte, on the ssdeep path
# (the three audio kinds together add under 2)
MAX_SAMPLE_BYTES = 32 * 1024 * 1024


class DataError(Exception):
    """Bad input data: unreadable files, malformed manifests or reports."""


def usable_cpus() -> int:
    """How many CPUs this process may run on: the size of its affinity mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@lru_cache(maxsize=1)
def _split_pool() -> ThreadPoolExecutor:
    # created on first use, so importing starts no thread; the thread that
    # calls split_work runs one range itself, so the pool needs one CPU fewer
    return ThreadPoolExecutor(max_workers=max(usable_cpus() - 1, 1), thread_name_prefix="maldoc-split")


def split_work(n: int, work: Callable[[int, int], None]) -> None:
    """``work(lo, hi)`` for contiguous ranges ``[lo, hi)`` covering
    ``range(n)``.

    There is one range per usable CPU, but at most one range per item, so
    ``n <= 1`` or a one-CPU mask runs ``work(0, n)`` alone on the calling
    thread.  The calling thread runs the first range and waits for the
    others, which run on a shared pool, so calls from several threads at
    once (``featurize_all``'s) add no threads beyond it.
    ``work`` must not call ``split_work``: the pool's threads then never
    wait on the pool, so every queued range runs and no wait deadlocks.  An
    exception from a range is raised once every started range has finished.
    """
    parts = min(usable_cpus(), n)
    if parts <= 1:
        work(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    ranges = list(zip(bounds, bounds[1:]))
    futures = [_split_pool().submit(work, lo, hi) for lo, hi in ranges[1:]]
    try:
        work(*ranges[0])
        for future in futures:
            future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


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


def _open_regular(path: str | Path, flags: int, action: str) -> int:
    """A descriptor of the regular file at ``path``, opened without
    blocking; a failed open or any other kind of file is a
    :class:`DataError` saying ``cannot <action> <path>``."""
    try:
        fd = os.open(path, flags | os.O_NONBLOCK, 0o666)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise DataError(f"cannot {action} {path}: {exc}") from exc
    if not stat.S_ISREG(os.fstat(fd).st_mode):
        os.close(fd)
        raise DataError(f"cannot {action} {path}: not a regular file")
    return fd


@contextmanager
def open_regular(path: str | Path) -> Iterator[IO[bytes]]:
    """The regular file at ``path``, open for binary reading.

    Anything else is a :class:`DataError`: a missing or unreadable file, a
    path holding a NUL byte, or a FIFO, device or directory (opened without
    blocking, so a FIFO with no writer cannot hang the open).  An
    ``OSError`` raised while the block reads the file is a
    :class:`DataError` too, saying ``cannot read <path>``.
    """
    fd = _open_regular(path, os.O_RDONLY, "read")
    with os.fdopen(fd, "rb") as f:
        try:
            yield f
        except OSError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc


def read_regular(path: str | Path, max_bytes: int | None = None) -> bytes:
    """Contents of the regular file at ``path``, of at most ``max_bytes``.

    The file is opened and read under the rules of :func:`open_regular`.  A
    file over the cap is a :class:`DataError` too, refused from its size
    before any byte is read (or after the read, if it grew meanwhile).
    """
    with open_regular(path) as f:
        if max_bytes is not None and os.fstat(f.fileno()).st_size > max_bytes:
            raise DataError(f"cannot read {path}: larger than {max_bytes} bytes")
        data = f.read()
    if max_bytes is not None and len(data) > max_bytes:  # grew since fstat
        raise DataError(f"cannot read {path}: larger than {max_bytes} bytes")
    return data


def open_append(path: str | Path) -> IO[bytes]:
    """An unbuffered binary file appending to the regular file at ``path``.

    The file is created if missing.  Anything else is a :class:`DataError`,
    by the rule of :func:`open_regular`: it is opened without blocking, so a
    FIFO cannot hang the open, and refused unless it is a regular file.
    """
    fd = _open_regular(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, "append to")
    return os.fdopen(fd, "ab", buffering=0)


@dataclass(frozen=True)
class ByteStream:
    """A document's raw bytes and their content hash.

    Two streams with equal ``data`` are the same sample, wherever they were
    read from.
    """

    data: bytes

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytes):
            raise TypeError("ByteStream.data must be bytes")

    @classmethod
    def from_file(cls, path: str | Path) -> "ByteStream":
        """Read a sample; see :func:`read_regular` and ``MAX_SAMPLE_BYTES``."""
        return cls(read_regular(path, MAX_SAMPLE_BYTES))

    @cached_property
    def sha256(self) -> str:
        return hashlib.sha256(self.data).hexdigest()


@dataclass(frozen=True)
class FeatureVector:
    """A static kind's float64 feature vector, tagged with that kind.

    Construction checks the kind's fixed width and that every value is
    finite; a mismatch is a programming error, not a data error.
    """

    kind: str
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        width = FIXED_DIMS.get(self.kind)
        if width is None:
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if vals.shape != (width,):
            raise ValueError(f"{self.kind} feature must have shape ({width},), got {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"non-finite value in {self.kind} feature")
