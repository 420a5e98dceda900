"""Byte container and feature vector contracts."""

import errno
import hashlib
import io
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from maldoc import ByteStream, DataError, FeatureVector, core
from maldoc.core import split_work
from maldoc.core import FIXED_DIMS, STATIC_KINDS, TextLines, atomic_write


def test_fixed_dims_table():
    assert FIXED_DIMS == {
        "byteplot-gist": 320,
        "bigramdct-gist": 320,
        "mfcc": 20,
        "chroma": 12,
        "melspectrogram": 128,
        "ssdeep": 40,
        "structural": 25,
    }
    assert set(STATIC_KINDS) == set(FIXED_DIMS)


def test_byte_stream_hash_matches_hashlib():
    data = b"some sample bytes"
    stream = ByteStream(data)
    assert stream.sha256 == hashlib.sha256(data).hexdigest()


def test_byte_stream_from_file(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"\x01\x02")
    stream = ByteStream.from_file(path)
    assert stream.data == b"\x01\x02"


def test_atomic_write_replaces_bytes_whole_or_not_at_all(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with atomic_write(path) as out:
        out.write(b"\x00\xff\r\n%PDF")
    assert path.read_bytes() == b"\x00\xff\r\n%PDF"
    with pytest.raises(RuntimeError):
        with atomic_write(path) as out:
            out.write(b"partial")
            raise RuntimeError("interrupted")
    assert path.read_bytes() == b"\x00\xff\r\n%PDF"
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("parent", ["missing", "a-file"])
def test_a_failed_atomic_write_names_its_target_not_its_temporary_file(tmp_path, parent):
    # under a file, removing the temporary file fails too, and must not hide the first error
    (tmp_path / "a-file").write_bytes(b"")
    path = tmp_path / parent / "r.csv"
    with pytest.raises(OSError) as info:
        with atomic_write(path) as out:
            out.write(b"x")
    assert (info.value.errno, info.value.filename) == (
        errno.ENOENT if parent == "missing" else errno.ENOTDIR, str(path)
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-file"]


def test_byte_stream_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError):
        ByteStream.from_file(tmp_path / "missing.bin")


def test_feature_vector_validates_fixed_length():
    FeatureVector(kind="mfcc", values=np.zeros(20))
    with pytest.raises(ValueError, match="20"):
        FeatureVector(kind="mfcc", values=np.zeros(21))


def test_feature_vector_requires_finite_1d():
    with pytest.raises(ValueError):
        FeatureVector(kind="structural", values=np.zeros((5, 5)))
    bad = np.zeros(25)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        FeatureVector(kind="structural", values=bad)
    bad[3] = np.inf
    with pytest.raises(ValueError):
        FeatureVector(kind="structural", values=bad)


def test_feature_vector_rejects_unknown_kind():
    # apicalls is fold-dependent and never tagged: only static kinds are kinds here
    for kind in ("entropy", "apicalls"):
        with pytest.raises(ValueError, match="kind"):
            FeatureVector(kind=kind, values=np.zeros(10))


@pytest.mark.parametrize(
    "n, workers, ranges",
    [
        (1, 4, [(0, 1)]),  # one item: one range
        (11, 1, [(0, 11)]),  # one CPU: one range
        (2, 4, [(0, 1), (1, 2)]),  # no more ranges than items
        (100, 3, [(0, 33), (33, 66), (66, 100)]),
    ],
)
def test_split_work_covers_the_range_in_order(monkeypatch, n, workers, ranges):
    monkeypatch.setattr(core, "usable_cpus", lambda: workers)
    callers = set()
    done = []

    def work(lo, hi):
        callers.add(threading.get_ident())
        done.append((lo, hi))

    assert split_work(n, work) is None
    assert sorted(done) == ranges
    if len(ranges) == 1:
        assert callers == {threading.get_ident()}


def test_split_work_raises_after_the_other_ranges_finish(monkeypatch):
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    finished = []

    def work(lo, hi):
        if lo == 0:
            raise MemoryError()
        threading.Event().wait(0.05)
        finished.append(lo)

    with pytest.raises(MemoryError):
        split_work(2, work)
    assert finished in ([], [1])  # cancelled before it started, or finished
    assert len(finished) == len(set(finished))


def test_split_work_nested_in_more_threads_than_cores(monkeypatch):
    # every thread splits at once, so the shared pool is mostly busy and a
    # caller waits on ranges queued behind other calls'; each call must
    # still run every range once, without deadlock
    monkeypatch.setattr(core, "usable_cpus", lambda: 4)
    expected = [(0, 250), (250, 500), (500, 750), (750, 1000)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def split_and_record():
        done = []
        split_work(1000, lambda lo, hi: done.append((lo, hi)))
        return sorted(done)

    try:
        with ThreadPoolExecutor(max_workers=8) as outer:
            futures = [outer.submit(split_and_record) for _ in range(64)]
            results = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [expected] * 64


def test_text_lines_split_as_splitlines_with_over_long_lines_as_none():
    # the lines, with their ends, that iterating the whole stream gives: split
    # at LF, CR and CRLF only, so VT, FF, FS and RS are ordinary characters.
    # Short lines and small caps, so that lines end in every position of a
    # read piece, and the cap sometimes changes between lines; with
    # newline="" a CRLF also falls across the cap
    rng = random.Random(32)
    alphabet = ["a", "b", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1e"]
    for newline in (None, ""):
        for _ in range(3000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))
            caps = [rng.randint(0, 6) for _ in range(40)]
            lines = TextLines(io.StringIO(text, newline=newline), caps[0])
            got, want = [], []
            for number, line in enumerate(io.StringIO(text, newline=newline), 1):
                got.append(next(lines))
                assert lines.number == number
                body = line.removesuffix("\n").removesuffix("\r")
                want.append(line if len(body) <= lines.max_chars else None)
                lines.max_chars = caps[number % len(caps)]
            assert got == want, (text, caps)
            assert next(lines, "end") == "end"


def test_text_lines_stop_reading_at_an_over_long_line():
    text = io.StringIO("short\n" + "x" * 10_000 + "\nafter\n", newline=None)
    lines = TextLines(text, 8)
    assert [next(lines), next(lines)] == ["short\n", None]
    assert text.tell() == len("short\n") + 9
    assert list(lines) == ["after\n"]
