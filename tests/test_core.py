"""Byte container and feature vector contracts."""

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from maldoc import ByteStream, DataError, FeatureVector, core
from maldoc.core import split_work
from maldoc.core import FIXED_DIMS, STATIC_KINDS, atomic_write


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
