"""Byte container and feature vector contracts."""

import hashlib

import numpy as np
import pytest

from maldoc import ByteStream, DataError, FeatureVector
from maldoc.core import MaldocError, sha256_hex
from maldoc.core import FEATURE_KINDS, FIXED_DIMS, STATIC_KINDS, atomic_write


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
    assert set(FEATURE_KINDS) == set(STATIC_KINDS) | {"apicalls"}


def test_byte_stream_hash_matches_hashlib():
    data = b"some sample bytes"
    stream = ByteStream(data)
    assert stream.sha256 == hashlib.sha256(data).hexdigest()
    assert sha256_hex(data) == stream.sha256


def test_byte_stream_from_file(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"\x01\x02")
    stream = ByteStream.from_file(path)
    assert stream.data == b"\x01\x02"
    assert stream.path == str(path)


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
    assert issubclass(DataError, MaldocError)


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
    with pytest.raises(ValueError, match="kind"):
        FeatureVector(kind="entropy", values=np.zeros(10))


def test_variable_length_kinds_allowed():
    # apicalls width is vocabulary-dependent
    vec = FeatureVector(kind="apicalls", values=np.zeros(7))
    assert vec.values.shape == (7,)
