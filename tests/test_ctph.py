"""Fuzzy digest against the sequential reference port, plus format edge cases."""

import time

import numpy as np
import pytest

from maldoc import hash_feature, ssdeep_digest
from maldoc.ctph import FuzzyHash
from maldoc.ctph import _LOW6, _piece_digest, _roll_sums

from oracles import piece_digest_reference, roll_sums_reference, spamsum_reference


def digest_str(raw: bytes) -> str:
    return ssdeep_digest(raw).canonical


def test_empty_input():
    assert digest_str(b"") == "3::"


def test_all_zero_bytes_never_trigger():
    # zero bytes leave the rolling hash at zero, so no piece ever closes
    assert digest_str(b"\x00" * 10_000) == "3::"


def test_known_text_matches_reference():
    raw = b"The quick brown fox jumps over the lazy dog. " * 40
    assert digest_str(raw) == spamsum_reference(raw)


def test_digest_length_caps():
    rng = np.random.default_rng(77)
    raw = rng.integers(0, 256, 200_000, dtype=np.uint8).tobytes()
    h = ssdeep_digest(raw)
    assert len(h.digest1) <= 64
    assert len(h.digest2) <= 32
    assert h.canonical == spamsum_reference(raw)


def test_reference_agreement_on_adversarial_inputs():
    rng = np.random.default_rng(20240)
    cases = [
        b"",
        b"\x00",
        b"a",
        b"abc",
        b"\x00" * 64,
        b"\xff" * 64,
        bytes(range(256)) * 8,
        b"ab" * 5000,
    ]
    for n in (6, 7, 8, 63, 64, 65, 127, 128, 4095, 4096, 12288, 12289):
        cases.append(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
    # trailing zeros exercise the no-tail branch
    cases.append(rng.integers(0, 256, 5000, dtype=np.uint8).tobytes() + b"\x00" * 500)
    cases.append(rng.integers(0, 256, 65536, dtype=np.uint8).tobytes())
    for raw in cases:
        assert digest_str(raw) == spamsum_reference(raw), f"len={len(raw)}"


def test_reference_agreement_on_corpus_files_whose_block_size_halves(corpus_2024):
    # the block size is picked before any digest is built; these files start
    # above the size they end at, so the halving rule decides their digests
    halving = []
    for path in corpus_2024:
        raw = path.read_bytes()
        start = 3
        while start * 64 < len(raw):
            start *= 2
        if ssdeep_digest(raw).block_size < start:
            halving.append(path)
            assert digest_str(raw) == spamsum_reference(raw), path.name
    assert len(halving) >= 10


def test_every_short_length_matches_reference():
    rng = np.random.default_rng(300)
    for n in range(301):
        for symbols in (4, 256):
            raw = rng.integers(0, symbols, n, dtype=np.uint8).tobytes()
            assert digest_str(raw) == spamsum_reference(raw), f"len={n}, symbols={symbols}"


def test_empty_final_block_keeps_the_initial_fold():
    # the rolling hash fires on the last byte and stays nonzero, so the
    # end-of-input flush commits a block with no bytes in it
    raw = bytes([3, 39])
    assert digest_str(raw) == spamsum_reference(raw) == "3:1n:1"
    assert _piece_digest(b"\x03\x27", np.array([1]), 1, 63) == "1n"


def fold_case(rng, symbols):
    """(low6, triggers, last_roll, cap) with random sorted trigger indices."""
    n = int(rng.integers(0, 2000))
    alphabet = rng.choice(256, symbols, replace=False).astype(np.uint8)
    low6 = alphabet[rng.integers(0, symbols, n)].tobytes().translate(_LOW6)
    cap = int(rng.integers(1, 64))
    n_triggers = int(rng.integers(0, min(n, 3 * cap) + 1))
    triggers = np.sort(rng.choice(n, n_triggers, replace=False)) if n else np.array([], np.int64)
    if n and rng.random() < 0.25:
        # a trigger on the last byte: with a live hash the final block is empty
        triggers = np.union1d(triggers, [n - 1])
    last_roll = int(rng.integers(0, 2)) * int(rng.integers(1, 2**32))
    return low6, triggers.astype(np.int64), last_roll, cap


@pytest.mark.parametrize("symbols", [1, 4, 256])
def test_bit_plane_fold_matches_the_byte_loop(symbols):
    rng = np.random.default_rng(4000 + symbols)
    for _ in range(400):
        case = fold_case(rng, symbols)
        assert _piece_digest(*case) == piece_digest_reference(*case), case[1:]


@pytest.mark.parametrize(
    "n, triggers, last_roll, cap",
    [
        (0, [], 0, 63),  # nothing folded
        (0, [], 5, 63),
        (2, [1], 7, 63),  # empty final block
        (50, [], 9, 3),  # one block of everything
        (50, list(range(0, 50, 3)), 9, 4),  # more triggers than cap
        (50, list(range(0, 50, 3)), 0, 4),  # dead hash, triggers past cap
        (50, list(range(0, 50, 3)), 0, 63),  # dead hash, triggers within cap
        (50, [0, 1, 2, 49], 0, 2),
    ],
)
def test_bit_plane_fold_edge_cases(n, triggers, last_roll, cap):
    low6 = np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8).tobytes().translate(_LOW6)
    case = (low6, np.array(triggers, dtype=np.int64), last_roll, cap)
    assert _piece_digest(*case) == piece_digest_reference(*case)


@pytest.mark.parametrize("symbols", [1, 2, 256])
def test_uint32_roll_sums_match_the_uint64_sums(symbols):
    """200 seeded inputs of length 0-5,000, including the all-0xff runs
    whose terms overflow 32 bits the most."""
    rng = np.random.default_rng(7000 + symbols)
    for _ in range(200):
        n = int(rng.integers(0, 5001))
        alphabet = np.append(rng.choice(255, symbols - 1, replace=False), 255).astype(np.uint8)
        buf = alphabet[rng.integers(0, symbols, n)]
        fast, slow = _roll_sums(buf), roll_sums_reference(buf)
        assert fast.dtype == slow.dtype and fast.tobytes() == slow.tobytes(), n


def test_block_size_grows_with_input():
    rng = np.random.default_rng(3)
    small = ssdeep_digest(rng.integers(0, 256, 100, dtype=np.uint8).tobytes())
    large = ssdeep_digest(rng.integers(0, 256, 100_000, dtype=np.uint8).tobytes())
    assert small.block_size < large.block_size


def test_appending_one_byte_keeps_committed_prefix():
    # only the open tail piece may change, so all but the last character hold
    rng = np.random.default_rng(4242)
    base = rng.integers(0, 256, 10_240, dtype=np.uint8).tobytes()
    h0 = ssdeep_digest(base)
    h1 = ssdeep_digest(base + b"x")
    assert h0.block_size == h1.block_size
    assert h1.digest1.startswith(h0.digest1[:-1])


def test_determinism():
    rng = np.random.default_rng(9)
    raw = rng.integers(0, 256, 3000, dtype=np.uint8).tobytes()
    assert digest_str(raw) == digest_str(raw)


def test_canonical_format():
    h = FuzzyHash(block_size=6, digest1="abc", digest2="xy")
    assert h.canonical == "6:abc:xy"


def test_hash_feature_codes_and_padding():
    vec = hash_feature(FuzzyHash(block_size=3, digest1="", digest2=""))
    assert vec.shape == (40,)
    # "3::" is codes 51, 58, 58 then zero padding
    assert vec[:3].tolist() == [51.0, 58.0, 58.0]
    assert np.all(vec[3:] == 0.0)


def test_hash_feature_truncates_long_digests():
    h = FuzzyHash(block_size=3, digest1="A" * 40, digest2="B" * 20)
    vec = hash_feature(h)
    canonical = h.canonical
    assert len(canonical) > 40
    assert vec.tolist() == [float(ord(ch)) for ch in canonical[:40]]


def test_reference_agreement_is_fast_enough():
    # the acceptance gate runs >=100 comparisons in under half a minute
    rng = np.random.default_rng(55)
    start = time.monotonic()
    for _ in range(20):
        n = int(rng.integers(0, 16_384))
        raw = rng.integers(0, 256, n, dtype=np.uint8).tobytes()
        assert digest_str(raw) == spamsum_reference(raw)
    assert time.monotonic() - start < 10.0
