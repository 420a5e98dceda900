"""Context-triggered piecewise hashing (the classic spamsum digest).

A 7-byte rolling hash picks block boundaries wherever its value is congruent
to ``block_size - 1``; an FNV-style hash of each block contributes one
base64 character to the signature.  The block size ``b`` is chosen first:
the smallest ``3 * 2**k`` whose 64 characters cover the input, halved while
fewer than 32 boundaries fire at it.  Then one digest is built at ``b`` and
one at ``2b``.

The rolling hash is computed vectorized as short sliding-window sums/XORs
over the last seven bytes.  The per-block FNV fold runs on 6 bits: only
``h & 63`` is emitted, and as 64 divides 2**32, the low 6 bits of
``h * prime mod 2**32`` depend only on those of ``h``.  It is computed over
all blocks at once, one bit plane per pass (see ``_piece_digest``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ByteStream, FeatureVector

SPAMSUM_LENGTH = 64  # max characters in the primary digest
MIN_BLOCK_SIZE = 3
HASH_FEATURE_LENGTH = 40

_WINDOW = 7
# the FNV fold (init 0x28021967, prime 0x01000193) reduced to its low 6 bits
_FOLD_INIT = 0x28021967 & 63
_FOLD_PRIME = 0x01000193 & 63
_LOW6 = bytes(c & 63 for c in range(256))
_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@dataclass(frozen=True)
class FuzzyHash:
    """A piecewise hash: block size plus digests at that size and twice it."""

    block_size: int
    digest1: str
    digest2: str

    @property
    def canonical(self) -> str:
        return f"{self.block_size}:{self.digest1}:{self.digest2}"

    def __str__(self) -> str:
        return self.canonical


def _roll_sums(buf: np.ndarray) -> np.ndarray:
    """Rolling-hash value after each byte, as uint32.

    The three classic components are window sums over the last 7 bytes:
    h1 the plain sum, h2 the age-weighted sum (newest byte weighted 7),
    h3 the shift-XOR fold, whose terms older than 7 bytes have been shifted
    past bit 31 and vanish.  Only the total mod 2**32 is kept, so every term
    is computed in uint32, and h1 + h2 is one sum with weight ``8 - age``.
    """
    n = buf.size
    c = buf.astype(np.uint32)
    h12 = np.zeros(n, dtype=np.uint32)
    h3 = np.zeros(n, dtype=np.uint32)
    for k in range(min(_WINDOW, n)):
        lane = c[: n - k]
        h12[k:] += np.uint32(_WINDOW + 1 - k) * lane
        h3[k:] ^= lane << np.uint32(5 * k)
    h12 += h3
    return h12


def _piece_digest(low6: bytes, triggers: np.ndarray, last_roll: int, cap: int) -> str:
    """Digest at one block size, folding the low 6 bits of each input byte.

    ``triggers`` holds the byte indices where the rolling hash fired; the
    first ``cap`` of them each commit one character and reset the fold.
    Later triggers and the end-of-input flush share the final character
    slot, folding everything after the last committed block.

    The fold ``s = ((19 * s) & 63) ^ c`` runs one bit plane at a time, low
    to high: bit k of ``19 * s`` is ``s_k`` xor bit k of ``19 * (s mod 2**k)``,
    so given the lower planes of every state, plane k is a running xor,
    restarted at each block from the bit of the initial state.
    """
    ends = triggers[:cap] + 1
    if last_roll != 0:
        ends = np.append(ends, len(low6))
    elif len(triggers) > cap:
        # input ended with a dead rolling hash: the last slot keeps the value
        # written at the final trigger
        ends = np.append(ends, triggers[-1] + 1)
    if ends.size == 0:
        return ""
    starts = np.concatenate(([0], ends[:-1]))
    c = np.frombuffer(low6, dtype=np.uint8, count=int(ends[-1]))
    state = np.zeros(c.size, dtype=np.uint8)  # planes below k, before each byte
    scan = np.zeros(c.size + 1, dtype=np.uint8)  # scan[t]: xor of steps 0..t-1
    chars = np.zeros(ends.size, dtype=np.uint8)
    for k in range(6):
        bit = np.uint8(1 << k)
        # uint8 products wrap mod 256, which keeps bit k exact
        np.bitwise_xor.accumulate(((state * _FOLD_PRIME) ^ c) & bit, out=scan[1:])
        restart = scan[starts] ^ (_FOLD_INIT & bit)
        chars |= scan[ends] ^ restart  # an empty block keeps the initial bit
        if k < 5:
            state |= scan[:-1] ^ np.repeat(restart, ends - starts)
    return "".join(_B64[ch] for ch in chars.tolist())


def _triggers(roll: np.ndarray, block_size: int) -> np.ndarray:
    return np.flatnonzero(roll % np.uint32(block_size) == np.uint32(block_size - 1))


def ssdeep_digest(data: ByteStream) -> FuzzyHash:
    """Piecewise hash of a byte stream; empty input hashes to ``3::``."""
    raw = data.data
    roll = _roll_sums(np.frombuffer(raw, dtype=np.uint8))
    last_roll = int(roll[-1]) if roll.size else 0

    block_size = MIN_BLOCK_SIZE
    while block_size * SPAMSUM_LENGTH < len(raw):
        block_size *= 2
    trig1 = _triggers(roll, block_size)
    while block_size > MIN_BLOCK_SIZE and len(trig1) < SPAMSUM_LENGTH // 2:
        block_size //= 2
        trig1 = _triggers(roll, block_size)

    low6 = raw.translate(_LOW6)
    trig2 = _triggers(roll, 2 * block_size)
    digest1 = _piece_digest(low6, trig1, last_roll, SPAMSUM_LENGTH - 1)
    digest2 = _piece_digest(low6, trig2, last_roll, SPAMSUM_LENGTH // 2 - 1)
    return FuzzyHash(block_size=block_size, digest1=digest1, digest2=digest2)


def hash_feature(digest: FuzzyHash) -> FeatureVector:
    """Fixed 40-slot numeric rendering of the canonical digest string.

    Code points of ``block:digest1:digest2``, truncated or zero-padded to
    exactly 40 entries.
    """
    codes = [float(ord(ch)) for ch in digest.canonical[:HASH_FEATURE_LENGTH]]
    codes.extend(0.0 for _ in range(HASH_FEATURE_LENGTH - len(codes)))
    return FeatureVector(kind="ssdeep", values=np.array(codes, dtype=np.float64))
