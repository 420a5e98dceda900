"""Audio-style features of byte streams.

Bytes are read as unsigned 8-bit samples of a fictitious waveform at a
nominal 22050 Hz; MFCC, chroma, and mel-spectrogram statistics of that
waveform turn out to separate packed/obfuscated content from plain text
rather well, which is all we ask of them.  The rate is a labeling
convention, not a physical claim.

Every stage passes a plain ``np.ndarray``: ``byte_signal`` gives the uint8
samples, and ``power_frames`` windows, transforms and squares their frames
and projects each frame's power spectrum onto every filterbank it is given:
the 128-band ``mel_filterbank`` and the 12-class ``chroma_map``.  Only the
(frames, bands) projections are ever whole; ``mfcc`` and ``melspectrogram``
read the mel projection and ``chroma`` the pitch-class energy, so a caller
computes them once per stream.  A byte b stands for the sample (b - 128) /
128, which float64 holds exactly, so windowing the bytes gives the bits of
windowing float samples.

Transient memory stays bounded on large inputs.  The stream's frames are
cut once, from frame 0, into projection blocks of PROJECTION_BLOCK_FRAMES
frames, the last block taking the remainder (so it holds up to twice that,
less one).  Each block's power spectra are filled in FFT sub-blocks of
POWER_BLOCK_FRAMES frames and then projected onto each filterbank by one
matrix product into its rows of the output.  The windowed frames, complex
spectrum and power buffers are allocated once per range of blocks and
refilled for every block (through ``out=``): about 1 MB for the FFT
sub-block, the size of a common L2 cache, and up to 1.6 MB for a
projection block's power.  On the benchmark's
scan-large workload (2 cores, numpy 2.4), FFT sub-blocks of 16 to 128
frames took the same wall time within run-to-run noise, and 32 frames
peaked lowest.

Each frame's transform is independent of the block it runs in.  A matrix
product's row is too, as long as OpenBLAS takes the same kernel for it
and the block starts on the grid (see below).  With numpy 2.4's bundled
OpenBLAS 0.3.31, products of at most 10**6 multiply-adds (M * bands *
bins) run a small-matrix kernel that sums in another order.  The chroma product (12 bands) takes that kernel for up to
81 frames and the mel product (128 bands) for up to 7, so every product
here covers at least 82 frames, or the whole stream when it is shorter;
then each projection gives the bits of one whole-array product.  Smaller
blocks also cost more, since each product repacks the filterbank: on 1 MiB
at one BLAS thread the mel product took 16.6 ms whole, 17.8 ms in 96-frame
blocks and 23.6 ms in 32-frame ones.  Mel and chroma stay two
products: one 140-band product would take short streams out of the small
kernel and change their chroma bits.

``mfcc`` floors, logs and transforms the mel projection in blocks of
MFCC_BLOCK_FRAMES frames.  Its DCT-II is ``dct.dct_rows``: pocketfft's
algorithm on ``np.fft``, kept so the coefficients are the bits scipy's
``dct`` gave without loading scipy.

A stream of two or more projection blocks is shared out among threads by
``core.split_work``, whose items are the blocks: one contiguous range of
whole blocks per usable CPU, at most one range per item.  Each thread fills
its blocks' rows of the outputs with its own buffers.  A one-block stream,
or a one-CPU process, runs on the calling thread.  The block grid does not
move with the thread count, and it must not: under OpenBLAS's Haswell
kernel, which it picks on many x86 CPUs without AVX-512, a block's product
rows can differ from the whole-array product's where the block starts off
the grid, and blocks cut from each thread's own start gave ``mfcc`` bits
that changed with the CPU count.  The bits still depend on the kernel the host picks.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import split_work
from .dct import dct_rows

SAMPLE_RATE = 22050
FRAME_LENGTH = 2048
HOP_LENGTH = 512
N_MELS = 128
N_MFCC = 20
N_CHROMA = 12
N_BINS = FRAME_LENGTH // 2 + 1  # rfft bins of a frame, DC to Nyquist
_BIN_HZ = np.arange(N_BINS) * SAMPLE_RATE / FRAME_LENGTH  # each bin's frequency
LOG_FLOOR = 1e-10  # mel power is floored here before the log
POWER_BLOCK_FRAMES = 32  # frames transformed per FFT sub-block by power_frames
PROJECTION_BLOCK_FRAMES = 96  # frames per filterbank product, the last block more
MFCC_BLOCK_FRAMES = 256  # frames floored, logged and transformed together by mfcc


def byte_signal(raw: bytes) -> np.ndarray:
    """The bytes as uint8 samples, byte b standing for (b - 128)/128, padded
    with byte 128 (silence) to at least one full frame."""
    if not raw:
        raise ValueError("empty stream")
    samples = np.frombuffer(raw, dtype=np.uint8)
    if samples.size < FRAME_LENGTH:
        samples = np.pad(samples, (0, FRAME_LENGTH - samples.size), constant_values=128)
    return samples


@lru_cache(maxsize=1)
def _sample_window() -> np.ndarray:
    """The periodic Hann window over 128: multiplying a centred byte b - 128
    by it gives the bits of multiplying the sample (b - 128)/128 by the
    window, since both scale by a power of two."""
    w = (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH)) / 128.0
    w.setflags(write=False)
    return w


def _frames(samples: np.ndarray) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(samples, FRAME_LENGTH)
    return windows[::HOP_LENGTH]  # trailing partial frame is dropped


def power_frames(samples: np.ndarray, weights: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Windowed power spectra of ``byte_signal`` samples projected onto each
    (bands, N_BINS) weight matrix: one (frames, bands) array each, in order."""
    frames = _frames(samples)
    n_frames = frames.shape[0]
    outs = [np.empty((n_frames, w.shape[0]), dtype=np.float64) for w in weights]
    # projection blocks of PROJECTION_BLOCK_FRAMES from frame 0, the last
    # taking the remainder
    last = max(n_frames - PROJECTION_BLOCK_FRAMES, 0)
    cuts = [*range(0, last + 1, PROJECTION_BLOCK_FRAMES), n_frames]

    def fill(lo: int, hi: int) -> None:
        """Fill the rows of projection blocks ``lo:hi`` of every output."""
        longest = min(2 * PROJECTION_BLOCK_FRAMES - 1, cuts[hi] - cuts[lo])
        power = np.empty((longest, N_BINS), dtype=np.float64)
        windowed = np.empty((min(POWER_BLOCK_FRAMES, longest), FRAME_LENGTH), dtype=np.float64)
        spectrum = np.empty((len(windowed), N_BINS), dtype=np.complex128)
        for start, stop in zip(cuts[lo:hi], cuts[lo + 1 : hi + 1]):
            for sub in range(start, stop, POWER_BLOCK_FRAMES):
                n = min(POWER_BLOCK_FRAMES, stop - sub)
                rows = power[sub - start : sub - start + n]
                np.subtract(frames[sub : sub + n], 128.0, out=windowed[:n])
                np.multiply(windowed[:n], _sample_window(), out=windowed[:n])
                np.fft.rfft(windowed[:n], axis=1, out=spectrum[:n])
                np.abs(spectrum[:n], out=rows)
                np.square(rows, out=rows)
            for w, out in zip(weights, outs):
                np.matmul(power[: stop - start], w.T, out=out[start:stop])

    split_work(len(cuts) - 1, fill)
    return outs


def hz_to_mel(freq):
    return 2595.0 * np.log10(1.0 + np.asarray(freq, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=1)
def mel_filterbank() -> np.ndarray:
    """128 triangular filters on a mel-spaced grid from 0 to the Nyquist.

    Peak weight 1 at each center; no area normalization.  Every filter is
    wider than the bin spacing, so none is empty.
    """
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), N_MELS + 2))
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (_BIN_HZ - lo) / (mid - lo)
    falling = (hi - _BIN_HZ) / (hi - mid)
    weights = np.clip(np.minimum(rising, falling), 0.0, None)
    weights.setflags(write=False)
    return weights


def melspectrogram(mel: np.ndarray) -> np.ndarray:
    """Mean mel-band power over frames; 128-d, non-negative."""
    return mel.mean(axis=0)


def mfcc(mel: np.ndarray) -> np.ndarray:
    """First 20 orthonormal DCT coefficients of the log mel power, averaged
    over frames.  The floor, log and transform run on blocks of
    MFCC_BLOCK_FRAMES frames in one reused buffer, so ``mel`` is never
    copied whole; only the (frames, 20) coefficients are."""
    coeffs = np.empty((len(mel), N_MFCC))
    logmel = np.empty((min(MFCC_BLOCK_FRAMES, len(mel)), mel.shape[1]))
    for start in range(0, len(mel), MFCC_BLOCK_FRAMES):
        block = mel[start : start + MFCC_BLOCK_FRAMES]
        log_block = logmel[: len(block)]
        np.maximum(block, LOG_FLOOR, out=log_block)
        np.log(log_block, out=log_block)
        dct_rows(log_block, N_MFCC, out=coeffs[start : start + len(block)])
    return coeffs.mean(axis=0)


@lru_cache(maxsize=1)
def chroma_map() -> np.ndarray:
    """(12, N_BINS) 0/1 matrix folding spectrum bins onto pitch classes.

    Class 0 is C; bin k maps through the nearest MIDI note to A440.  The DC
    bin maps nowhere.
    """
    mapping = np.zeros((N_CHROMA, N_BINS), dtype=np.float64)
    midi = np.round(69.0 + 12.0 * np.log2(_BIN_HZ[1:] / 440.0)).astype(np.int64)
    mapping[midi % N_CHROMA, np.arange(1, N_BINS)] = 1.0
    mapping.setflags(write=False)
    return mapping


def chroma(energy: np.ndarray) -> np.ndarray:
    """Mean of per-frame L2-normalized pitch-class energy, from the power
    projected onto ``chroma_map``; 12-d in [0, 1]."""
    norms = np.linalg.norm(energy, axis=1, keepdims=True)
    normed = np.divide(energy, norms, out=np.zeros_like(energy), where=norms > 0.0)
    return normed.mean(axis=0)
