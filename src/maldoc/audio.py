"""Audio-style features of byte streams.

Bytes are read as unsigned 8-bit samples of a fictitious waveform at a
nominal 22050 Hz; MFCC, chroma, and mel-spectrogram statistics of that
waveform turn out to separate packed/obfuscated content from plain text
rather well, which is all we ask of them.  The rate is a labeling
convention, not a physical claim.

Every stage passes a plain ``np.ndarray``: ``byte_signal`` gives the float64
samples, ``power_frames`` the (frames, bins) power spectra and ``mel_power``
their (frames, N_MELS) projection.  The three features share these spectra:
``chroma`` reads the power frames and ``mfcc`` and ``melspectrogram`` their
mel projection, so a caller computes each once per stream.

Transient memory stays bounded on large inputs: the samples are scaled in
place, and the power frames are filled into one preallocated array in blocks
of POWER_BLOCK_FRAMES frames.  Each call allocates one block's windowed
frames and complex spectrum once and refills them for every block (through
``out=``), so no block allocates fresh memory.  32 frames make those two
buffers about 1 MB, the size of a common L2 cache.  The block size was
chosen on the benchmark's scan-large workload (2 cores, numpy 2.4): 16, 32,
64 and 128 frames took the same wall time within run-to-run noise, and 32
frames peaked about 3 MB lower than 128.  Each frame's transform is
independent of the block it runs in, so the blocks give the bits of a
whole-array pass.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft

SAMPLE_RATE = 22050
FRAME_LENGTH = 2048
HOP_LENGTH = 512
N_MELS = 128
N_MFCC = 20
N_CHROMA = 12
LOG_FLOOR = 1e-10  # mel power is floored here before the log
POWER_BLOCK_FRAMES = 32  # frames transformed per block by power_frames


def byte_signal(raw: bytes) -> np.ndarray:
    """Map bytes to float64 samples in [-1, 1], (b - 128)/128, zero-padded to
    at least one full frame."""
    if not raw:
        raise ValueError("empty stream")
    samples = np.frombuffer(raw, dtype=np.uint8).astype(np.float64)
    samples -= 128.0
    samples /= 128.0
    if samples.size < FRAME_LENGTH:
        samples = np.pad(samples, (0, FRAME_LENGTH - samples.size))
    return samples


@lru_cache(maxsize=1)
def _hann_window() -> np.ndarray:
    # periodic Hann
    w = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH)
    w.setflags(write=False)
    return w


def _frames(samples: np.ndarray) -> np.ndarray:
    windows = np.lib.stride_tricks.sliding_window_view(samples, FRAME_LENGTH)
    return windows[::HOP_LENGTH]  # trailing partial frame is dropped


def power_frames(samples: np.ndarray) -> np.ndarray:
    """Windowed power spectra of ``byte_signal`` samples, one row per frame,
    FRAME_LENGTH//2 + 1 bins."""
    frames = _frames(samples)
    n_frames, n_bins = frames.shape[0], FRAME_LENGTH // 2 + 1
    power = np.empty((n_frames, n_bins), dtype=np.float64)
    block = min(POWER_BLOCK_FRAMES, n_frames)
    windowed = np.empty((block, FRAME_LENGTH), dtype=np.float64)
    spectrum = np.empty((block, n_bins), dtype=np.complex128)
    for lo in range(0, n_frames, POWER_BLOCK_FRAMES):
        rows = power[lo : lo + POWER_BLOCK_FRAMES]
        n = rows.shape[0]
        np.multiply(frames[lo : lo + n], _hann_window(), out=windowed[:n])
        np.fft.rfft(windowed[:n], axis=1, out=spectrum[:n])
        np.abs(spectrum[:n], out=rows)
        np.square(rows, out=rows)
    return power


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
    n_bins = FRAME_LENGTH // 2 + 1
    bin_hz = np.arange(n_bins) * SAMPLE_RATE / FRAME_LENGTH
    edges = mel_to_hz(np.linspace(0.0, hz_to_mel(SAMPLE_RATE / 2.0), N_MELS + 2))
    lo, mid, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    rising = (bin_hz - lo) / (mid - lo)
    falling = (hi - bin_hz) / (hi - mid)
    weights = np.clip(np.minimum(rising, falling), 0.0, None)
    weights.setflags(write=False)
    return weights


def mel_power(power: np.ndarray) -> np.ndarray:
    """Project power spectra onto the mel filterbank; (n_frames, N_MELS)."""
    return power @ mel_filterbank().T


def melspectrogram(mel: np.ndarray) -> np.ndarray:
    """Mean mel-band power over frames; 128-d, non-negative."""
    return mel.mean(axis=0)


def mfcc(mel: np.ndarray) -> np.ndarray:
    """First 20 orthonormal DCT coefficients of the log mel power, averaged
    over frames."""
    logmel = np.log(np.maximum(mel, LOG_FLOOR))
    coeffs = scipy.fft.dct(logmel, type=2, norm="ortho", axis=1)[:, :N_MFCC]
    return coeffs.mean(axis=0)


@lru_cache(maxsize=1)
def _chroma_map() -> np.ndarray:
    """(12, n_bins) 0/1 matrix folding spectrum bins onto pitch classes.

    Class 0 is C; bin k maps through the nearest MIDI note to A440.  The DC
    bin maps nowhere.
    """
    n_bins = FRAME_LENGTH // 2 + 1
    bin_hz = np.arange(n_bins) * SAMPLE_RATE / FRAME_LENGTH
    mapping = np.zeros((N_CHROMA, n_bins), dtype=np.float64)
    midi = np.round(69.0 + 12.0 * np.log2(bin_hz[1:] / 440.0)).astype(np.int64)
    mapping[midi % N_CHROMA, np.arange(1, n_bins)] = 1.0
    mapping.setflags(write=False)
    return mapping


def chroma(power: np.ndarray) -> np.ndarray:
    """Mean of per-frame L2-normalized pitch-class energy; 12-d in [0, 1]."""
    energy = power @ _chroma_map().T  # (n_frames, 12)
    norms = np.linalg.norm(energy, axis=1, keepdims=True)
    normed = np.divide(energy, norms, out=np.zeros_like(energy), where=norms > 0.0)
    return normed.mean(axis=0)
