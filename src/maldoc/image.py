"""Image renderings of byte streams and the Gabor-grid texture descriptor.

Two renderings feed the same descriptor: the byteplot (one pixel per byte,
grayscale) and the bigram-DCT image (log counts of consecutive byte pairs
pushed through an orthonormal 2-D DCT).  The descriptor itself is a 320-d
vector: 20 Gabor band-pass filters applied in the frequency domain to the
image resampled to 64x64, each filter's response magnitude averaged over a
4x4 spatial grid.

A rendering is a plain 2-D float64 ``np.ndarray`` with pixels in [0, 1]:
``byteplot_image`` and ``dct_image_from_counts`` build it, and
``resample_area`` and ``gist`` read its shape.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft

from .core import ByteStream, FeatureVector

# width schedule for the byteplot, keyed on file size in bytes (strict <)
_WIDTH_SCHEDULE = (
    (10_000, 32),
    (30_000, 64),
    (60_000, 128),
    (100_000, 256),
    (200_000, 384),
    (500_000, 512),
    (1_000_000, 768),
)
_WIDTH_MAX = 1024

GIST_SIZE = 64  # images are resampled to this square before filtering
GIST_GRID = 4  # responses averaged over a GIST_GRID x GIST_GRID grid
GIST_SCALES = (0.35, 0.175, 0.0875)  # radial centers, cycles per pixel
GIST_ORIENTATIONS = (8, 8, 4)  # orientations per scale; 20 filters total
_SIGMA_R_FACTOR = 0.55  # radial bandwidth relative to the center frequency
_SIGMA_T_FACTOR = 0.6  # angular bandwidth relative to orientation spacing


def byteplot_width(size: int) -> int:
    """Row width for a file of ``size`` bytes."""
    for limit, width in _WIDTH_SCHEDULE:
        if size < limit:
            return width
    return _WIDTH_MAX


def byteplot_image(data: ByteStream) -> np.ndarray:
    """Render one pixel per byte, byte/255, row width from the size schedule.

    The final row is zero-padded to full width.
    """
    raw = data.data
    if not raw:
        raise ValueError("empty stream")
    width = byteplot_width(len(raw))
    height = -(-len(raw) // width)  # ceil
    flat = np.zeros(width * height, dtype=np.float64)
    flat[: len(raw)] = np.frombuffer(raw, dtype=np.uint8)
    return (flat / 255.0).reshape(height, width)


def bigram_counts(data: ByteStream) -> np.ndarray:
    """256x256 matrix of consecutive byte-pair counts."""
    raw = data.data
    if len(raw) < 2:
        raise ValueError("insufficient bytes for bigrams")
    seq = np.frombuffer(raw, dtype=np.uint8).astype(np.uint16)  # a*256+b fits
    return np.bincount(seq[:-1] * 256 + seq[1:], minlength=65536).reshape(256, 256)


def dct_image_from_counts(counts: np.ndarray) -> np.ndarray:
    """log1p the counts, take the orthonormal 2-D DCT, render |coefficients|
    min-max normalized to [0, 1].  A flat coefficient field maps to zeros."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape != (256, 256):
        raise ValueError(f"expected a 256x256 count matrix, got {counts.shape}")
    coeffs = np.abs(scipy.fft.dctn(np.log1p(counts), type=2, norm="ortho"))
    lo, hi = coeffs.min(), coeffs.max()
    if hi == lo:
        return np.zeros_like(coeffs)
    return (coeffs - lo) / (hi - lo)


def bigram_dct_image(data: ByteStream) -> np.ndarray:
    return dct_image_from_counts(bigram_counts(data))


def _overlap_weights(n_src: int, n_out: int) -> np.ndarray:
    """Row i holds each source cell's share of output interval i.

    Exact box overlap, so downsampling is a true area average and the
    operator is linear.  Rows sum to 1.
    """
    scale = n_src / n_out
    lo = np.arange(n_out)[:, None] * scale
    cell = np.arange(n_src)
    overlap = np.minimum(lo + scale, cell + 1) - np.maximum(lo, cell)
    return np.maximum(overlap, 0.0) / scale


def resample_area(image: np.ndarray) -> np.ndarray:
    """Area-average resample to GIST_SIZE x GIST_SIZE; linear and deterministic."""
    rows = _overlap_weights(image.shape[0], GIST_SIZE)
    cols = _overlap_weights(image.shape[1], GIST_SIZE)
    return rows @ image @ cols.T


@lru_cache(maxsize=1)
def gabor_bank() -> np.ndarray:
    """Frequency-domain transfer functions of the 20-filter Gabor bank.

    Single-sided Gaussian bumps: a radial Gaussian around each scale's
    center frequency times an angular Gaussian around each orientation,
    evaluated on the unshifted GIST_SIZE x GIST_SIZE FFT grid.  The DC bin
    is zeroed exactly so a constant image excites nothing, and the Nyquist
    row and column are zeroed too: those bins stand for +1/2 and -1/2
    cycles at once, which would skew the orientation selectivity.
    """
    freqs = np.fft.fftfreq(GIST_SIZE)
    fy, fx = np.meshgrid(freqs, freqs, indexing="ij")
    radius = np.hypot(fx, fy)
    angle = np.arctan2(fy, fx)

    filters = []
    for center, n_orient in zip(GIST_SCALES, GIST_ORIENTATIONS):
        sigma_r = _SIGMA_R_FACTOR * center
        sigma_t = _SIGMA_T_FACTOR * np.pi / n_orient
        for k in range(n_orient):
            theta = np.pi * k / n_orient
            dtheta = np.mod(angle - theta + np.pi, 2.0 * np.pi) - np.pi
            h = np.exp(
                -((radius - center) ** 2) / (2.0 * sigma_r**2)
                - dtheta**2 / (2.0 * sigma_t**2)
            )
            h[0, 0] = 0.0  # reject the mean exactly
            h[GIST_SIZE // 2, :] = 0.0
            h[:, GIST_SIZE // 2] = 0.0
            filters.append(h)
    bank = np.stack(filters)
    bank.setflags(write=False)
    return bank


def gist(image: np.ndarray, kind: str = "byteplot-gist") -> FeatureVector:
    """320-d Gabor-grid descriptor of an image.

    Order: scales outermost, then orientations, then the 4x4 grid row-major.
    Positively homogeneous: scaling the image scales the descriptor.
    """
    if kind not in ("byteplot-gist", "bigramdct-gist"):
        raise ValueError(f"gist kind must name an image family, got {kind!r}")
    responses = np.fft.fft2(resample_area(image)) * gabor_bank()
    # ifft2 of all 20 responses as its two 1-D passes (last axis first, as
    # ifft2 runs them, so the result is bit-identical), each written back
    # into the product: no second 1.3 MB array is allocated, whose fresh
    # pages cost more than batching saves (ifft2 itself ignores out=)
    np.fft.ifft(responses, axis=-1, out=responses)
    np.fft.ifft(responses, axis=-2, out=responses)
    mag = np.abs(responses)
    cell = GIST_SIZE // GIST_GRID
    grid = mag.reshape(len(mag), GIST_GRID, cell, GIST_GRID, cell).mean(axis=(2, 4))
    return FeatureVector(kind=kind, values=grid.ravel())
