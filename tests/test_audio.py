"""Signal mapping, filterbank geometry, and the three spectral features."""

import numpy as np
import pytest

from maldoc.audio import byte_signal, chroma, chroma_map, mel_filterbank, melspectrogram, mfcc
from maldoc.audio import (
    FRAME_LENGTH,
    HOP_LENGTH,
    N_BINS,
    N_MELS,
    SAMPLE_RATE,
    hz_to_mel,
    mel_to_hz,
    power_frames,
)

from oracles import mfcc_reference, rdft_power_direct


def power_of(samples):
    """The power spectra themselves: the projection onto the identity is
    exact, since each output sums one power value and zeros."""
    (power,) = power_frames(samples, (np.eye(N_BINS),))
    return power


def mel_of(samples):
    (mel,) = power_frames(samples, (mel_filterbank(),))
    return mel


def energy_of(samples):
    (energy,) = power_frames(samples, (chroma_map(),))
    return energy


def bytes_of(centred):
    """uint8 samples for integer sample values in [-128, 127]."""
    return (np.asarray(centred) + 128).astype(np.uint8)


def test_byte_signal_centering():
    sig = byte_signal(bytes([0, 128, 255]))
    assert sig.dtype == np.uint8
    assert list(sig[:3]) == [0, 128, 255]
    # byte b is the sample (b - 128)/128: a constant frame's DC power is
    # (sample * sum of the periodic Hann window, FRAME_LENGTH/2)**2
    half = FRAME_LENGTH / 2
    assert power_of(byte_signal(b"\x00" * FRAME_LENGTH))[0, 0] == pytest.approx(half**2, rel=1e-12)
    assert power_of(byte_signal(b"\xff" * FRAME_LENGTH))[0, 0] == pytest.approx(
        (half * 127 / 128) ** 2, rel=1e-12
    )
    assert np.all(power_of(byte_signal(b"\x80" * FRAME_LENGTH)) == 0.0)


def test_byte_signal_pads_to_frame_length():
    sig = byte_signal(b"ab")
    assert sig.shape == (FRAME_LENGTH,)
    assert sig.dtype == np.uint8
    assert list(sig[:2]) == [ord("a"), ord("b")]
    assert np.all(sig[2:] == 128)  # byte 128 is the sample 0.0


def test_byte_signal_rejects_empty():
    with pytest.raises(ValueError, match="empty stream"):
        byte_signal(b"")


def test_frame_count():
    banks = (mel_filterbank(), chroma_map())
    for n, frames in ((FRAME_LENGTH, 1), (FRAME_LENGTH + 2 * HOP_LENGTH, 3)):
        outs = power_frames(byte_signal(b"\x80" * n), banks)
        assert [out.shape for out in outs] == [(frames, N_MELS), (frames, 12)]


def test_power_frame_matches_direct_transform():
    rng = np.random.default_rng(31)
    raw = rng.integers(0, 256, FRAME_LENGTH, dtype=np.uint8).tobytes()
    sig = byte_signal(raw)
    frames = power_of(sig)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH)
    direct = rdft_power_direct((sig - 128.0) / 128.0 * window)
    assert np.abs(frames[0] - direct).max() < 1e-6 * max(1.0, direct.max())
    # each projection is the power spectrum's product with its filterbank
    for bank, got in zip((mel_filterbank(), chroma_map()), (mel_of(sig), energy_of(sig))):
        expect = direct @ bank.T
        assert np.abs(got[0] - expect).max() < 1e-6 * expect.max()


def test_mel_scale_round_trip():
    freqs = np.array([0.0, 440.0, 1000.0, 8000.0])
    assert np.abs(mel_to_hz(hz_to_mel(freqs)) - freqs).max() < 1e-9
    assert hz_to_mel(1000.0) == pytest.approx(2595.0 * np.log10(1 + 1000.0 / 700.0))


def test_filterbank_shape_and_peaks():
    fb = mel_filterbank()
    assert fb.shape == (N_MELS, N_BINS)
    # unit-apex triangles sampled on the bin grid: weights stay in (0, 1]
    # and every band catches at least one bin
    assert np.all(fb >= 0.0)
    assert np.all(fb <= 1.0)
    assert np.all(fb.max(axis=1) > 0.0)
    # band centers climb monotonically
    centers = fb.argmax(axis=1)
    assert np.all(np.diff(centers) >= 0)


def test_filterbank_apex_hits_one_on_a_bin_center():
    # when a triangle's center frequency lands exactly on a bin, the sampled
    # weight there is exactly its unit apex; verify via direct evaluation
    fb = mel_filterbank()
    bins = np.arange(FRAME_LENGTH // 2 + 1) * SAMPLE_RATE / FRAME_LENGTH
    mel_pts = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2))
    for band in range(N_MELS):
        lo, center, hi = mel_pts[band], mel_pts[band + 1], mel_pts[band + 2]
        rising = (bins - lo) / (center - lo)
        falling = (hi - bins) / (hi - center)
        expect = np.clip(np.minimum(rising, falling), 0.0, None)
        assert np.abs(fb[band] - expect).max() < 1e-12


def test_tone_lands_in_its_mel_band():
    fb = mel_filterbank()
    band = 64
    center_bin = fb[band].argmax()
    freq = center_bin * SAMPLE_RATE / FRAME_LENGTH
    t = np.arange(FRAME_LENGTH) / SAMPLE_RATE
    tone = bytes_of(np.round(115 * np.cos(2 * np.pi * freq * t)))
    vec = melspectrogram(mel_of(tone))
    assert vec.argmax() == band


def test_melspectrogram_dims_and_energy_scaling():
    rng = np.random.default_rng(17)
    centred = rng.integers(-51, 52, FRAME_LENGTH)
    v1 = melspectrogram(mel_of(bytes_of(centred)))
    v2 = melspectrogram(mel_of(bytes_of(2 * centred)))
    assert v1.shape == (128,)
    # power is quadratic in amplitude
    assert np.abs(v2 - 4.0 * v1).max() < 1e-9 * max(1.0, v1.max())


def test_mfcc_dims_and_silence():
    vec = mfcc(mel_of(byte_signal(b"\x80" * 4096)))
    assert vec.shape == (20,)
    # silent input floors every band equally: all energy in coefficient 0
    assert np.all(vec[1:] == 0.0)
    assert vec[0] == pytest.approx(np.log(1e-10) * np.sqrt(N_MELS), rel=1e-12)


def test_mfcc_gain_moves_only_the_first_coefficient():
    rng = np.random.default_rng(23)
    centred = rng.integers(-32, 33, 4 * FRAME_LENGTH)
    v1 = mfcc(mel_of(bytes_of(centred)))
    v2 = mfcc(mel_of(bytes_of(2 * centred)))
    assert np.abs(v2[1:] - v1[1:]).max() < 1e-9
    assert v2[0] > v1[0]


def test_mfcc_in_one_copy_matches_the_out_of_place_form():
    rng = np.random.default_rng(41)
    for i in range(40):
        # mel powers over many decades, some under the floor, some zero
        mel = 10.0 ** rng.uniform(-14, 8, (int(rng.integers(1, 300)), N_MELS))
        mel[rng.random(mel.shape) < 0.05] = 0.0
        before = mel.copy()
        assert mfcc(mel).tobytes() == mfcc_reference(mel).tobytes(), i
        assert mel.tobytes() == before.tobytes()  # the shared mel array is left as it was


def test_chroma_pure_tone_class():
    # A440 belongs to pitch class 9 when class 0 is C
    t = np.arange(4 * FRAME_LENGTH) / SAMPLE_RATE
    tone = bytes_of(np.round(102 * np.cos(2 * np.pi * 440.0 * t)))
    vec = chroma(energy_of(tone))
    assert vec.shape == (12,)
    assert vec.argmax() == 9


def test_chroma_frames_are_unit_normalized():
    rng = np.random.default_rng(29)
    samples = rng.integers(64, 192, 8 * FRAME_LENGTH).astype(np.uint8)
    vec = chroma(energy_of(samples))
    # a mean of unit vectors cannot exceed unit length
    assert np.linalg.norm(vec) <= 1.0 + 1e-12
    assert np.all(vec >= 0.0)


def test_feature_determinism():
    raw = bytes(range(256)) * 32
    mel, energy = power_frames(byte_signal(raw), (mel_filterbank(), chroma_map()))
    for fn, arg in ((mfcc, mel), (chroma, energy), (melspectrogram, mel)):
        assert np.array_equal(fn(arg), fn(arg))
