"""Signal mapping, filterbank geometry, and the three spectral features."""

import numpy as np
import pytest

from maldoc import ByteStream
from maldoc.audio import byte_signal, chroma, mel_filterbank, melspectrogram, mfcc
from maldoc.audio import (
    FRAME_LENGTH,
    HOP_LENGTH,
    N_MELS,
    SAMPLE_RATE,
    hz_to_mel,
    mel_power,
    mel_to_hz,
    power_frames,
)

from oracles import rdft_power_direct


def mel_of(samples):
    return mel_power(power_frames(samples))


def test_byte_signal_centering():
    sig = byte_signal(ByteStream(bytes([0, 128, 255])))
    assert sig[0] == -1.0
    assert sig[1] == 0.0
    assert sig[2] == pytest.approx(127 / 128)


def test_byte_signal_pads_to_frame_length():
    sig = byte_signal(ByteStream(b"ab"))
    assert sig.shape == (FRAME_LENGTH,)
    assert np.all(sig[2:] == 0.0)


def test_byte_signal_rejects_empty():
    with pytest.raises(ValueError, match="empty stream"):
        byte_signal(ByteStream(b""))


def test_frame_count():
    sig = byte_signal(ByteStream(b"\x80" * FRAME_LENGTH))
    assert power_frames(sig).shape[0] == 1
    sig = byte_signal(ByteStream(b"\x80" * (FRAME_LENGTH + 2 * HOP_LENGTH)))
    assert power_frames(sig).shape[0] == 3


def test_power_frame_matches_direct_transform():
    rng = np.random.default_rng(31)
    raw = rng.integers(0, 256, FRAME_LENGTH, dtype=np.uint8).tobytes()
    sig = byte_signal(ByteStream(raw))
    frames = power_frames(sig)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH)
    direct = rdft_power_direct(sig * window)
    assert np.abs(frames[0] - direct).max() < 1e-6 * max(1.0, direct.max())


def test_mel_scale_round_trip():
    freqs = np.array([0.0, 440.0, 1000.0, 8000.0])
    assert np.abs(mel_to_hz(hz_to_mel(freqs)) - freqs).max() < 1e-9
    assert hz_to_mel(1000.0) == pytest.approx(2595.0 * np.log10(1 + 1000.0 / 700.0))


def test_filterbank_shape_and_peaks():
    fb = mel_filterbank()
    assert fb.shape == (N_MELS, FRAME_LENGTH // 2 + 1)
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
    tone = 0.9 * np.cos(2 * np.pi * freq * t)
    vec = melspectrogram(mel_of(tone))
    assert vec.values.argmax() == band


def test_melspectrogram_dims_and_energy_scaling():
    rng = np.random.default_rng(17)
    samples = rng.uniform(-0.4, 0.4, FRAME_LENGTH)
    v1 = melspectrogram(mel_of(samples)).values
    v2 = melspectrogram(mel_of(2.0 * samples)).values
    assert v1.shape == (128,)
    # power is quadratic in amplitude
    assert np.abs(v2 - 4.0 * v1).max() < 1e-9 * max(1.0, v1.max())


def test_mfcc_dims_and_silence():
    vec = mfcc(mel_power(power_frames(byte_signal(ByteStream(b"\x80" * 4096)))))
    assert vec.kind == "mfcc"
    assert vec.values.shape == (20,)
    # silent input floors every band equally: all energy in coefficient 0
    assert np.all(vec.values[1:] == 0.0)
    assert vec.values[0] == pytest.approx(np.log(1e-10) * np.sqrt(N_MELS), rel=1e-12)


def test_mfcc_gain_moves_only_the_first_coefficient():
    rng = np.random.default_rng(23)
    samples = rng.uniform(-0.25, 0.25, 4 * FRAME_LENGTH)
    v1 = mfcc(mel_of(samples)).values
    v2 = mfcc(mel_of(2.0 * samples)).values
    assert np.abs(v2[1:] - v1[1:]).max() < 1e-9
    assert v2[0] > v1[0]


def test_chroma_pure_tone_class():
    # A440 belongs to pitch class 9 when class 0 is C
    t = np.arange(4 * FRAME_LENGTH) / SAMPLE_RATE
    tone = 0.8 * np.cos(2 * np.pi * 440.0 * t)
    vec = chroma(power_frames(tone))
    assert vec.values.shape == (12,)
    assert vec.values.argmax() == 9


def test_chroma_frames_are_unit_normalized():
    rng = np.random.default_rng(29)
    samples = rng.uniform(-0.5, 0.5, 8 * FRAME_LENGTH)
    vec = chroma(power_frames(samples))
    # a mean of unit vectors cannot exceed unit length
    assert np.linalg.norm(vec.values) <= 1.0 + 1e-12
    assert np.all(vec.values >= 0.0)


def test_feature_determinism():
    raw = bytes(range(256)) * 32
    power = power_frames(byte_signal(ByteStream(raw)))
    mel = mel_power(power)
    for fn, arg in ((mfcc, mel), (chroma, power), (melspectrogram, mel)):
        assert np.array_equal(fn(arg).values, fn(arg).values)
