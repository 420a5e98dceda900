"""The numpy DCT-II in ``maldoc.dct`` against scipy's, byte for byte, and
its trimmed twiddle table against pocketfft's full octant reduction.

scipy stays a test dependency for these oracles only: the package itself
must import no scipy module.
"""

import subprocess
import sys

import numpy as np
import pytest
import scipy.fft

from maldoc.audio import LOG_FLOOR, N_MELS, N_MFCC
from maldoc.dct import _twiddles, dct_rows, dctn

from oracles import twiddles_reference


def _scipy_rows(x: np.ndarray) -> np.ndarray:
    return scipy.fft.dct(x, type=2, norm="ortho", axis=1)


def _assert_rows_match(x: np.ndarray, keeps: tuple[int, ...]) -> None:
    expected = _scipy_rows(x)
    for keep in keeps:
        got = dct_rows(x, keep)
        assert got.shape == (len(x), keep)
        assert got.tobytes() == np.ascontiguousarray(expected[:, :keep]).tobytes(), keep


@pytest.mark.parametrize("n", [8, 128, 256])
def test_rows_match_scipy_over_magnitudes(n):
    rng = np.random.default_rng(n)
    for n_rows in (1, 2, 7, 255, 256, 257, 900):
        # each row at its own magnitude, from 1e-8 to 1e8
        x = rng.standard_normal((n_rows, n)) * 10.0 ** rng.uniform(-8, 8, (n_rows, 1))
        _assert_rows_match(x, (1, min(N_MFCC, n // 2), n // 2, n))


def test_rows_match_scipy_on_floored_log_mel_power():
    rng = np.random.default_rng(41)
    for n_rows in (1, 33, 600):
        mel = 10.0 ** rng.uniform(-14, 8, (n_rows, N_MELS))
        mel[rng.random(mel.shape) < 0.05] = 0.0
        _assert_rows_match(np.log(np.maximum(mel, LOG_FLOOR)), (N_MFCC, N_MELS))


def test_rows_match_scipy_on_edge_rows():
    rng = np.random.default_rng(7)
    n = 128
    rows = [
        np.zeros(n),
        np.full(n, -0.0),
        np.full(n, 3.25),
        np.full(n, 1e300),
        np.full(n, -1e300),
        np.where(np.arange(n) % 2 == 0, 1e300, -1e300),
        np.full(n, 5e-324),  # the smallest subnormal
        rng.standard_normal(n) * 1e-310,  # subnormals of both signs
        np.where(np.arange(n) % 3 == 0, -0.0, 2.0**-1070),
    ]
    _assert_rows_match(np.array(rows), (N_MFCC, n))


@pytest.mark.parametrize("shape", [(256, 256), (8, 8), (16, 8), (6, 10), (2, 2)])
def test_2d_matches_scipy_on_log_counts(shape):
    rng = np.random.default_rng(sum(shape))
    for scale in (1, 50, 5000):
        counts = rng.integers(0, scale + 1, shape) * (rng.random(shape) < 0.3)
        counts[:, rng.random(shape[1]) < 0.4] = 0  # all-zero columns, as unseen bytes leave
        x = np.log1p(counts.astype(np.float64))
        before = x.copy()
        assert dctn(x).tobytes() == scipy.fft.dctn(x, type=2, norm="ortho").tobytes()
        assert dctn(np.asfortranarray(x)).tobytes() == dctn(x).tobytes()
        assert x.tobytes() == before.tobytes()  # the input is left as it was


def test_2d_matches_scipy_on_zero_and_negative_zero_columns():
    x = np.zeros((16, 16))
    assert dctn(x).tobytes() == scipy.fft.dctn(x, type=2, norm="ortho").tobytes()
    x[:, 3] = -0.0  # zeros whose sign the transform must carry through
    x[5, 7] = -0.0
    x[:, 9] = 2.5
    assert dctn(x).tobytes() == scipy.fft.dctn(x, type=2, norm="ortho").tobytes()


def test_rejects_odd_lengths_and_middle_widths():
    with pytest.raises(ValueError, match="even sides"):
        dct_rows(np.ones((3, 7)), 3)
    with pytest.raises(ValueError, match="even sides"):
        dctn(np.ones((8, 5)))
    with pytest.raises(ValueError, match="keep must be at most 64 or 128"):
        dct_rows(np.ones((3, 128)), 65)


def test_the_package_imports_no_scipy():
    code = (
        "import sys, maldoc, maldoc.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_trimmed_twiddles_match_the_full_octant_reduction():
    bad = [n for n in range(2, 8193, 2) if _twiddles(n).tobytes() != twiddles_reference(n).tobytes()]
    assert bad == []
