"""The orthonormal DCT-II on numpy's FFT, bit for bit as scipy.fft gives it.

``scipy.fft.dct`` and ``dctn`` run pocketfft's ``T_dcst23``, which is
Makhoul's algorithm (Makhoul, "A fast cosine transform in one and two
dimensions", IEEE TASSP 1980) on pocketfft's real FFT.  ``np.fft.irfft``
runs the same real FFT, so the steps below, in pocketfft's order and
rounding, give the bits scipy gives, and no scipy module is loaded.  For a
row c of even length N:

1. double c[0] and c[N-1], and for odd k < N-1 set
   (c[k], c[k+1]) to (c[k] + c[k+1], c[k+1] - c[k]);
2. read c as the half-complex spectrum [r0, r1, i1, ..., r_{N/2}], take its
   inverse real FFT unscaled and multiply it by the norm factor fct;
3. for 1 <= k < N/2 and kc = N - k, with the twiddles tw of ``_twiddles``,
   t1 = tw[k-1]*y[kc] + tw[kc-1]*y[k] and t2 = tw[k-1]*y[k] - tw[kc-1]*y[kc]
   give out[k] = 0.5*(t1 + t2) and out[kc] = 0.5*(t1 - t2); then
   out[N/2] = y[N/2]*tw[N/2-1] and out[0] = y[0]*(sqrt(2)*0.5).

Step 1 is one complex multiply by 1 - 1j of each row's pairs read as
complex numbers: its products are by +-1, so they are exact, and each
part is the one rounded sum or difference whether or not the multiply is
fused.  Down the columns of a 2-D array, the same steps pair whole rows,
so ``dctn`` needs no transposed copy.

Each transform takes about fifteen numpy calls over all its rows at once,
where pocketfft runs steps 1 and 3 in one fused loop over 2 to 4 rows, so
this costs more than scipy did: on a 2-CPU host the 256x256 transform took
1.7 to 2 times as long.  The calls are kept few, since under a thread pool each one that
releases the GIL may wait to win it back, and step 3 works in the memory
of the spectrum and the inverse transform once they are read, since each
fresh page costs a page fault.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# pocketfft's constants, parsed into the platform's long double as its C++
# source is compiled
_PI = np.longdouble("3.141592653589793238462643383279502884197")
_HALF_SQRT2 = math.sqrt(2.0) * 0.5


def _norm(size: int) -> float:
    """pocketfft's orthonormal factor 1/sqrt(size), taken in long double and
    rounded once; ``size`` is 2N per transformed axis of length N,
    multiplied over the axes."""
    return float(1 / np.sqrt(np.longdouble(size)))


@lru_cache(maxsize=8)
def _twiddles(n: int) -> np.ndarray:
    """Real parts of pocketfft's ``sincos_2pibyn(4n)`` at 1..n.

    pocketfft tables ``cos``/``sin`` of x * pi/(4m) (m = 4n) at a fine and
    a coarse stride, and builds entry i as the product of the fine entry
    ``i & mask`` and the coarse entry ``i & ~mask``; this is that
    arithmetic, with the platform's libm.  Both entries are at most n, so
    their angles x = 8j <= 2m fall in pocketfft's first two octants, or on
    2m itself, where its reduction gives (-0.0, 1.0).
    """
    m = 4 * n
    ang = float(np.longdouble(0.25) * _PI / np.longdouble(m))

    def sincos(j: int) -> tuple[float, float]:
        x = 8 * j
        if x < m:
            return math.cos(x * ang), math.sin(x * ang)
        if x < 2 * m:
            return math.sin((2 * m - x) * ang), math.cos((2 * m - x) * ang)
        return -0.0, 1.0

    shift = 1
    while (1 << shift) * (1 << shift) < (m + 2) // 2:
        shift += 1
    mask = (1 << shift) - 1
    fine = np.array([sincos(j) for j in range(min(mask, n) + 1)]).T
    coarse = np.array([sincos(c << shift) for c in range((n >> shift) + 1)]).T
    i = np.arange(1, n + 1)
    (r1, i1), (r2, i2) = fine[:, i & mask], coarse[:, i >> shift]
    tw = r1 * r2 - i1 * i2
    tw.setflags(write=False)
    return tw


def _transform_rows(x: np.ndarray, fct: float, out: np.ndarray) -> np.ndarray:
    """Write the first ``out.shape[1]`` DCT-II coefficients of each row of
    ``x``, scaled by ``fct``, into ``out``.

    ``out`` is at most N/2 wide (the head) or N wide (every coefficient).
    It may be ``x`` itself, since all of ``x`` is read before any
    coefficient is written.
    """
    n_rows, n = x.shape
    half = n // 2
    full = out.shape[1] == n
    pairs = half - 1 if full else out.shape[1] - 1
    tw = _twiddles(n)
    tw_k, tw_kc = tw[:pairs], tw[n - 2 : n - 2 - pairs : -1].copy()  # tw[k-1], tw[kc-1]
    z = np.zeros((n_rows, half + 1), dtype=np.complex128)
    zf = z.view(np.float64)
    # step 1, into the spectrum's real and imaginary parts
    np.multiply(x[:, 1 : n - 1].view(np.complex128), 1 - 1j, out=z[:, 1:half])
    np.multiply(x[:, 0], 2.0, out=zf[:, 0])
    np.multiply(x[:, n - 1], 2.0, out=zf[:, n])
    # step 2; irfft reads only the real parts of r0 and r_{N/2}
    y = np.fft.irfft(z, n=n, norm="forward")
    a, b = _views(z, n_rows, pairs)
    np.multiply(y[:, 1 : pairs + 1], fct, out=a)  # y[k]
    np.multiply(y[:, n - 1 : n - 1 - pairs : -1], fct, out=b)  # y[kc]
    if full:
        np.multiply(y[:, half], fct, out=out[:, half])
        out[:, half] *= tw[half - 1]
    np.multiply(y[:, 0], fct, out=out[:, 0])
    out[:, 0] *= _HALF_SQRT2
    # step 3 in y's memory, with t2 built in a's place and the sums in b's
    s1 = _butterfly(a, b, y, tw_k, tw_kc)
    np.add(s1, a, out=b)
    np.multiply(b, 0.5, out=out[:, 1 : pairs + 1])
    if full:
        np.subtract(s1, a, out=b)
        np.multiply(b, 0.5, out=out[:, n - 1 : half : -1])
    return out


def _butterfly(a: np.ndarray, b: np.ndarray, buffer: np.ndarray, tw_k: np.ndarray, tw_kc: np.ndarray) -> np.ndarray:
    """Step 3's t2 into ``a`` and its t1, returned, into the front of ``buffer``,
    from y[k] in ``a`` and y[kc] in ``b``; ``b`` is left as tw_kc * y[kc]."""
    s1, s2 = _views(buffer, *a.shape)
    np.multiply(tw_k, b, out=s1)
    np.multiply(tw_kc, a, out=s2)
    s1 += s2  # t1
    a *= tw_k
    b *= tw_kc
    a -= b  # t2
    return s1


def _views(buffer: np.ndarray, rows: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Two contiguous (rows, cols) float64 arrays in the front of ``buffer``,
    which holds at least 2 * rows * cols values."""
    flat = buffer.view(np.float64).reshape(-1)[: 2 * rows * cols]
    return flat[: rows * cols].reshape(rows, cols), flat[rows * cols :].reshape(rows, cols)


def _check_even(shape: tuple[int, ...]) -> None:
    if any(side < 2 or side % 2 for side in shape):
        raise ValueError(f"the DCT here needs even sides of at least 2, got {shape}")


def dct_rows(x: np.ndarray, keep: int, out: np.ndarray | None = None) -> np.ndarray:
    """The first ``keep`` orthonormal DCT-II coefficients of each row of the
    2-D float64 array ``x``: the bits of
    ``scipy.fft.dct(x, type=2, norm="ortho", axis=1)[:, :keep]``.

    ``keep`` is at most half the row length, or all of it.  The
    coefficients go into ``out`` when given, a (rows, keep) float64 array.
    All rows are transformed in one pass, whose buffers take about twice
    the memory of ``x``, so the caller bounds the rows (``mfcc`` passes at
    most ``MFCC_BLOCK_FRAMES``).
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    _check_even(x.shape[1:])
    n = x.shape[1]
    if not (1 <= keep <= n // 2 or keep == n):
        raise ValueError(f"keep must be at most {n // 2} or {n}, got {keep}")
    if out is None:
        out = np.empty((len(x), keep))
    return _transform_rows(x, _norm(2 * n), out)


def _transform_columns(x: np.ndarray, fct: float) -> np.ndarray:
    """Every DCT-II coefficient of each column of ``x``, scaled by ``fct``:
    the steps above down axis 0, each over whole rows of ``x``."""
    n, n_cols = x.shape
    half = n // 2
    tw = _twiddles(n)
    tw_k, tw_kc = tw[: half - 1, None], tw[n - 2 : half - 1 : -1, None]  # tw[k-1], tw[kc-1]
    spectrum = np.zeros((half + 1, n_cols), dtype=np.complex128)
    zf = spectrum.view(np.float64)
    # step 1, pairs of rows into the real and imaginary parts
    np.add(x[1 : n - 1 : 2], x[2 : n - 1 : 2], out=zf[1:half, 0::2])
    np.subtract(x[2 : n - 1 : 2], x[1 : n - 1 : 2], out=zf[1:half, 1::2])
    np.multiply(x[0], 2.0, out=zf[0, 0::2])
    np.multiply(x[n - 1], 2.0, out=zf[half, 0::2])
    # step 2, down the columns
    y = np.fft.irfft(spectrum, n=n, axis=0, norm="forward")
    y *= fct
    # step 3 in place, with row k of y as y[k] and row kc as y[kc], and the
    # spectrum's memory for t1 and a product
    a, b = y[1:half], y[n - 1 : half : -1]
    s1 = _butterfly(a, b, spectrum, tw_k, tw_kc)
    np.subtract(s1, a, out=b)
    b *= 0.5
    a += s1
    a *= 0.5
    y[half] *= tw[half - 1]
    y[0] *= _HALF_SQRT2
    return y


def dctn(x: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II of the 2-D float64 array ``x``: the bits of
    ``scipy.fft.dctn(x, type=2, norm="ortho")``, which transforms axis 0
    first with the whole norm factor and axis 1 second with none.

    Axis 0 is transformed down the columns into a new array, and axis 1
    in place along its rows; no transposed copy is made, and ``x`` is
    left as it was.
    """
    x = np.asarray(x, dtype=np.float64)
    _check_even(x.shape)
    n_rows, n_cols = x.shape
    out = _transform_columns(x, _norm(4 * n_rows * n_cols))
    return _transform_rows(out, 1.0, out)
