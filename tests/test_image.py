"""Byteplot layout, bigram transform, and the oriented-energy descriptor."""

import numpy as np
import pytest

from maldoc import ByteStream, bigram_dct_image, byteplot_image, byteplot_width, gist
from maldoc.image import bigram_counts, dct_image_from_counts, resample_area
from maldoc.image import GIST_ORIENTATIONS

from oracles import dct2_direct, dct2_quadloop


# ---------------------------------------------------------------- byteplot

WIDTH_BOUNDARIES = [
    (1, 32),
    (9_999, 32),
    (10_000, 64),
    (29_999, 64),
    (30_000, 128),
    (59_999, 128),
    (60_000, 256),
    (99_999, 256),
    (100_000, 384),
    (199_999, 384),
    (200_000, 512),
    (499_999, 512),
    (500_000, 768),
    (999_999, 768),
    (1_000_000, 1024),
    (50_000_000, 1024),
]


@pytest.mark.parametrize("size,width", WIDTH_BOUNDARIES)
def test_width_schedule(size, width):
    assert byteplot_width(size) == width


def test_byteplot_pads_final_row_with_zeros():
    img = byteplot_image(ByteStream(b"\xff" * 33))
    assert img.shape == (2, 32)
    assert np.all(img[0] == 1.0)
    assert img[1, 0] == 1.0
    assert np.all(img[1, 1:] == 0.0)


def test_byteplot_pixel_is_byte_over_255():
    img = byteplot_image(ByteStream(bytes([1, 2])))
    assert img.shape == (1, 32)
    assert img[0, 0] == 1 / 255
    assert img[0, 1] == 2 / 255
    full = byteplot_image(ByteStream(bytes(range(256))))
    assert np.array_equal(full.ravel()[:256], np.arange(256) / 255)


def test_byteplot_rejects_empty():
    with pytest.raises(ValueError, match="empty stream"):
        byteplot_image(ByteStream(b""))


# ---------------------------------------------------------------- bigrams

def test_bigram_counts_overlapping_pairs():
    counts = bigram_counts(ByteStream(b"\x00\x01\x00\x01"))
    assert counts.shape == (256, 256)
    assert counts[0, 1] == 2
    assert counts[1, 0] == 1
    assert counts.sum() == 3


def test_bigram_counts_rejects_short_input():
    with pytest.raises(ValueError, match="insufficient bytes"):
        bigram_counts(ByteStream(b"x"))
    with pytest.raises(ValueError, match="insufficient bytes"):
        bigram_dct_image(ByteStream(b""))


def test_uniform_counts_concentrate_at_dc():
    img = dct_image_from_counts(np.ones((256, 256)))
    assert img[0, 0] == 1.0
    rest = img.copy()
    rest[0, 0] = 0.0
    assert np.all(rest == 0.0)


def test_dct_image_rejects_wrong_shape():
    with pytest.raises(ValueError, match="256x256"):
        dct_image_from_counts(np.ones((8, 8)))


def test_dct_image_matches_direct_transform():
    # reproduce the pipeline (log1p, orthonormal 2-D DCT, abs, min-max)
    # with the summation-form oracle
    rng = np.random.default_rng(42)
    counts = rng.integers(0, 50, (256, 256)).astype(np.float64)
    img = bigram_dct_from_matrix_oracle(counts)
    got = dct_image_from_counts(counts)
    assert np.abs(got - img).max() < 1e-9


def bigram_dct_from_matrix_oracle(counts: np.ndarray) -> np.ndarray:
    coeffs = np.abs(dct2_direct(np.log1p(counts)))
    lo, hi = coeffs.min(), coeffs.max()
    if hi == lo:
        return np.zeros_like(coeffs)
    return (coeffs - lo) / (hi - lo)


def test_direct_dct_oracles_agree_with_each_other():
    rng = np.random.default_rng(7)
    block = rng.standard_normal((8, 8))
    assert np.abs(dct2_direct(block) - dct2_quadloop(block)).max() < 1e-12


def test_flat_coefficients_map_to_zeros():
    # a constant coefficient field has no spread to normalize
    img = dct_image_from_counts(np.zeros((256, 256)))
    assert np.all(img == 0.0)


# ---------------------------------------------------------------- descriptor

def test_resample_identity_and_mean_preservation():
    rng = np.random.default_rng(5)
    x = rng.random((64, 64))
    assert np.abs(resample_area(x) - x).max() == 0.0
    y = rng.random((150, 97))
    r = resample_area(y)
    assert r.shape == (64, 64)
    # area averaging conserves total mass for any size pair
    assert abs(r.mean() - y.mean()) < 1e-12


def test_resample_checkerboard_averages_exactly():
    chk = (np.indices((128, 128)).sum(0) % 2) * 1.0
    assert np.abs(resample_area(chk) - 0.5).max() == 0.0


def test_gist_dimensions_and_kind():
    rng = np.random.default_rng(1)
    vec = gist(rng.random((48, 80)))
    assert vec.kind == "byteplot-gist"
    assert vec.values.shape == (320,)
    vec2 = gist(rng.random((48, 80)), kind="bigramdct-gist")
    assert vec2.kind == "bigramdct-gist"


def test_gist_constant_image_is_zero():
    # the filters carry no DC response, so a flat field excites nothing
    for level in (0.0, 0.5, 1.0):
        vec = gist(np.full((64, 64), level))
        assert np.abs(vec.values).max() < 1e-12


def test_gist_is_positively_homogeneous():
    rng = np.random.default_rng(8)
    base = rng.random((64, 64)) * 0.5
    f1 = gist(base).values
    f2 = gist(base * 2.0).values
    assert np.abs(f2 - 2.0 * f1).max() < 1e-9


def test_gist_nonnegative():
    rng = np.random.default_rng(12)
    vec = gist(rng.random((64, 64)))
    assert np.all(vec.values >= 0.0)


def _mirror_permutation() -> np.ndarray:
    """Index map for a horizontal flip: orientation k -> (n-k) % n, grid
    columns reversed, scales and rows untouched."""
    perm = np.empty(320, dtype=int)
    pos = 0
    for s, n in enumerate(GIST_ORIENTATIONS):
        base = sum(o * 16 for o in GIST_ORIENTATIONS[:s])
        for k in range(n):
            k2 = (n - k) % n
            for r in range(4):
                for c in range(4):
                    perm[pos] = base + k2 * 16 + r * 4 + (3 - c)
                    pos += 1
    return perm


def test_gist_mirror_symmetry():
    rng = np.random.default_rng(99)
    img = rng.random((64, 64))
    f = gist(img).values
    g = gist(np.fliplr(img)).values
    assert np.abs(g - f[_mirror_permutation()]).max() < 1e-6


def test_gist_layout_is_scale_orientation_cell():
    # zeroing the response of nothing: instead verify the block structure by
    # reading orientation counts off the flip permutation fixture
    perm = _mirror_permutation()
    assert perm.shape == (320,)
    assert sorted(perm.tolist()) == list(range(320))
