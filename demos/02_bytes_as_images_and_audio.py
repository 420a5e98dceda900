"""
One byte stream, five fixed-width embeddings
============================================

The same raw bytes are re-read as a grayscale picture, a bigram frequency
surface, and an 8-bit waveform; each view then gets a standard signal
descriptor.  File size never changes the output width.
"""

import numpy as np

from maldoc import ByteStream, byteplot_image, byteplot_width, bigram_dct_image, compute_feature, gist

rng = np.random.default_rng(0)

# ## Byteplot: bytes laid out row by row

# width follows a decimal-kB schedule so small and huge files both render
for size in (512, 9_999, 10_000, 120_000, 2_000_000):
    print(f"{size:>9} bytes -> width {byteplot_width(size)}")

raw = rng.integers(0, 256, 30_000, dtype=np.uint8).tobytes()
img = byteplot_image(raw)
print("byteplot:", img.shape, "pixel range", (float(img.min()), float(img.max())))

# ## Bigram surface: which byte follows which

surface = bigram_dct_image(raw)
print("bigram transform:", surface.shape, "normalized to", (float(surface.min()), float(surface.max())))

# ## Oriented-energy descriptor over either image

# 3 scales x (8, 8, 4) orientations x a 4x4 grid of cell means = 320
print("descriptor dims:", gist(img).shape[0])

# ## The full static menu

# compute_feature takes the document as a ByteStream and tags each vector
# with its kind
data = ByteStream(raw)
for kind in ("byteplot-gist", "bigramdct-gist", "mfcc", "chroma", "melspectrogram", "ssdeep", "structural"):
    vec = compute_feature(kind, data)
    print(f"{kind:>16}  {vec.values.shape[0]:3d} dims   first entries {np.round(vec.values[:3], 3)}")
