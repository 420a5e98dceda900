"""
Context-triggered piecewise hashing
===================================

A cryptographic hash flips completely on a one-byte edit; the fuzzy digest
only changes near the edit because piece boundaries are chosen by a rolling
window over the content itself.
"""

import numpy as np

from maldoc import hash_feature, ssdeep_digest

rng = np.random.default_rng(7)
base = rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes()

# ## Digest anatomy

h = ssdeep_digest(base)
print("block size:", h.block_size)
print("digest 1  :", h.digest1)
print("digest 2  :", h.digest2)
print("canonical :", h.canonical)

# ## Local edits stay local

patched = base[:10_000] + b"X" + base[10_001:]
h2 = ssdeep_digest(patched)
same = sum(a == b for a, b in zip(h.digest1, h2.digest1))
print(f"after a 1-byte patch: {same}/{len(h.digest1)} digest characters unchanged")

appended = base + b"tail bytes"
h3 = ssdeep_digest(appended)
print("append keeps the committed prefix:", h3.digest1.startswith(h.digest1[:-1]))

unrelated = ssdeep_digest(rng.integers(0, 256, 20_000, dtype=np.uint8).tobytes())
overlap = sum(a == b for a, b in zip(h.digest1, unrelated.digest1))
print(f"unrelated content: {overlap}/{len(h.digest1)} characters coincide")

# ## Degenerate inputs have a defined answer

print("empty input  :", ssdeep_digest(b"").canonical)
print("zero bytes   :", ssdeep_digest(b"\x00" * 10_000).canonical)

# ## As a fixed-width feature

vec = hash_feature(h)
print("feature:", vec.shape[0], "character codes, padded:", vec[-5:])
