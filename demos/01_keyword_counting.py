"""
Counting risky name tags in raw PDF bytes
=========================================

The structural feature never parses the document tree: it scans raw bytes,
folds ``#xx`` name escapes, and counts a fixed 25-tag vocabulary.  Hostile
files that break real parsers still produce a full vector.
"""

from maldoc import (
    ByteStream,
    RISKY_TAGS,
    count_keywords,
    iter_names,
    normalize_names,
    structural_feature,
)

# ## A tiny handcrafted document

doc = b"""%PDF-1.5
1 0 obj << /Type /Catalog /OpenAction 2 0 R /AA 3 0 R >> endobj
2 0 obj << /S /J#61vaScript /JS (app.alert('hi')) >> endobj
stream
payload bytes, not parsed
endstream
trailer << /Root 1 0 R >>
startxref
116
%%EOF
"""

# ## Name tokens

# the lexer yields each name's raw extent and its decoded spelling
for offset, end, name in iter_names(doc):
    if len(name) != end - offset - 1:
        print(f"{doc[offset:end].decode()} at byte {offset} decodes to /{name.decode()}")

# ## Escape folding first

# the action dictionary hides /JavaScript behind a hex escape; one
# normalization pass makes it visible to the scanner
folded = normalize_names(ByteStream(doc))
print("escape folded out:", b"/JavaScript" in folded.data)

# ## Raw counts

counts = count_keywords(folded)
for tag, n in sorted(counts.items()):
    if n:
        print(f"{tag:>14}  {n}")

# note the disambiguation: "startxref" above did not count as "xref",
# and "endstream"/"endobj" did not double-count their prefixes
print("xref:", counts["xref"], " stream:", counts["stream"])

# ## The 25-entry vector

vec = structural_feature(ByteStream(doc))
print("kind:", vec.kind, " dims:", vec.values.shape[0])
for tag in ("/OpenAction", "/JavaScript", "/JS", "/AA"):
    print(f"{tag:>14}  index {RISKY_TAGS.index(tag):2d}  count {vec.values[RISKY_TAGS.index(tag)]:.0f}")
