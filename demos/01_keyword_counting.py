"""
Counting risky name tags in raw PDF bytes
=========================================

The structural feature never parses the document tree: it scans raw bytes,
folds ``#xx`` name escapes, and counts a fixed 25-tag vocabulary.  Hostile
files that break real parsers still produce a full vector.
"""

from maldoc import RISKY_TAGS, count_keywords, normalize_names, structural_feature

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

# ## Escape folding first

# the action dictionary hides /JavaScript behind a hex escape; one
# normalization pass makes it visible to the scanner
folded = normalize_names(doc)
print("escape folded out:", b"/JavaScript" in folded)

# ## Raw counts

counts = count_keywords(folded)
for tag, n in sorted(counts.items()):
    if n:
        print(f"{tag:>14}  {n}")

# note the disambiguation: "startxref" above did not count as "xref",
# and "endstream"/"endobj" did not double-count their prefixes
print("xref:", counts["xref"], " stream:", counts["stream"])

# ## The 25-entry vector

# the same counts as float64, in RISKY_TAGS order
vec = structural_feature(doc)
print("dims:", vec.shape[0])
for tag in ("/OpenAction", "/JavaScript", "/JS", "/AA"):
    print(f"{tag:>14}  index {RISKY_TAGS.index(tag):2d}  count {vec[RISKY_TAGS.index(tag)]:.0f}")
