"""
Neutralizing active content by renaming it
==========================================

Seven name tags wire a PDF to code execution.  Flipping the case of each
letter breaks the viewer's lookup while keeping every offset in the file
intact; appending a marker does the same but leaves an audit trail.
"""

from maldoc import ByteStream, count_keywords, disarm_method1, disarm_method2, normalize_names, render_report

doc = ByteStream(
    b"%PDF-1.5\n"
    b"1 0 obj << /Type /Catalog /OpenAction 2 0 R /AA 3 0 R >> endobj\n"
    b"2 0 obj << /S /JavaScript /JS (app.launchURL('http://bad')) >> endobj\n"
    b"3 0 obj << /S /Launch /F (cmd.exe) >> endobj\n"
    b"%%EOF\n"
)

# ## Method 1: case flip, same length

flipped, report = disarm_method1(doc)
print("replacements:", len(report.replacements))
print("length unchanged:", len(flipped.data) == len(doc.data))
print(render_report(report))

# the rewritten names no longer match anything the scanner knows
counts = count_keywords(normalize_names(flipped.data))
print("surviving targets:", {t: n for t, n in counts.items() if n and t.startswith("/")})

# ## The flip undoes itself

restored, _ = disarm_method1(flipped)
print("second pass restores the original:", restored.data == doc.data)

# ## Method 2: rename plus a visible marker

marked, report2 = disarm_method2(doc)
print("growth:", len(marked.data) - len(doc.data), "bytes =", len(report2.replacements), "x 9")
line = next(l for l in marked.data.splitlines() if b"_disarmed" in l)
print("sample line:", line.decode("ascii"))
