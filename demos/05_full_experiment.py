"""
A complete detection experiment on a synthetic corpus
=====================================================

Generate a labeled corpus of benign and hostile documents with fake sandbox
logs, cache static features, cross-validate three models on several feature
kinds plus one fused view, and add the dynamic API-call run at the end.
"""

import tempfile
from pathlib import Path

from maldoc import FeatureCache, ModelSpec, emit_report, featurize_all, ingest, make_corpus, run_experiment

scratch = tempfile.TemporaryDirectory(prefix="maldoc-demo-")  # removed at the end
work = Path(scratch.name)
print("working under", work)

# ## Corpus

manifest_path = make_corpus(work / "corpus", n_total=120, seed=5)
manifest = ingest(manifest_path)
print("rows:", len(manifest.rows), " rejects:", len(manifest.rejects))

# ## Featurize once, reuse forever

cache = FeatureCache(work / "cache")
kinds = ["structural", "ssdeep", "mfcc", "bigramdct-gist"]
result = featurize_all(manifest, kinds, cache)
print("computed:", result.computed)

# a second pass finds everything cached
print("recomputed on second pass:", featurize_all(manifest, kinds, cache).computed)

# ## Cross-validate single kinds and one fusion

reports = []
for features in (["structural"], ["ssdeep"], ["mfcc"], ["bigramdct-gist", "mfcc", "structural"]):
    for spec in (ModelSpec("knn", k=3), ModelSpec("rf", n_trees=50), ModelSpec("vec")):
        reports.append(run_experiment(manifest, cache, spec, features, seed=7))

# ## Dynamic features come from the sandbox logs, fit per training split

for spec in (ModelSpec("rf", n_trees=50), ModelSpec("vec")):
    reports.append(run_experiment(manifest, cache, spec, ["apicalls"], seed=7))

# ## One table

print()
print(emit_report(reports, "text").data.decode("ascii"))
scratch.cleanup()
