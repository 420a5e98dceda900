"""The benchmark's three workloads: set-up, one timed pass, and its checks.

Every workload drives the public API in-process with one client in a closed
loop: each call starts only after the previous one returned.  A pass returns
its own timed wall and CPU time and the start and end of each client
operation, so bookkeeping around them is never timed.

``check`` runs after the timed region.  It turns a pass's outputs into one
digest per operation, or ``None`` for an operation that raised or broke an
invariant; the harness compares the digests with the recorded references and
across passes.
"""

from __future__ import annotations

import hashlib
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from maldoc import core, disarm, ml, pipeline, synth

FUSION = ("bigramdct-gist", "mfcc", "structural")  # the C4 fusion, 365 dims

# (name, model, feature kinds): each is one `maldoc cv` command
EXPERIMENTS = (
    ("vec-fusion", "vec", FUSION),
    ("rf-byteplot", "rf", ("byteplot-gist",)),
    ("knn-byteplot", "knn", ("byteplot-gist",)),
    ("rf-apicalls", "rf", ("apicalls",)),
)
EXPERIMENT_SEED = 7
EXPERIMENT_FOLDS = 10
MODEL_SEED = 7

# the static kinds the experiments read; filling the other three would only
# lengthen set-up, since the cache loads a table on first use of its kind
CV_CACHED_KINDS = ("bigramdct-gist", "mfcc", "structural", "byteplot-gist")

# scan-large draws document parts from pools built once per set-up
BENIGN_POOL = 64
MALICIOUS_POOL = 16


@dataclass(frozen=True)
class Scale:
    corpus: int = 400  # make_corpus files
    docs: int = 100  # scan-large documents
    doc_min: int = 32 * 1024  # scan-large document sizes, log-uniform
    doc_max: int = 1024 * 1024


FULL = Scale()


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    output: object
    op_spans: dict[str, tuple[float, float]]  # perf_counter start, end of each client operation


def _timed(fn) -> tuple[float, float, float]:
    """Run ``fn``; return its perf_counter start, wall seconds and CPU seconds."""
    w0, c0 = time.perf_counter(), time.process_time()
    fn()
    return w0, time.perf_counter() - w0, time.process_time() - c0


def _failure() -> str:
    # a failed operation is counted, never raised; keep the trace for stderr
    return traceback.format_exc()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --------------------------------------------------------------------------
# featurize-cold: ingest and featurize all 7 static kinds into an empty cache


@dataclass(frozen=True)
class CorpusState:
    root: Path
    manifest_path: Path
    input_bytes: int


@dataclass
class FeaturizeOutput:
    cache_dir: Path
    manifest: object  # DatasetManifest, or a failure trace
    result: object  # FeaturizeResult, or a failure trace


class FeaturizeCold:
    name = "featurize-cold"

    def setup(self, root: Path, seed: int, scale: Scale) -> CorpusState:
        manifest_path = synth.make_corpus(root / "corpus", scale.corpus, seed)
        size = sum(p.stat().st_size for p in (root / "corpus" / "pdfs").iterdir())
        return CorpusState(root=root, manifest_path=manifest_path, input_bytes=size)

    def run_pass(self, state: CorpusState, index: int) -> Pass:
        out = FeaturizeOutput(cache_dir=state.root / f"cache-{index}", manifest=None, result=None)

        def work() -> None:
            try:
                out.manifest = pipeline.ingest(state.manifest_path)
                cache = pipeline.FeatureCache(out.cache_dir)
                out.result = pipeline.featurize_all(out.manifest, core.STATIC_KINDS, cache)
            except Exception:
                out.result = _failure()

        start, wall, cpu = _timed(work)
        return Pass(wall, cpu, out, {"featurize": (start, start + wall)})

    def check(self, state: CorpusState, out: FeaturizeOutput) -> tuple[dict, list[str]]:
        digests: dict[str, str | None] = {}
        problems: list[str] = []
        result = out.result
        if not isinstance(result, pipeline.FeaturizeResult):
            problems.append(f"featurize raised:\n{result}")
            digests = dict.fromkeys(core.STATIC_KINDS)
        else:
            rows = len(out.manifest.rows)
            for kind in core.STATIC_KINDS:
                table = out.cache_dir / f"{kind}.tsv"
                errors = [e for e in result.errors if e[1] == kind]
                data = table.read_bytes() if table.exists() else b""
                lines = data.count(b"\n")
                bad = []
                if errors:
                    bad.append(f"{len(errors)} featurizer errors, first: {errors[0][2]}")
                if result.computed.get(kind) != rows:
                    bad.append(f"computed {result.computed.get(kind)} of {rows} rows")
                if lines != rows + 1:
                    bad.append(f"table has {lines} lines for {rows} rows")
                problems += [f"{kind}: {b}" for b in bad]
                digests[kind] = None if bad else _sha(data)
        shutil.rmtree(out.cache_dir, ignore_errors=True)
        return digests, problems


# --------------------------------------------------------------------------
# cv-warm: four cross-validation experiments over a filled cache


@dataclass(frozen=True)
class CvState:
    manifest: object  # DatasetManifest
    cache_dir: Path
    input_bytes: int


class CvWarm:
    name = "cv-warm"

    def setup(self, root: Path, seed: int, scale: Scale) -> CvState:
        manifest_path = synth.make_corpus(root / "corpus", scale.corpus, seed)
        manifest = pipeline.ingest(manifest_path)
        cache_dir = root / "cache"
        pipeline.featurize_all(manifest, CV_CACHED_KINDS, pipeline.FeatureCache(cache_dir))
        size = sum(p.stat().st_size for p in cache_dir.iterdir())
        size += sum(row.report_path.stat().st_size for row in manifest.rows)
        return CvState(manifest=manifest, cache_dir=cache_dir, input_bytes=size)

    def run_pass(self, state: CvState, index: int) -> Pass:
        reports: dict[str, object] = {}
        spans: dict[str, tuple[float, float]] = {}

        def work() -> None:
            # a fresh cache object, so every table load is timed
            cache = pipeline.FeatureCache(state.cache_dir)
            for name, model, kinds in EXPERIMENTS:
                t0 = time.perf_counter()
                try:
                    reports[name] = pipeline.run_experiment(
                        state.manifest,
                        cache,
                        ml.ModelSpec(model),
                        kinds,
                        seed=EXPERIMENT_SEED,
                        folds=EXPERIMENT_FOLDS,
                    )
                except Exception:
                    reports[name] = _failure()
                spans[name] = (t0, time.perf_counter())

        _, wall, cpu = _timed(work)
        return Pass(wall, cpu, reports, spans)

    def check(self, state: CvState, reports: dict) -> tuple[dict, list[str]]:
        digests: dict[str, str | None] = {}
        problems: list[str] = []
        for name, _, kinds in EXPERIMENTS:
            report = reports[name]
            if not isinstance(report, ml.CvReport):
                problems.append(f"{name} raised:\n{report}")
                digests[name] = None
                continue
            bad = []
            if len(report.fold_accuracies) != EXPERIMENT_FOLDS:
                bad.append(f"{len(report.fold_accuracies)} folds")
            if "apicalls" in kinds:
                dims_ok = report.dims >= 1  # the fold vocabulary sets the width
            else:
                dims_ok = report.dims == sum(core.FIXED_DIMS[k] for k in kinds)
            if not dims_ok:
                bad.append(f"dims {report.dims}")
            if name == "vec-fusion" and report.mean_accuracy < 0.95:
                bad.append(f"mean accuracy {report.mean_accuracy} below the C4 floor 0.95")
            problems += [f"{name}: {b}" for b in bad]
            csv = pipeline.emit_report([report], fmt="csv").data
            digests[name] = None if bad else _sha(csv)
        return digests, problems


# --------------------------------------------------------------------------
# scan-large: detect and disarm large documents one after another


@dataclass(frozen=True)
class Document:
    path: Path
    size: int
    malicious: bool


@dataclass(frozen=True)
class ScanState:
    scaler: ml.FeatureScaler
    model: object  # VecModel
    docs: tuple[Document, ...]
    input_bytes: int


def make_documents(out_dir: Path, seed: int, scale: Scale) -> tuple[Document, ...]:
    """Seeded documents of log-uniform size, each a concatenation of PDFs.

    Sizes are stratified (one draw per equal-width log bin), so the total
    input barely moves with the seed.  Every other document also carries
    one malicious part at a random position.  A document is at least its
    drawn size and overshoots it by less than one benign part.
    """
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    benign = [synth.benign_pdf(rng) for _ in range(BENIGN_POOL)]
    malicious = [synth.malicious_pdf(rng) for _ in range(MALICIOUS_POOL)]
    bins = (np.arange(scale.docs) + rng.random(scale.docs)) / scale.docs
    targets = scale.doc_min * (scale.doc_max / scale.doc_min) ** bins
    targets = targets[rng.permutation(scale.docs)]
    out_dir.mkdir(parents=True)
    docs = []
    for i, target in enumerate(targets):
        parts = [malicious[int(rng.integers(len(malicious)))]] if i % 2 else []
        size = sum(map(len, parts))
        while size < target:
            parts.append(benign[int(rng.integers(len(benign)))])
            size += len(parts[-1])
        data = b"".join(parts[j] for j in rng.permutation(len(parts)))
        path = out_dir / f"doc-{i:03d}.pdf"
        path.write_bytes(data)
        docs.append(Document(path=path, size=len(data), malicious=bool(i % 2)))
    return tuple(docs)


class ScanLarge:
    name = "scan-large"

    def setup(self, root: Path, seed: int, scale: Scale) -> ScanState:
        manifest = pipeline.ingest(synth.make_corpus(root / "corpus", scale.corpus, seed))
        cache = pipeline.FeatureCache(root / "cache")
        pipeline.featurize_all(manifest, FUSION, cache)
        matrix = np.hstack(
            [np.vstack([cache.get(row.sha256, k) for row in manifest.rows]) for k in FUSION]
        )
        labels = np.array([pipeline.LABELS[row.label] for row in manifest.rows])
        scaler = ml.FeatureScaler.fit(matrix)
        train = ml.LabeledSet(scaler.transform(matrix), labels, kind="+".join(FUSION))
        model = ml.train_model(ml.ModelSpec("vec"), train, seed=MODEL_SEED)
        docs = make_documents(root / "docs", seed, scale)
        return ScanState(scaler, model, docs, sum(d.size for d in docs))

    def run_pass(self, state: ScanState, index: int) -> Pass:
        results: list[object] = []
        spans: dict[str, tuple[float, float]] = {}

        def work() -> None:
            for doc in state.docs:
                t0 = time.perf_counter()
                try:
                    data = core.ByteStream.from_file(doc.path)
                    row = np.concatenate(
                        [pipeline.compute_feature(k, data).values for k in FUSION]
                    )
                    labels, scores = ml.predict_batch(state.model, state.scaler.transform(row))
                    clean, report = disarm.disarm_method1(data)
                    results.append(
                        (int(labels[0]), float(scores[0]), clean.data, len(report.replacements))
                    )
                except Exception:
                    results.append(_failure())
                spans[doc.path.stem] = (t0, time.perf_counter())

        _, wall, cpu = _timed(work)
        return Pass(wall, cpu, results, spans)

    def check(self, state: ScanState, results: list) -> tuple[dict, list[str]]:
        digests: dict[str, str | None] = {}
        problems: list[str] = []
        for doc, result in zip(state.docs, results):
            op = doc.path.stem
            if not isinstance(result, tuple):
                problems.append(f"{op} raised:\n{result}")
                digests[op] = None
                continue
            label, score, clean, replaced = result
            bad = []
            if label not in (0, 1) or not 0.0 <= score <= 1.0:
                bad.append(f"verdict {label} score {score!r}")
            if len(clean) != doc.size:
                bad.append(f"disarm changed the length {doc.size} -> {len(clean)}")
            if (replaced > 0) != doc.malicious:
                kind = "malicious" if doc.malicious else "benign"
                bad.append(f"{replaced} replacements in a {kind} document")
            restored, _ = disarm.disarm_method1(core.ByteStream(clean))
            if restored.data != doc.path.read_bytes():
                bad.append("disarm applied twice does not restore the document")
            problems += [f"{op}: {b}" for b in bad]
            summary = f"{label} {score!r} {replaced} {_sha(clean)}".encode("ascii")
            digests[op] = None if bad else _sha(summary)[:16]
        return digests, problems


WORKLOADS = {w.name: w for w in (FeaturizeCold(), CvWarm(), ScanLarge())}
