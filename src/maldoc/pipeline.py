"""End-to-end corpus flow: ingest, cached featurization, experiments, reports.

A manifest is a CSV of ``path,label[,report_path]`` rows; samples are
identified by the SHA-256 of their content everywhere downstream, so the
same file listed twice is the same sample (first row wins, with a warning).

The feature cache is one TSV per feature kind under a directory, keyed by
content hash, with a version header so a featurizer change invalidates only
its own kind.  Values are written with ``repr`` and parse back bit-for-bit.

API-call features are the one kind that is not cached: their vocabulary is
fit on each cross-validation training split (never on held-out rows), so
the vectors are fold-dependent by design.
"""

from __future__ import annotations

import csv
import functools
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import audio, image, tokenizer
from .core import ByteStream, DataError, FeatureVector, FIXED_DIMS, STATIC_KINDS, atomic_write
from .ctph import hash_feature, ssdeep_digest
from .dynamic import ApiReport, api_call_feature, build_api_vocabulary, parse_report
from .ml import (
    CvReport,
    DEFAULT_FOLDS,
    LabeledSet,
    ModelSpec,
    cross_validate,
    cross_validate_builder,
)

log = logging.getLogger(__name__)

LABELS = {"benign": 0, "malware": 1}

# bump a kind's version when its featurizer changes meaning; stale cache
# rows for that kind are recomputed, other kinds stay valid
FEATURE_VERSIONS = {kind: "1" for kind in STATIC_KINDS}

_DIGEST = re.compile(r"[0-9a-f]{64}")
_AUDIO_KINDS = frozenset({"mfcc", "chroma", "melspectrogram"})


def compute_features(
    kinds: Sequence[str], data: ByteStream
) -> dict[str, FeatureVector | ValueError | DataError]:
    """Run several static featurizers on the same bytes in one pass.

    Maps each kind, in order, to its vector or to the error its featurizer
    raised.  Intermediates that kinds share (the byte signal, the power
    spectra and their mel projection) are computed once, and released after
    the last requested audio kind, before any later kind runs.
    """
    for kind in kinds:
        if kind not in STATIC_KINDS:
            raise ValueError(f"unknown static feature kind {kind!r}")

    @functools.cache
    def power() -> np.ndarray:
        return audio.power_frames(audio.byte_signal(data))

    @functools.cache
    def mel() -> np.ndarray:
        return audio.mel_power(power())

    featurizers: dict[str, Callable[[], FeatureVector]] = {
        "byteplot-gist": lambda: image.gist(image.byteplot_image(data), "byteplot-gist"),
        "bigramdct-gist": lambda: image.gist(image.bigram_dct_image(data), "bigramdct-gist"),
        "mfcc": lambda: audio.mfcc(mel()),
        "chroma": lambda: audio.chroma(power()),
        "melspectrogram": lambda: audio.melspectrogram(mel()),
        "ssdeep": lambda: hash_feature(ssdeep_digest(data)),
        "structural": lambda: tokenizer.structural_feature(data),
    }
    last_audio = max((i for i, kind in enumerate(kinds) if kind in _AUDIO_KINDS), default=-1)
    out: dict[str, FeatureVector | ValueError | DataError] = {}
    for i, kind in enumerate(kinds):
        try:
            out[kind] = featurizers[kind]()
        except (ValueError, DataError) as exc:
            out[kind] = exc
        if i == last_audio:
            mel.cache_clear()
            power.cache_clear()
    return out


def compute_feature(kind: str, data: ByteStream) -> FeatureVector:
    """Run one static featurizer on raw bytes."""
    result = compute_features([kind], data)[kind]
    if isinstance(result, FeatureVector):
        return result
    raise result


@dataclass(frozen=True)
class ManifestRow:
    path: Path
    sha256: str
    label: str
    report_path: Path | None = None


@dataclass(frozen=True)
class DatasetManifest:
    rows: tuple[ManifestRow, ...]
    rejects: tuple[tuple[str, str], ...] = ()  # (path, reason)
    duplicates: tuple[str, ...] = ()  # paths dropped as duplicate content


def ingest(manifest_path: str | Path) -> DatasetManifest:
    """Read and validate a manifest CSV.

    Relative sample paths resolve against the manifest's directory.  Bad
    rows are rejected individually; ingest only fails outright when nothing
    survives.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    try:
        raw = manifest_path.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read manifest {manifest_path}: {exc}") from exc
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"manifest {manifest_path}: line {line}: not valid UTF-8") from None

    reader = csv.reader(text.splitlines())
    try:
        records = list(reader)
    except csv.Error as exc:
        raise DataError(f"manifest {manifest_path}: line {reader.line_num}: {exc}") from None
    if not records:
        raise DataError(f"manifest {manifest_path} is empty")
    header = records[0]
    if header not in (["path", "label"], ["path", "label", "report_path"]):
        raise DataError(
            f"manifest header must be path,label[,report_path], got {','.join(header)}"
        )

    rows: list[ManifestRow] = []
    rejects: list[tuple[str, str]] = []
    duplicates: list[str] = []
    seen: set[str] = set()
    for lineno, record in enumerate(records[1:], 2):
        if not record or record == [""]:
            continue
        if len(record) != len(header):
            rejects.append((f"line {lineno}", "wrong field count"))
            continue
        raw_path, raw_label = record[0], record[1]
        label = raw_label.strip().lower()
        if label not in LABELS:
            rejects.append((raw_path, f"unknown label {raw_label!r}"))
            continue
        path = base / raw_path
        try:
            digest = ByteStream.from_file(path).sha256
        except DataError as exc:
            rejects.append((raw_path, str(exc)))
            continue
        if digest in seen:
            log.warning("duplicate content at %s; keeping the first copy", raw_path)
            duplicates.append(raw_path)
            continue
        seen.add(digest)
        report_path = None
        if len(header) == 3 and record[2].strip():
            report_path = base / record[2].strip()
        rows.append(ManifestRow(path=path, sha256=digest, label=label, report_path=report_path))

    if not rows:
        raise DataError(f"manifest {manifest_path}: no usable rows")
    return DatasetManifest(rows=tuple(rows), rejects=tuple(rejects), duplicates=tuple(duplicates))


def _cache_row(line: str, width: int) -> tuple[str, np.ndarray] | None:
    """(digest, values) of one cache line, or None unless it is well formed."""
    digest, *fields = line.split("\t")
    if not _DIGEST.fullmatch(digest) or len(fields) != width:
        return None
    try:
        values = np.array([float(v) for v in fields], dtype=np.float64)
    except ValueError:
        return None
    return (digest, values) if np.isfinite(values).all() else None


class FeatureCache:
    """Directory of per-kind TSV tables keyed by content hash."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._tables: dict[str, dict[str, np.ndarray]] = {}

    def _path(self, kind: str) -> Path:
        return self.directory / f"{kind}.tsv"

    def _table(self, kind: str) -> dict[str, np.ndarray]:
        if kind not in self._tables:
            table: dict[str, np.ndarray] = {}
            path = self._path(kind)
            if path.exists():
                lines = path.read_text(encoding="ascii", errors="replace").splitlines()
                expect = f"# maldoc-cache kind={kind} version={FEATURE_VERSIONS[kind]}"
                if lines and lines[0] == expect:
                    for line in lines[1:]:
                        row = _cache_row(line, FIXED_DIMS[kind])
                        if row is None:
                            log.warning("cache %s: dropping malformed row %.20r", path.name, line)
                        else:
                            table[row[0]] = row[1]
                elif lines:
                    log.warning("cache %s is version-stale; recomputing", path.name)
            self._tables[kind] = table
        return self._tables[kind]

    def get(self, digest: str, kind: str) -> np.ndarray | None:
        return self._table(kind).get(digest)

    def put(self, digest: str, feature: FeatureVector) -> None:
        self._table(feature.kind)[digest] = feature.values

    def save(self, kind: str) -> None:
        table = self._table(kind)
        lines = [f"# maldoc-cache kind={kind} version={FEATURE_VERSIONS[kind]}"]
        for digest in sorted(table):
            lines.append(digest + "\t" + "\t".join(map(repr, table[digest].tolist())))
        with atomic_write(self._path(kind)) as out:
            out.write(("\n".join(lines) + "\n").encode("ascii"))


@dataclass(frozen=True)
class FeaturizeResult:
    computed: dict[str, int]  # per kind, how many vectors were newly computed
    errors: tuple[tuple[str, str, str], ...]  # (sha256, kind, reason)


def featurize_all(
    manifest: DatasetManifest, kinds: Sequence[str], cache: FeatureCache
) -> FeaturizeResult:
    """Fill the cache for every (sample, kind) pair that is missing.

    Idempotent: a second run recomputes nothing.  A featurizer error is
    recorded and excludes that sample for that kind only.
    """
    for kind in kinds:
        if kind not in STATIC_KINDS:
            raise ValueError(f"featurize handles static kinds only, got {kind!r}")
    computed = dict.fromkeys(kinds, 0)
    errors: list[tuple[str, str, str]] = []
    for row in manifest.rows:
        missing = [k for k in kinds if cache.get(row.sha256, k) is None]
        if not missing:
            continue
        results = compute_features(missing, ByteStream.from_file(row.path))
        for kind, result in results.items():
            if isinstance(result, FeatureVector):
                cache.put(row.sha256, result)
                computed[kind] += 1
            else:
                errors.append((row.sha256, kind, str(result)))
    for kind in kinds:
        cache.save(kind)
    return FeaturizeResult(computed=computed, errors=tuple(errors))


def _static_experiment(
    manifest: DatasetManifest,
    cache: FeatureCache,
    model_spec: ModelSpec,
    feature_kinds: Sequence[str],
    seed: int,
    folds: int,
) -> CvReport:
    usable: list[ManifestRow] = []
    for row in manifest.rows:
        if all(cache.get(row.sha256, k) is not None for k in feature_kinds):
            usable.append(row)
        else:
            log.warning("excluding %s: missing a cached feature", row.path.name)
    if len(usable) < 2:
        raise DataError("not enough featurized samples to run an experiment")
    matrix = np.hstack(
        [np.vstack([cache.get(r.sha256, k) for r in usable]) for k in feature_kinds]
    )
    labels = np.array([LABELS[r.label] for r in usable], dtype=np.int64)
    kind = "+".join(feature_kinds)
    data = LabeledSet(vectors=matrix, labels=labels, kind=kind)
    return cross_validate(data, model_spec, folds=folds, seed=seed)


def _dynamic_experiment(
    manifest: DatasetManifest,
    model_spec: ModelSpec,
    seed: int,
    folds: int,
) -> CvReport:
    reports: list[ApiReport] = []
    labels: list[int] = []
    for row in manifest.rows:
        if row.report_path is None:
            log.warning("excluding %s: no sandbox report", row.path.name)
            continue
        try:
            reports.append(parse_report(ByteStream.from_file(row.report_path)))
        except DataError as exc:
            log.warning("excluding %s: sandbox report %s: %s", row.path.name, row.report_path, exc)
            continue
        labels.append(LABELS[row.label])
    if len(reports) < 2:
        raise DataError("not enough sandbox reports to run an experiment")
    label_arr = np.array(labels, dtype=np.int64)

    def build(train_idx: np.ndarray, test_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vocab = build_api_vocabulary([reports[i] for i in train_idx])
        as_matrix = lambda idx: np.vstack(
            [api_call_feature(reports[i], vocab).values for i in idx]
        )
        return as_matrix(train_idx), as_matrix(test_idx)

    return cross_validate_builder(label_arr, build, model_spec, "apicalls", folds, seed)


def run_experiment(
    manifest: DatasetManifest,
    cache: FeatureCache,
    model_spec: ModelSpec,
    feature_spec: Sequence[str],
    seed: int = 0,
    folds: int = DEFAULT_FOLDS,
) -> CvReport:
    """Cross-validate one model over one feature kind or an ordered fusion."""
    if not feature_spec:
        raise ValueError("feature_spec must name at least one kind")
    if "apicalls" in feature_spec:
        if list(feature_spec) != ["apicalls"]:
            raise ValueError("apicalls features cannot be fused with static kinds")
        return _dynamic_experiment(manifest, model_spec, seed, folds)
    for kind in feature_spec:
        if kind not in STATIC_KINDS:
            raise ValueError(f"unknown feature kind {kind!r}")
    return _static_experiment(manifest, cache, model_spec, feature_spec, seed, folds)


# --------------------------------------------------------------------------
# report emission

_CSV_HEADER = ["feature", "dims", "model", "seed", "mean"]


def emit_report(reports: Sequence[CvReport], fmt: str = "text") -> ByteStream:
    """Render experiment results, sorted by feature kind then model kind.

    ``text`` is a human table (features as rows, models as columns);
    ``csv`` is machine-readable with per-fold columns and survives a
    round-trip through :func:`parse_report_csv` to within 1e-12 (exactly,
    in fact: floats are written with repr).
    """
    ordered = sorted(reports, key=lambda r: (r.feature_kind, r.model_kind))
    if fmt == "csv":
        n_folds = max((len(r.fold_accuracies) for r in ordered), default=0)
        lines = [",".join(_CSV_HEADER + [f"fold{i}" for i in range(n_folds)])]
        for r in ordered:
            cells = [r.feature_kind, str(r.dims), r.model_kind, str(r.seed), repr(float(r.mean_accuracy))]
            cells += [repr(float(a)) for a in r.fold_accuracies]
            lines.append(",".join(cells))
        return ByteStream(("\n".join(lines) + "\n").encode("ascii"))
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    models = sorted({r.model_kind for r in ordered})
    rows: dict[tuple[str, int], dict[str, float]] = {}
    for r in ordered:
        rows.setdefault((r.feature_kind, r.dims), {})[r.model_kind] = r.mean_accuracy
    name_w = max([len("feature")] + [len(k) for k, _ in rows]) + 2
    header = f"{'feature':<{name_w}}{'dims':>6}" + "".join(f"{m:>10}" for m in models)
    lines = [header, "-" * len(header)]
    for (kind, dims), cells in rows.items():
        line = f"{kind:<{name_w}}{dims:>6}"
        for m in models:
            line += f"{cells[m]:>10.4f}" if m in cells else f"{'-':>10}"
        lines.append(line)
    return ByteStream(("\n".join(lines) + "\n").encode("ascii"))


def parse_report_csv(data: ByteStream | bytes) -> list[CvReport]:
    """Read back ``emit_report(..., "csv")``; any malformed record is a DataError."""
    raw = data.data if isinstance(data, ByteStream) else data
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"line {line}: non-ASCII bytes in report csv") from None
    reader = csv.reader(text.splitlines())
    out = []
    try:
        header = next(reader, None)
        if header is None:
            raise DataError("empty report csv")
        if header[: len(_CSV_HEADER)] != _CSV_HEADER:
            raise DataError("unrecognized report csv header")
        for record in reader:
            if not record:
                continue
            if len(record) < len(_CSV_HEADER):
                raise DataError(
                    f"line {reader.line_num}: {len(record)} fields, "
                    f"expected at least {len(_CSV_HEADER)}"
                )
            out.append(
                CvReport(
                    fold_accuracies=tuple(float(v) for v in record[len(_CSV_HEADER) :] if v != ""),
                    mean_accuracy=float(record[4]),
                    model_kind=record[2],
                    feature_kind=record[0],
                    seed=int(record[3]),
                    dims=int(record[1]),
                )
            )
    except (ValueError, csv.Error) as exc:
        raise DataError(f"line {reader.line_num}: {exc}") from None
    return out
