"""End-to-end corpus flow: ingest, cached featurization, experiments, reports.

A manifest is a CSV of ``path,label[,report_path]`` rows; samples are
identified by the SHA-256 of their content everywhere downstream, so the
same file listed twice is the same sample (the first row wins; the manifest
lists the later ones as duplicates).

The feature cache is one TSV per feature kind under a directory, keyed by
content hash, with a version header so a featurizer change invalidates only
its own kind.  Values are written with ``repr`` and parse back bit-for-bit.
Tables are written and read one row at a time, so a paper-scale table costs
its parsed arrays and one row's text, not several copies of the file.  Each
save also writes a binary index of the table beside it, which a load reads
instead of parsing the text while it names the table's exact SHA-256.

API-call features are the one kind that is not cached: their vocabulary is
fit on each cross-validation training split (never on held-out rows), so
the vectors are fold-dependent by design.
"""

from __future__ import annotations

import csv
import hashlib
import io
import logging
import os
import re
from collections import Counter
from contextlib import suppress
from concurrent.futures import FIRST_COMPLETED, Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Sequence

import numpy as np

from . import audio, core, image, tokenizer
from .core import (
    ByteStream, DataError, FeatureVector, FIXED_DIMS, FLOAT_REPR_CHARS, MAX_SAMPLE_BYTES, STATIC_KINDS, TextLines,
    atomic_write, open_regular, read_regular,
)
from .ctph import hash_feature, ssdeep_digest
from .dynamic import MAX_REPORT_BYTES, api_call_feature, build_api_vocabulary, count_matrix, parse_report
from .ml import CvReport, DEFAULT_FOLDS, FoldBuilder, ModelSpec, cross_validate_builder

log = logging.getLogger(__name__)

LABELS = {"benign": 0, "malware": 1}

# bump a kind's version when its featurizer changes meaning; stale cache
# rows for that kind are recomputed, other kinds stay valid
FEATURE_VERSIONS = {kind: "1" for kind in STATIC_KINDS}

_DIGEST = re.compile(r"[0-9a-f]{64}")
# the filterbank each audio kind reads its projection of the power spectra from
_FILTERBANKS = dict(mfcc=audio.mel_filterbank, melspectrogram=audio.mel_filterbank, chroma=audio.chroma_map)
# featurize_all admits samples while their sizes sum to at most this: the
# transient memory of one capped sample, spread over the threads
_IN_FLIGHT_BYTES = MAX_SAMPLE_BYTES
# the longest valid cache row of any kind: the digest, then a tab and a repr per value of the widest kind
_MAX_ROW_CHARS = 64 + (FLOAT_REPR_CHARS + 1) * max(FIXED_DIMS.values())
# the most characters of a manifest or CV CSV record, with the ends of all its
# lines but the last: csv's default field limit, times a row's three fields plus room
_MAX_CSV_CHARS = 4 * 131_072
_UNDECODED = re.compile("[\udc80-\udcff]")  # what errors="surrogateescape" makes of a bad byte
# the longest index header line read: its fields, the longest kind name, a
# row count and a hex digest, with room
_MAX_INDEX_HEADER = 512
# an index header's fields after the kind's (_index_prefix)
_INDEX_FIELDS = re.compile(rb"rows=(0|[1-9][0-9]{0,17}) table=([0-9a-f]{64})\n")
# the bytes of each block a table is hashed in
_HASH_BLOCK = 1 << 16


def _tagged(
    kind: str, compute: Callable[[Any], np.ndarray], arg: Any
) -> FeatureVector | ValueError | MemoryError:
    """``compute(arg)`` tagged as ``kind``, which checks its width and that
    it is finite, or the ``ValueError`` or ``MemoryError`` it raised, kept
    without its traceback so that no frame of the failed call outlives it."""
    try:
        return FeatureVector(kind, compute(arg))
    except (ValueError, MemoryError) as exc:
        return exc.with_traceback(None)


def _audio_features(kinds: Sequence[str], raw: bytes) -> dict[str, FeatureVector | ValueError | MemoryError]:
    """The audio kinds, each reduced from its projection of one shared stage:
    ``audio.power_frames`` projects the byte signal's power spectra onto the
    filterbanks these kinds read.  A failed stage is each kind's error; the
    projections are dropped on return."""
    banks = list(dict.fromkeys(_FILTERBANKS[kind] for kind in kinds))
    try:
        spectra = dict(zip(banks, audio.power_frames(audio.byte_signal(raw), [bank() for bank in banks])))
    except (ValueError, MemoryError) as exc:
        return dict.fromkeys(kinds, exc.with_traceback(None))
    # looked up per call: the benchmark's tracer wraps these reducers in place
    reducers = {"mfcc": audio.mfcc, "chroma": audio.chroma, "melspectrogram": audio.melspectrogram}
    return {kind: _tagged(kind, reducers[kind], spectra[_FILTERBANKS[kind]]) for kind in kinds}


def compute_features(
    kinds: Sequence[str], data: ByteStream
) -> dict[str, FeatureVector | ValueError | MemoryError]:
    """Run several static featurizers on the same bytes in one pass.

    Maps each kind, in order, to its vector or to the ``ValueError`` or
    ``MemoryError`` its featurizer raised, kept without its traceback.  The
    audio kinds run as one group at the first one's position, so their
    shared stage runs once and is released before any later kind runs.
    """
    check_static(kinds)
    # looked up per call: the benchmark's tracer wraps tokenizer.structural_feature in place
    featurizers: dict[str, Callable[[bytes], np.ndarray]] = {
        "byteplot-gist": lambda raw: image.gist(image.byteplot_image(raw)),
        "bigramdct-gist": lambda raw: image.gist(image.bigram_dct_image(raw)),
        "ssdeep": lambda raw: hash_feature(ssdeep_digest(raw)),
        "structural": tokenizer.structural_feature,
    }
    out: dict[str, FeatureVector | ValueError | MemoryError | None] = dict.fromkeys(kinds)
    for kind in kinds:
        if kind in featurizers:
            out[kind] = _tagged(kind, featurizers[kind], data.data)
        elif out[kind] is None:
            out.update(_audio_features([k for k in kinds if k in _FILTERBANKS], data.data))
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


def _csv_records(path: Path, encoding: str) -> Iterator[tuple[int, list[str]]]:
    """Each record of the CSV file at ``path`` and the line it starts on.  A line may hold what
    the record's earlier lines left of ``_MAX_CSV_CHARS``; a record over it is a DataError naming
    path and start line, as a byte not in ``encoding`` or a ``csv.Error`` is one naming its line."""
    with open_regular(path) as f, io.TextIOWrapper(f, encoding=encoding, errors="surrogateescape", newline="") as text:
        lines = TextLines(text, _MAX_CSV_CHARS)
        start = 1

        def checked(line: str | None) -> str:
            if line is None or lines.max_chars < 0:  # below 0, any line takes a record over
                raise DataError(f"{path}: line {start}: over {_MAX_CSV_CHARS} characters")
            if _UNDECODED.search(line):
                raise DataError(f"{path}: line {lines.number}: not valid {encoding.upper()}")
            lines.max_chars -= len(line)
            return line

        reader = csv.reader(map(checked, lines))
        try:
            for record in reader:
                yield start, record
                start = reader.line_num + 1
                lines.max_chars = _MAX_CSV_CHARS
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def ingest(manifest_path: str | Path) -> DatasetManifest:
    """Read and validate a UTF-8 manifest CSV, a line at a time (``_csv_records``).

    One leading byte-order mark is skipped.  Relative sample paths resolve
    against the manifest's directory.  Bad rows are rejected individually;
    ingest only fails outright when nothing survives.
    """
    manifest_path = Path(manifest_path)
    base = manifest_path.parent
    records = _csv_records(manifest_path, "utf-8")
    header = next(records, (0, None))[1]
    if header is None:
        raise DataError(f"manifest {manifest_path} is empty")
    if header:  # past one UTF-8 byte-order mark, as Windows editors save a CSV
        header[0] = header[0].removeprefix("\ufeff")
    if header not in (["path", "label"], ["path", "label", "report_path"]):
        raise DataError(
            f"manifest header must be path,label[,report_path], got {','.join(header)}"
        )

    rows: list[ManifestRow] = []
    rejects: list[tuple[str, str]] = []
    duplicates: list[str] = []
    seen: set[str] = set()
    for lineno, record in records:
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


def _cache_header(kind: str) -> str:
    return f"# maldoc-cache kind={kind} version={FEATURE_VERSIONS[kind]}"


def _cache_row(line: str, kind: str) -> tuple[str, np.ndarray] | None:
    """(digest, values) of one cache line, or None unless it is well formed."""
    digest, *fields = line.split("\t")
    if not _DIGEST.fullmatch(digest):
        return None
    try:
        # numpy parses each str with float(), so the grammar is float()'s
        return digest, FeatureVector(kind, np.array(fields, dtype=np.float64)).values
    except ValueError:
        return None


def _read_table(path: Path, kind: str) -> dict[str, np.ndarray]:
    """The well-formed rows of a cache table, read one row at a time.

    The file is opened under ``core.open_regular``'s rules, decoded as
    ASCII with any other byte replaced, and split by ``core.TextLines``; a
    line longer than the longest valid row of any kind is dropped with one
    warning, without being held whole.  A first line other than the kind's
    version header, an over-long one too, drops the whole file with a warning;
    each malformed row after it is dropped with a warning of its own.
    """
    table: dict[str, np.ndarray] = {}
    with open_regular(path) as f, io.TextIOWrapper(f, encoding="ascii", errors="replace", newline=None) as text:
        lines = TextLines(text, _MAX_ROW_CHARS)
        ended = (line and line.removesuffix("\n") for line in lines)  # without their ends; None kept
        header = next(ended, None)
        if header == _cache_header(kind):
            for line in ended:
                if line is None:
                    log.warning("cache %s: dropping a line of over %d characters", path.name, _MAX_ROW_CHARS)
                elif (row := _cache_row(line, kind)) is None:
                    log.warning("cache %s: dropping malformed row %.20r", path.name, line)
                else:
                    table[row[0]] = row[1]
        elif lines.number:  # the file has a first line
            log.warning("cache %s is version-stale; ignoring its rows", path.name)
    return table


def _index_prefix(kind: str) -> bytes:
    return f"# maldoc-cache-index kind={kind} version={FEATURE_VERSIONS[kind]} dims={FIXED_DIMS[kind]} ".encode("ascii")


def _sha256_of(f: IO[bytes]) -> bytes:
    """The hex SHA-256 of the rest of ``f``, read one block at a time."""
    digest = hashlib.sha256()
    for block in iter(lambda: f.read(_HASH_BLOCK), b""):
        digest.update(block)
    return digest.hexdigest().encode("ascii")


def _read_index(path: Path, table_path: Path, kind: str) -> dict[str, np.ndarray] | None:
    """The rows of the table at ``table_path`` as its index at ``path``
    holds them, or None unless the index holds exactly that table's rows.

    The index is opened under ``core.open_regular``'s rules, and trusted
    only if its header names the kind, its version and width; its size is
    the header's plus the named row count's records and the trailer, a
    count the table's size allows; the table's bytes hash to the SHA-256
    the header names, and the payload to the one its trailer holds; its
    digests strictly increase and its values are finite.  The table is
    hashed before the values are allocated, and the values are read
    straight into one matrix whose rows are the table's vectors.
    """
    dims = FIXED_DIMS[kind]
    prefix = _index_prefix(kind)
    try:
        with open_regular(path) as f:
            head = f.readline(_MAX_INDEX_HEADER)
            fields = _INDEX_FIELDS.fullmatch(head, len(prefix)) if head.startswith(prefix) else None
            if fields is None:
                return None
            rows = int(fields[1])
            if os.fstat(f.fileno()).st_size != len(head) + rows * (32 + 8 * dims) + 32:
                return None
            with open_regular(table_path) as table:
                # a table row takes at least a digest, a tab and 3 characters per value, and a line end
                if rows * (65 + 4 * dims) > os.fstat(table.fileno()).st_size or _sha256_of(table) != fields[2]:
                    return None
            digests = f.read(32 * rows)
            values = np.empty((rows, dims), dtype="<f8")
            if len(digests) != 32 * rows or f.readinto(values) != values.nbytes:
                return None
            trailer = f.read(32)
    except DataError:
        return None
    payload = hashlib.sha256(digests)
    payload.update(values)
    keys = [digests[i : i + 32].hex() for i in range(0, len(digests), 32)]
    # min and max are NaN if any value is, and scan the values without a copy
    if (
        payload.digest() != trailer
        or not all(a < b for a, b in zip(keys, keys[1:]))
        or not np.isfinite(values.min(initial=0.0))
        or not np.isfinite(values.max(initial=0.0))
    ):
        return None
    return dict(zip(keys, values.astype(np.float64, copy=False)))


class FeatureCache:
    """Directory of per-kind TSV tables keyed by content hash.

    A kind's table is loaded on its first use and held in memory as
    ``{digest: values}``; :meth:`save` writes it back whole, creating the
    directory if it is missing, which reading never does; a missing table
    reads as empty, but a cache path that is not a directory is a
    :class:`DataError`.  Both directions stream the file one row at a time,
    so their transient memory is about one row's text, not the table's.

    A save also writes the table's binary index under ``.index/``, which a
    load reads instead of parsing the text while it holds exactly the
    table's rows (``_read_index``); in every other case the text is parsed,
    so the TSV stays the source of truth.  Reading never writes an index.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self._tables: dict[str, dict[str, np.ndarray]] = {}

    def _path(self, kind: str) -> Path:
        return self.directory / f"{kind}.tsv"

    def _index_path(self, kind: str) -> Path:
        # in a subdirectory, as __pycache__ is beside sources, so the top level holds one file per kind
        return self.directory / ".index" / f"{kind}.bin"

    def _table(self, kind: str) -> dict[str, np.ndarray]:
        if kind not in self._tables:
            path = self._path(kind)
            if path.exists():
                table = _read_index(self._index_path(kind), path, kind)
                self._tables[kind] = _read_table(path, kind) if table is None else table
            elif self.directory.exists() and not self.directory.is_dir():
                # under a regular file path.exists() is False (ENOTDIR)
                raise DataError(f"cache {self.directory} is not a directory")
            else:
                self._tables[kind] = {}
        return self._tables[kind]

    def get(self, digest: str, kind: str) -> np.ndarray | None:
        return self._table(kind).get(digest)

    def put(self, digest: str, feature: FeatureVector) -> None:
        self._table(feature.kind)[digest] = feature.values

    def save(self, kind: str) -> None:
        """Write the kind's table over its file, header first, then one
        ``digest\\t<repr>...`` row per digest in sorted order; a failed save
        leaves the previous file (``core.atomic_write``).

        Then write the table's index: a header naming the kind, its version
        and width, the row count and the SHA-256 of the table's bytes; the
        payload, the rows' raw digests in the same order and their
        little-endian float64 values; and a trailer, the payload's raw
        SHA-256.  Both files are written one row at a time.  An index that
        cannot be written is skipped, as Python skips a ``.pyc`` it cannot
        write, and so is the index of a table with a digest that is not 64
        lowercase hex characters, a row its text drops on reading: the table
        is saved, and a load parses it.
        """
        table = self._table(kind)
        digests = sorted(table)
        self.directory.mkdir(parents=True, exist_ok=True)
        table_hash = hashlib.sha256()
        rows = ("\t".join([digest, *map(repr, table[digest].tolist())]) for digest in digests)
        with atomic_write(self._path(kind)) as out:
            for line in chain([_cache_header(kind)], rows):
                data = f"{line}\n".encode("ascii")
                table_hash.update(data)
                out.write(data)
        if not all(map(_DIGEST.fullmatch, digests)):  # put takes any digest; the text drops these rows
            return
        head = f"rows={len(digests)} table={table_hash.hexdigest()}\n"
        payload = chain(map(bytes.fromhex, digests), (table[d].astype("<f8", copy=False) for d in digests))
        with suppress(OSError):
            self._index_path(kind).parent.mkdir(exist_ok=True)
            with atomic_write(self._index_path(kind)) as out:
                out.write(_index_prefix(kind) + head.encode("ascii"))
                payload_hash = hashlib.sha256()
                for piece in payload:
                    payload_hash.update(piece)
                    out.write(piece)
                out.write(payload_hash.digest())


@dataclass(frozen=True)
class FeaturizeResult:
    computed: dict[str, int]  # per kind, how many vectors were newly computed
    errors: tuple[tuple[str, str, str], ...]  # (sha256, kind, reason)


def check_static(kinds: Sequence[str]) -> None:
    """Static kinds only, else ``ValueError``: the rule of ``featurize_all`` and ``compute_features``."""
    if bad := [kind for kind in kinds if kind not in STATIC_KINDS]:
        raise ValueError(f"featurize handles static kinds only, got {bad[0]!r}")


def featurize_all(
    manifest: DatasetManifest, kinds: Sequence[str], cache: FeatureCache
) -> FeaturizeResult:
    """Fill the cache for every (sample, kind) pair that is missing.

    Idempotent: a second run recomputes nothing.  A featurizer error,
    running out of memory included, is recorded and excludes that sample
    for that kind only.  A sample that can no longer be read, or whose bytes
    no longer hash to its ingest-time digest, is recorded as an error for
    each missing kind and cached under nothing; every other row is still
    featurized and every table saved.

    Samples are featurized on one thread per CPU in this process's
    affinity mask; the featurizers spend their time in numpy calls that
    release the GIL.  The calling thread reads and checks each sample in
    manifest order and admits it only while at most one sample per thread
    is in flight and their sizes sum to at most ``MAX_SAMPLE_BYTES`` (a
    larger sample waits to run alone), so the transient memory stays about
    one capped sample's.  Outcomes are taken as they finish, and the errors
    are sorted into manifest order at the end, each sample's in the order
    of ``kinds``, so the cache, ``computed`` and ``errors`` depend on
    neither the thread count nor the timing.  Inside a sample, the power
    spectra of a large one are also shared out over the CPUs
    (``core.split_work``), with the bits of a one-thread pass.
    """
    check_static(kinds)
    cache.directory.mkdir(parents=True, exist_ok=True)  # a path it cannot make fails before the work
    computed = dict.fromkeys(kinds, 0)
    errors: list[tuple[int, str, str, str]] = []  # (row index, sha256, kind, reason)
    running: dict[Future, tuple[int, str, int]] = {}  # (row index, sha256, size)

    def take(done: set[Future]) -> None:
        """Cache, count and list the errors of finished samples, in any order."""
        for future in done:
            i, digest, _ = running.pop(future)
            for kind, result in future.result().items():
                if isinstance(result, FeatureVector):
                    cache.put(digest, result)
                    computed[kind] += 1
                else:
                    errors.append((i, digest, kind, str(result) or "out of memory"))

    workers = core.usable_cpus()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i, row in enumerate(manifest.rows):
            missing = [k for k in kinds if cache.get(row.sha256, k) is None]
            if not missing:
                continue
            try:
                data = ByteStream.from_file(row.path)
                if data.sha256 != row.sha256:
                    raise DataError("content changed since ingest")
            except DataError as exc:
                errors.extend((i, row.sha256, k, str(exc)) for k in missing)
                continue
            size = len(data.data)
            while running and (
                len(running) >= workers or sum(n for *_, n in running.values()) + size > _IN_FLIGHT_BYTES
            ):
                take(wait(running, return_when=FIRST_COMPLETED).done)
            running[pool.submit(compute_features, missing, data)] = (i, row.sha256, size)
            del data  # the worker holds the only reference
        take(wait(running).done)
    errors.sort(key=lambda error: error[0])
    for kind in kinds:
        cache.save(kind)
    return FeaturizeResult(computed=computed, errors=tuple(error[1:] for error in errors))


def _cached_rows(
    manifest: DatasetManifest, cache: FeatureCache, kinds: Sequence[str]
) -> tuple[list[ManifestRow], FoldBuilder]:
    """Rows with every kind cached, and a builder that slices their fused matrix."""
    kept = []
    for row in manifest.rows:
        if all(cache.get(row.sha256, k) is not None for k in kinds):
            kept.append(row)
        else:
            log.warning("excluding %s: missing a cached feature", row.path.name)
    matrix = np.array([np.concatenate([cache.get(r.sha256, k) for k in kinds]) for r in kept])
    return kept, lambda train_idx, test_idx: (matrix[train_idx], matrix[test_idx])


def _report_rows(manifest: DatasetManifest) -> tuple[list[ManifestRow], FoldBuilder]:
    """Rows whose sandbox report parses, and a builder of their API-call counts.

    Each report's calls are counted as it is read, into one count matrix for
    the experiment.  The builder fits the vocabulary on each fold's training
    rows only; a fold whose training reports hold no API call is a
    :class:`DataError`.
    """
    kept = []
    counts: list[Counter[tuple[str, int]]] = []
    for row in manifest.rows:
        if row.report_path is None:
            log.warning("excluding %s: no sandbox report", row.path.name)
            continue
        try:
            counts.append(parse_report(read_regular(row.report_path, MAX_REPORT_BYTES)))
        except DataError as exc:
            log.warning("excluding %s: sandbox report %s: %s", row.path.name, row.report_path, exc)
            continue
        kept.append(row)
    matrix = count_matrix(counts)

    def build(train_idx: np.ndarray, test_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        train = matrix.take(train_idx, axis=0)
        vocab = build_api_vocabulary(train)
        if not vocab.size:
            raise DataError("apicalls: a fold's training reports hold no API call")
        return api_call_feature(train, vocab), api_call_feature(matrix.take(test_idx, axis=0), vocab)

    return kept, build


def check_features(kinds: Sequence[str]) -> None:
    """The feature-list rule of ``cv``, experiments and CV CSVs, else a
    ``ValueError``: one or more static kinds, none twice, or ``apicalls`` alone."""
    if not kinds:
        raise ValueError("no feature kinds given")
    for i, kind in enumerate(kinds):
        if kind not in STATIC_KINDS + ("apicalls",):
            raise ValueError(f"unknown feature kind {kind!r}")
        if kind in kinds[:i]:
            raise ValueError(f"feature kind {kind!r} given twice")
    if "apicalls" in kinds and len(kinds) > 1:
        raise ValueError("apicalls features cannot be fused with static kinds")


def run_experiment(
    manifest: DatasetManifest,
    cache: FeatureCache,
    model_spec: ModelSpec,
    feature_spec: Sequence[str],
    seed: int = 0,
    folds: int = DEFAULT_FOLDS,
) -> CvReport:
    """Cross-validate one model over one feature kind or an ordered fusion.

    ``feature_spec`` must pass :func:`check_features`, else ``ValueError``;
    the model's parameters were checked when ``model_spec`` was built.
    """
    check_features(feature_spec)
    if "apicalls" in feature_spec:
        kept, build = _report_rows(manifest)
        scarce = "sandbox reports"
    else:
        kept, build = _cached_rows(manifest, cache, feature_spec)
        scarce = "featurized samples"
    if len(kept) < 2:
        raise DataError(f"not enough {scarce} to run an experiment")
    labels = np.array([LABELS[r.label] for r in kept], dtype=np.int64)
    return cross_validate_builder(labels, build, model_spec, "+".join(feature_spec), folds, seed)


# --------------------------------------------------------------------------
# report emission

_CSV_HEADER = ["feature", "dims", "model", "seed", "mean"]


def emit_report(reports: Sequence[CvReport], fmt: str = "text") -> ByteStream:
    """Render experiment results, sorted by feature kind then model kind.

    ``text`` is a human table: one row per feature, dims and seed, sorted by
    feature then seed, and one column per model; a second report for an
    occupied cell is a DataError.  ``csv`` is machine-readable with
    per-fold columns and survives a round-trip through
    :func:`parse_report_csv` to within 1e-12 (exactly, in fact: floats are
    written with repr).
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
    rows: dict[tuple[str, int, int], dict[str, float]] = {}  # (feature, seed, dims) -> cells
    for r in ordered:
        cells = rows.setdefault((r.feature_kind, r.seed, r.dims), {})
        if r.model_kind in cells:
            raise DataError(f"two {r.model_kind} results for {r.feature_kind} at seed {r.seed}")
        cells[r.model_kind] = r.mean_accuracy
    name_w = max([len("feature")] + [len(k) for k, *_ in rows]) + 2
    seed_w = max([len("seed")] + [len(str(seed)) for _, seed, _ in rows]) + 2
    header = f"{'feature':<{name_w}}{'dims':>6}{'seed':>{seed_w}}" + "".join(f"{m:>10}" for m in models)
    lines = [header, "-" * len(header)]
    for (kind, seed, dims), cells in sorted(rows.items()):
        line = f"{kind:<{name_w}}{dims:>6}{seed:>{seed_w}}"
        for m in models:
            line += f"{cells[m]:>10.4f}" if m in cells else f"{'-':>10}"
        lines.append(line)
    return ByteStream(("\n".join(lines) + "\n").encode("ascii"))


def parse_report_csv(path: str | Path) -> list[CvReport]:
    """Read back a file of ``emit_report(..., "csv").data``; a malformed record is a DataError."""
    records = _csv_records(Path(path), "ascii")
    out = []
    lineno, header = next(records, (0, None))
    if header is None:
        raise DataError(f"{path}: empty report csv")
    try:
        if header[: len(_CSV_HEADER)] != _CSV_HEADER:
            raise ValueError("unrecognized report csv header")
        n_folds = len(header) - len(_CSV_HEADER)
        for lineno, record in records:
            if not record:
                continue
            if len(record) < len(_CSV_HEADER):
                raise ValueError(f"{len(record)} fields, expected at least {len(_CSV_HEADER)}")
            feature, dims, model, seed, mean, *folds = record
            while folds and folds[-1] == "":
                folds.pop()
            if len(folds) > n_folds:
                raise ValueError(f"{len(folds)} fold cells under a {n_folds}-fold header")
            if "" in folds:
                raise ValueError("an empty fold cell before a filled one")
            ModelSpec(model)  # an unknown model kind is a ValueError
            parts = feature.split("+")
            check_features(parts)
            if int(dims) < 0:
                raise ValueError(f"negative dims {dims}")
            if parts != ["apicalls"] and int(dims) != sum(FIXED_DIMS[kind] for kind in parts):
                raise ValueError(f"dims {dims} of {feature!r} differ from its kinds' widths")
            out.append(
                CvReport(
                    fold_accuracies=tuple(float(v) for v in folds),
                    mean_accuracy=float(mean),
                    model_kind=model,
                    feature_kind=feature,
                    seed=int(seed),
                    dims=int(dims),
                )
            )
    except ValueError as exc:
        raise DataError(f"{path}: line {lineno}: {exc}") from None
    return out
