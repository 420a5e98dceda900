"""Command-line front end.

Subcommands: synth, featurize, cv, report, disarm.  Exit codes: 0 success,
1 usage error, 2 data error (unreadable or malformed inputs).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import DataError, ByteStream, STATIC_KINDS, atomic_write
from .disarm import disarm_method1, disarm_method2, render_report
from .ml import DEFAULT_FOLDS, DEFAULT_KNN_K, DEFAULT_RF_TREES, ModelSpec
from .pipeline import (
    DatasetManifest,
    FeatureCache,
    emit_report,
    featurize_all,
    ingest,
    parse_report_csv,
    run_experiment,
)
from .synth import make_corpus

USAGE_ERROR = 1
DATA_ERROR = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for data errors
    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _feature_list(text: str) -> list[str]:
    kinds = [k.strip() for k in text.split(",") if k.strip()]
    if not kinds:
        raise argparse.ArgumentTypeError("no feature kinds given")
    for kind in kinds:
        if kind not in STATIC_KINDS + ("apicalls",):
            raise argparse.ArgumentTypeError(f"unknown feature kind {kind!r}")
    return kinds


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="maldoc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="write a seeded synthetic corpus")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, default=400, help="total file count, split per class")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("featurize", help="fill the feature cache for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--kinds", type=_feature_list, required=True,
                   help="comma-separated static feature kinds")
    p.add_argument("--cache", required=True, help="cache directory")

    p = sub.add_parser("cv", help="cross-validate a model on cached features")
    p.add_argument("--manifest", required=True)
    p.add_argument("--cache", required=True)
    p.add_argument("--model", choices=("knn", "rf", "vec"), required=True)
    p.add_argument("--features", type=_feature_list, required=True,
                   help="one kind, or a comma-separated fusion of static kinds")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--k", type=int, default=DEFAULT_KNN_K, help="KNN neighbor count")
    p.add_argument("--trees", type=int, default=DEFAULT_RF_TREES, help="forest size")
    p.add_argument("--out", help="write a CSV result row here (directory or file)")

    p = sub.add_parser("report", help="render results collected from cv runs")
    p.add_argument("--in", dest="in_dir", required=True, help="directory of cv CSV files")
    p.add_argument("--format", choices=("text", "csv"), default="text")

    p = sub.add_parser("disarm", help="rewrite risky name tags in PDFs")
    p.add_argument("--method", type=int, choices=(1, 2), required=True)
    p.add_argument("--in", dest="in_path", required=True, help="a PDF or a directory of PDFs")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--report", help="append per-file replacement logs here")

    return parser


def _cmd_synth(args) -> int:
    manifest = make_corpus(args.out, n_total=args.n, seed=args.seed)
    print(manifest)
    return 0


def _ingest(path: str) -> DatasetManifest:
    """Ingest a manifest and name every row it dropped on stderr."""
    manifest = ingest(path)
    for where, reason in manifest.rejects:
        print(f"rejected: {where}: {reason}", file=sys.stderr)
    for where in manifest.duplicates:
        print(f"duplicate: {where}: same content as an earlier row", file=sys.stderr)
    return manifest


def _cmd_featurize(args) -> int:
    manifest = _ingest(args.manifest)
    result = featurize_all(manifest, args.kinds, FeatureCache(args.cache))
    for kind in args.kinds:
        print(f"{kind}: {result.computed[kind]} computed")
    for digest, kind, reason in result.errors:
        print(f"error: {digest[:12]} {kind}: {reason}", file=sys.stderr)
    return 0


def _cmd_cv(args) -> int:
    if args.model == "knn" and args.k % 2 == 0:
        raise ValueError("--k must be odd")
    manifest = _ingest(args.manifest)
    spec = ModelSpec(kind=args.model, k=args.k, n_trees=args.trees)
    report = run_experiment(
        manifest,
        FeatureCache(args.cache),
        spec,
        args.features,
        seed=args.seed,
        folds=args.folds,
    )
    sys.stdout.write(emit_report([report], "text").data.decode("ascii"))
    if args.out:
        out = Path(args.out)
        if out.is_dir() or not out.suffix:
            out.mkdir(parents=True, exist_ok=True)
            out = out / f"{report.feature_kind}-{report.model_kind}-seed{report.seed}.csv"
        with atomic_write(out) as f:
            f.write(emit_report([report], "csv").data)
        print(f"wrote {out}")
    return 0


def _cmd_report(args) -> int:
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise DataError(f"{in_dir} is not a directory")
    reports = []
    for path in sorted(in_dir.glob("*.csv")):
        try:
            reports.extend(parse_report_csv(path.read_bytes()))
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    if not reports:
        raise DataError(f"no cv results under {in_dir}")
    sys.stdout.write(emit_report(reports, args.format).data.decode("ascii"))
    return 0


def _cmd_disarm(args) -> int:
    in_path = Path(args.in_path)
    if in_path.is_dir():
        files = sorted(p for p in in_path.iterdir() if p.suffix.lower() == ".pdf")
        if not files:
            raise DataError(f"no .pdf files under {in_path}")
    elif in_path.exists():
        files = [in_path]
    else:
        raise DataError(f"{in_path} does not exist")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rewrite = disarm_method1 if args.method == 1 else disarm_method2
    log_lines = []
    for path in files:
        data = ByteStream.from_file(path)
        result, report = rewrite(data)
        with atomic_write(out_dir / path.name) as f:
            f.write(result.data)
        log_lines.append(f"# {path}\n{render_report(report)}")
        print(f"{path.name}: {len(report.replacements)} replacements")
    if args.report:
        with open(args.report, "a", encoding="ascii") as log:
            log.writelines(log_lines)
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "featurize": _cmd_featurize,
    "cv": _cmd_cv,
    "report": _cmd_report,
    "disarm": _cmd_disarm,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (DataError, OSError) as exc:
        print(f"maldoc: {exc}", file=sys.stderr)
        return DATA_ERROR
    except ValueError as exc:
        print(f"maldoc: {exc}", file=sys.stderr)
        return USAGE_ERROR


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
