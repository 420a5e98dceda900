"""Runs one workload and reports its metrics as one JSON line.

An untraced run sets the workload up ``SETUPS`` times and reports the median
set-up time, then repeats the timed pass until ``--seconds`` of timed wall
have passed, and at least ``MIN_PASSES`` times; its timed wall is the sum
of each client operation's fastest time over the passes.  Both are read on a
``QuietClock``, which removes the slowdown other tenants of a shared host
impose, so a run measures the code and not the neighbours.  A traced run
sets up once, runs untraced passes for half of ``--seconds`` and traced
passes for the other half, and reports per-layer self times from the traced
passes and latencies and CPU time from the untraced ones, all on the raw
clock.

Every pass is checked after its timed region: each operation's output digest
must match the reference recorded for the seed (when there is one) and the
digest of the same operation in the first pass.  Failed operations are
counted in ``failed``, never raised.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

import tracer as tracing
import workloads
from quiet import QuietClock
from workloads import FULL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"
WORK = ROOT / ".bench_work"  # scratch space inside the checkout, removed after a run
SETUPS = 3
MIN_PASSES = 2
DEFAULT_SEED = 2024  # the C4 corpus seed
# the traced run warns when spans leave more than this share of the timed wall
UNATTRIBUTED_WARN = 0.05


def metric_units(trace: bool) -> dict[str, str]:
    """Name -> unit of every metric a run reports, as BENCHMARK.json lists them."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    entries = config["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in entries}


def _git_head(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text(encoding="ascii").strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def environment() -> dict:
    """What a result depends on besides the code: versions, cores, thread pools."""
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "maldoc").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "commit": _git_head(ROOT),
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


class Checker:
    """Counts operations and failures against references and the first pass."""

    def __init__(self, reference: dict | None) -> None:
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, digests: dict, problems: list[str]) -> None:
        if self.first is None:
            self.first = digests
        self.problems += problems
        for op, digest in digests.items():
            self.attempted += 1
            if digest is None:
                self.failed += 1
            elif self.reference is not None and self.reference.get(op) != digest:
                self.failed += 1
                self.problems.append(f"{op}: output differs from the recorded reference")
            elif self.first.get(op) != digest:
                self.failed += 1
                self.problems.append(f"{op}: output differs from the first pass")


def _timed_loop(
    workload, state, seconds: float, checker: Checker, before_check, tracer=None, min_passes=1
):
    """Repeat the timed pass until ``seconds`` of timed wall and ``min_passes`` passes.

    Returns the passes and, when traced, each pass's (spans, counters).
    """
    passes, traces = [], []
    timed = 0.0
    while len(passes) < min_passes or timed < seconds:
        index = len(passes)
        if tracer is None:
            p = workload.run_pass(state, index)
        else:
            with tracer.installed():
                p = workload.run_pass(state, index)
            traces.append(tracer.drain())
        timed += p.wall_s
        if before_check is not None:
            before_check(p.output)
        checker.add(*workload.check(state, p.output))
        p.output = None  # outputs can be large; the digests are kept
        passes.append(p)
    return passes, traces


def _raw_s(start: float, end: float) -> float:
    return end - start


def _best_op_s(passes, seconds=_raw_s) -> dict[str, float]:
    """Each operation's fastest time over the passes, as ``seconds`` reads it."""
    return {op: min(seconds(*p.op_spans[op]) for p in passes) for op in passes[0].op_spans}


@dataclass
class Run:
    metrics: dict[str, float]
    extra: dict  # pass counts, raw readings and the failed ratio, for the log
    checker: Checker


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: workloads.Scale = FULL,
    references: dict | None = None,
    before_check=None,
) -> Run:
    """Run one workload: set up, time, check.

    ``references`` maps a seed to recorded digests; by default the recorded
    ones are used at full scale.  ``before_check`` is called with each
    pass's output before it is checked.
    """
    workload = WORKLOADS[name]
    if references is None:
        references = _load_references() if scale == FULL else {}
    checker = Checker(references.get(str(seed), {}).get(name))
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        measure = _traced_run if trace else _untraced_run
        metrics, extra = measure(workload, seed, seconds, scale, work, checker, before_check)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return Run(metrics, extra, checker)


def _untraced_run(workload, seed, seconds, scale, work, checker, before_check):
    clock = QuietClock()
    setups = []
    state = None
    with clock:
        for k in range(SETUPS):
            if state is not None:
                state = None
                shutil.rmtree(work / f"setup-{k - 1}")
            t0 = time.perf_counter()
            state = workload.setup(work / f"setup-{k}", seed, scale)
            setups.append((t0, time.perf_counter()))
        passes, _ = _timed_loop(
            workload, state, seconds, checker, before_check, min_passes=MIN_PASSES
        )
    wall_s = sum(_best_op_s(passes, clock.quiet_s).values())
    metrics = {
        "setup_s": statistics.median(clock.quiet_s(*span) for span in setups),
        "wall_s": wall_s,
        "mb_per_s": state.input_bytes / 1e6 / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "raw_setup_s": statistics.median(end - start for start, end in setups),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "host_slowdown": clock.slowdown(),
        "input_bytes": state.input_bytes,
        "failed_ratio": checker.failed / checker.attempted,
    }
    return metrics, extra


def _traced_run(workload, seed, seconds, scale, work, checker, before_check):
    tracer = tracing.Tracer()
    with tracer.installed():
        state = workload.setup(work / "setup-0", seed, scale)
    setup_spans, _ = tracer.drain()
    plain, _ = _timed_loop(workload, state, seconds / 2, checker, before_check)
    traced, traces = _timed_loop(workload, state, seconds / 2, checker, before_check, tracer)

    per_pass = []
    for p, (spans, counts) in zip(traced, traces):
        m = tracing.layer_metrics(spans, counts)
        m["trace.unattributed_s"] = p.wall_s - tracing.top_level_s(spans)
        per_pass.append(m)
    metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
    metrics["synth.make_corpus.self_s"] = tracing.self_times(setup_spans).get(
        "synth.make_corpus", 0.0
    )
    best = _best_op_s(plain)
    plain_wall = sum(best.values())
    traced_wall = sum(_best_op_s(traced).values())
    metrics["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics["proc.cpu_s"] = statistics.median(p.cpu_s for p in plain)
    docs = list(best.values()) if workload.name == "scan-large" else []  # one op per document
    for q, key in ((50, "scan.doc_ms_p50"), (90, "scan.doc_ms_p90")):
        metrics[key] = float(np.percentile(docs, q)) * 1e3 if docs else 0.0
    for exp, _, _ in workloads.EXPERIMENTS:
        metrics[f"cv.exp_s.{exp}"] = best.get(exp, 0.0)

    extra = {
        "untraced_passes": len(plain),
        "traced_passes": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "doc_samples": len(docs),
        "failed_ratio": checker.failed / checker.attempted,
    }
    spans_out = WORK / f"spans-{workload.name}.jsonl"
    with open(spans_out, "w", encoding="ascii") as out:
        for phase, spans in [("setup", setup_spans)] + [
            (f"pass{i}", s) for i, (s, _) in enumerate(traces)
        ]:
            for span in spans:
                out.write(json.dumps([phase] + span) + "\n")
    extra["spans_file"] = spans_out.relative_to(ROOT).as_posix()
    share = metrics["trace.unattributed_s"] / statistics.median(p.wall_s for p in traced)
    if share > UNATTRIBUTED_WARN:
        print(f"warning: spans leave {share:.1%} of the traced wall unattributed", file=sys.stderr)
    return metrics, extra


def _load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def _record(seed: int, name: str, digests: dict) -> None:
    refs = _load_references()
    refs.setdefault(str(seed), {})[name] = digests
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's output digests as the reference for its seed",
    )
    args = parser.parse_args(argv)

    units = metric_units(bool(args.trace))
    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    checker = run.checker
    for problem in checker.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if set(run.metrics) != set(units):
        mismatch = sorted(set(units) ^ set(run.metrics))
        print(f"metrics do not match BENCHMARK.json: {mismatch}", file=sys.stderr)
        return 3
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} " + json.dumps(run.extra))
    for key in sorted(units):
        print(f"metric {key} {run.metrics[key]:.6g} {units[key]}")
    print(f"check attempted {checker.attempted} failed {checker.failed}")
    if args.record:
        _record(args.seed, args.workload, checker.first)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {key: {"value": v, "unit": units[key]} for key, v in run.metrics.items()},
    }
    print(json.dumps(result))
    return 0
