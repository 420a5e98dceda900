"""Acceptance gate: one criterion per test, one printed verdict line each.

Each test prints ``[acceptance] C<n> <name>: PASS|FAIL`` on the real stdout
(bypassing capture) so the verdicts are visible in any run log, then asserts.
"""

import hashlib
import json
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from maldoc import (
    ByteStream,
    FeatureCache,
    ModelSpec,
    compute_feature,
    count_keywords,
    disarm_method1,
    disarm_method2,
    emit_report,
    featurize_all,
    gist,
    ingest,
    make_corpus,
    normalize_names,
    run_experiment,
    ssdeep_digest,
)
from maldoc.disarm import TARGET_TAGS
from maldoc.dynamic import api_call_feature, build_api_vocabulary, count_matrix, parse_report
from maldoc.image import gabor_bank, resample_area
from maldoc.ml import (
    FeatureScaler,
    LabeledSet,
    _fold_seed,
    accuracy,
    cross_validate_builder,
    predict_batch,
    save_model,
    stratified_folds,
    train_model,
)
from maldoc.audio import FRAME_LENGTH, byte_signal, power_frames
from maldoc.core import FIXED_DIMS, STATIC_KINDS
from maldoc.dct import dctn
from maldoc.pipeline import LABELS

from oracles import (
    circular_convolve_direct,
    dct2_direct,
    dft2_direct,
    idft2_direct,
    rdft_power_direct,
    spamsum_reference,
)

FUSION = ["bigramdct-gist", "mfcc", "structural"]


def verdict(capfd, name: str, ok: bool, detail: str) -> None:
    with capfd.disabled():
        print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def corpus400(tmp_path_factory):
    """400-sample seeded corpus, featurized for the fusion kinds; the build
    wall time is carried into the budget check of criterion 4."""
    root = tmp_path_factory.mktemp("acceptance")
    start = time.monotonic()
    manifest_path = make_corpus(root / "corpus", n_total=400, seed=2024)
    manifest = ingest(manifest_path)
    cache = FeatureCache(root / "cache")
    featurize_all(manifest, FUSION, cache)
    elapsed = time.monotonic() - start
    return manifest, cache, elapsed


def test_c1_feature_dimensions(capfd):
    rng = np.random.default_rng(101)
    sizes = [2, 3, 7, 64, 255, 256, 1000, 9_999, 10_000, 50_000]
    sizes += [int(v) for v in rng.integers(2, 200_000, 40)]
    bad = []
    for n in sizes:
        data = ByteStream(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
        for kind in STATIC_KINDS:
            vec = compute_feature(kind, data)
            if vec.values.shape != (FIXED_DIMS[kind],) or vec.kind != kind:
                bad.append((n, kind, vec.values.shape))
    # dynamic features size with the vocabulary they were built from
    for trial in range(5):
        reports = []
        for j in range(20):
            calls = [
                {"api": f"Api{int(rng.integers(0, 30))}", "status": int(rng.integers(0, 2))}
                for _ in range(int(rng.integers(1, 25)))
            ]
            raw = json.dumps({"behavior": calls}).encode()
            reports.append(parse_report(raw))
        counts = count_matrix(reports)
        vocab = build_api_vocabulary(counts)
        vecs = api_call_feature(counts[:4], vocab)
        if vecs.shape != (4, len(vocab)) or len(vocab) != len(set().union(*reports)):
            bad.append(("apicalls", trial, vecs.shape))
    verdict(
        capfd,
        "C1 feature-dimensions",
        not bad,
        f"{len(sizes)} random inputs x {len(STATIC_KINDS)} static kinds + 5 vocabularies"
        + (f"; mismatches: {bad[:3]}" if bad else ""),
    )


def test_c2_fuzzy_digest_equals_reference(capfd):
    rng = np.random.default_rng(202)
    inputs = [b"", b"\x00", b"a", b"\x00" * 4096, bytes(range(256)) * 16]
    for n in (6, 7, 8, 63, 64, 65, 127, 128, 3071, 3072, 12288, 12289, 65536):
        inputs.append(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
    while len(inputs) < 110:
        n = int(rng.integers(0, 65_537) ** 0.5) ** 2  # skew toward small sizes
        inputs.append(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
    start = time.monotonic()
    mismatches = 0
    for raw in inputs:
        if ssdeep_digest(raw).canonical != spamsum_reference(raw):
            mismatches += 1
    elapsed = time.monotonic() - start
    verdict(
        capfd,
        "C2 fuzzy-digest-reference",
        mismatches == 0 and elapsed < 30.0,
        f"{len(inputs)} inputs, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_c3_transforms_match_direct_oracles(capfd):
    rng = np.random.default_rng(303)
    problems = []

    # orthonormal 2-D DCT: library fast path vs summation oracle
    for _ in range(5):
        block = rng.standard_normal((8, 8))
        err = np.abs(dctn(block) - dct2_direct(block)).max()
        if err > 1e-9:
            problems.append(f"dct8 err {err:.2e}")
    big = rng.standard_normal((256, 256))
    err = np.abs(dctn(big) - dct2_direct(big)).max()
    dct_err = err
    if err > 1e-9:
        problems.append(f"dct256 err {err:.2e}")

    # single-frame spectrum power vs direct real DFT
    raw = rng.integers(0, 256, FRAME_LENGTH, dtype=np.uint8).tobytes()
    sig = byte_signal(raw)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(FRAME_LENGTH) / FRAME_LENGTH)
    direct = rdft_power_direct((sig - 128.0) / 128.0 * window)
    # projected onto the identity, which is exact, the blocked pass gives
    # the power spectrum itself
    fast = power_frames(sig, (np.eye(FRAME_LENGTH // 2 + 1),))[0][0]
    mel_rel = np.abs(fast - direct).max() / direct.max()
    if mel_rel > 1e-6:
        problems.append(f"frame power rel err {mel_rel:.2e}")

    # oriented-energy descriptor vs direct-DFT filtering, all 20 filters
    img = rng.random((64, 64))
    feat = gist(img)
    resamp = resample_area(img)
    spec = dft2_direct(resamp)
    expect = []
    for H in gabor_bank():
        resp = np.abs(idft2_direct(spec * H))
        for r in range(4):
            for c in range(4):
                expect.append(resp[r * 16 : (r + 1) * 16, c * 16 : (c + 1) * 16].mean())
    gist_rel = np.abs(feat - np.array(expect)).max() / feat.max()
    if gist_rel > 1e-6:
        problems.append(f"descriptor rel err {gist_rel:.2e}")

    # one filter again through the spatial circular-convolution route
    H = gabor_bank()[7]
    kernel = idft2_direct(H)
    conv = np.abs(circular_convolve_direct(resamp.astype(complex), kernel))
    fast_resp = np.abs(np.fft.ifft2(np.fft.fft2(resamp) * H))
    conv_rel = np.abs(conv - fast_resp).max() / fast_resp.max()
    if conv_rel > 1e-6:
        problems.append(f"conv route rel err {conv_rel:.2e}")

    verdict(
        capfd,
        "C3 transform-oracles",
        not problems,
        "; ".join(problems)
        if problems
        else f"dct {dct_err:.1e}, frame {mel_rel:.1e}, descriptor {gist_rel:.1e}, conv {conv_rel:.1e}",
    )


def test_c4_fused_detector_accuracy(capfd, corpus400):
    manifest, cache, setup_elapsed = corpus400
    start = time.monotonic()
    report = run_experiment(manifest, cache, ModelSpec("vec"), FUSION, seed=7)
    elapsed = setup_elapsed + (time.monotonic() - start)
    ok = (
        report.mean_accuracy >= 0.95
        and report.dims == 365
        and len(report.fold_accuracies) == 10
        and elapsed < 300.0
    )
    verdict(
        capfd,
        "C4 fused-detector",
        ok,
        f"400 samples, mean {report.mean_accuracy:.4f}, dims {report.dims}, "
        f"{len(report.fold_accuracies)} folds, {elapsed:.1f}s of 300s",
    )


def test_c5_disarm_rewrites(capfd, corpus400):
    manifest, _, _ = corpus400
    problems = []
    rewritten = 0
    for row in manifest.rows:
        data = ByteStream.from_file(row.path)
        out1, rep1 = disarm_method1(data)
        back, _ = disarm_method1(out1)
        if back.data != data.data:
            problems.append(f"{row.path.name}: not an involution")
        if len(out1.data) != len(data.data):
            problems.append(f"{row.path.name}: method 1 changed length")
        out2, rep2 = disarm_method2(data)
        if len(out2.data) != len(data.data) + 9 * len(rep2.replacements):
            problems.append(f"{row.path.name}: method 2 length off")
        for out, rep in ((out1, rep1), (out2, rep2)):
            counts = count_keywords(normalize_names(out.data))
            leftover = {t: counts[t] for t in TARGET_TAGS if counts[t]}
            if leftover:
                problems.append(f"{row.path.name}: targets survive {leftover}")
            changed = hashlib.sha256(out.data).hexdigest() != data.sha256
            if changed != bool(rep.replacements):
                problems.append(f"{row.path.name}: hash/replacement mismatch")
        if rep1.replacements:
            rewritten += 1
        if row.label == "malware" and not rep1.replacements:
            problems.append(f"{row.path.name}: malware had nothing to rewrite")
    verdict(
        capfd,
        "C5 disarm-rewrites",
        not problems,
        f"{len(manifest.rows)} files, {rewritten} rewritten"
        + (f"; {problems[:3]}" if problems else ""),
    )


def test_c6_predictions_stable_under_disarm(capfd, corpus400):
    manifest, cache, _ = corpus400
    matrix = np.hstack(
        [np.vstack([cache.get(r.sha256, k) for r in manifest.rows]) for k in FUSION]
    )
    labels = np.array([LABELS[r.label] for r in manifest.rows])
    scaler = FeatureScaler.fit(matrix)
    model = train_model(
        ModelSpec("vec"), LabeledSet(scaler.transform(matrix), labels, "fused"), seed=7
    )
    disarmed_rows = []
    for row in manifest.rows:
        out, _ = disarm_method1(ByteStream.from_file(row.path))
        disarmed_rows.append(
            np.concatenate([compute_feature(k, out).values for k in FUSION])
        )
    before, _ = predict_batch(model, scaler.transform(matrix))
    after, _ = predict_batch(model, scaler.transform(np.vstack(disarmed_rows)))
    agreement = float((before == after).mean())
    verdict(
        capfd,
        "C6 disarm-prediction-stability",
        agreement >= 0.99,
        f"agreement {agreement:.4f} over {len(manifest.rows)} files",
    )


def test_c7_end_to_end_determinism(capfd, tmp_path):
    kinds = ["structural", "ssdeep", "mfcc"]
    artifacts = []
    for run in ("one", "two"):
        base = tmp_path / run
        manifest = ingest(make_corpus(base / "corpus", n_total=60, seed=31))
        cache = FeatureCache(base / "cache")
        featurize_all(manifest, kinds, cache)
        report = run_experiment(manifest, cache, ModelSpec("rf", n_trees=25), ["structural"], seed=5)
        matrix = np.hstack(
            [np.vstack([cache.get(r.sha256, k) for r in manifest.rows]) for k in kinds]
        )
        labels = np.array([LABELS[r.label] for r in manifest.rows])
        model = train_model(ModelSpec("vec"), LabeledSet(matrix, labels, "fused"), seed=5)
        save_model(model, base / "model.txt")
        artifacts.append(
            {
                "pdfs": [Path(r.path).read_bytes() for r in manifest.rows],
                "cache": {k: (base / "cache" / f"{k}.tsv").read_bytes() for k in kinds},
                "model": (base / "model.txt").read_bytes(),
                "csv": emit_report([report], "csv").data,
            }
        )
    a, b = artifacts
    same = {
        "corpus": a["pdfs"] == b["pdfs"],
        "cache": a["cache"] == b["cache"],
        "model": a["model"] == b["model"],
        "report": a["csv"] == b["csv"],
    }
    verdict(
        capfd,
        "C7 end-to-end-determinism",
        all(same.values()),
        ", ".join(f"{k} {'=' if v else '!='}" for k, v in same.items()),
    )


def test_c8_fold_hygiene(capfd):
    rng = np.random.default_rng(808)
    problems = []
    for trial in range(20):
        n = int(rng.integers(40, 160))
        d = int(rng.integers(3, 10))
        x = rng.standard_normal((n, d))
        y = rng.integers(0, 2, n)
        y[: 15] = 0
        y[-15:] = 1  # both classes always present in force
        folds = 5 if n < 80 else 10
        fold_idx = stratified_folds(y, folds, seed=trial)

        # partition and balance
        joined = np.concatenate(fold_idx)
        if sorted(joined.tolist()) != list(range(n)):
            problems.append(f"trial {trial}: folds are not a partition")
        for cls in (0, 1):
            per_fold = [int((y[f] == cls).sum()) for f in fold_idx]
            if max(per_fold) - min(per_fold) > 1:
                problems.append(f"trial {trial}: class {cls} imbalance {per_fold}")

        # harness accuracies equal a loop that provably fits on train rows only
        spec = ModelSpec("knn", k=3)
        slicer = lambda train_idx, test_idx: (x[train_idx], x[test_idx])
        got = cross_validate_builder(y, slicer, spec, "t", folds=folds, seed=trial)
        manual = []
        for f, test_idx in enumerate(fold_idx):
            train_idx = np.sort(
                np.concatenate([fold_idx[g] for g in range(folds) if g != f])
            )
            scaler = FeatureScaler.fit(x[train_idx])
            model = train_model(
                spec,
                LabeledSet(scaler.transform(x[train_idx]), y[train_idx], "t"),
                seed=_fold_seed(trial, f),
            )
            predicted, _ = predict_batch(model, scaler.transform(x[test_idx]))
            manual.append(accuracy(predicted, y[test_idx]))
        if tuple(manual) != got.fold_accuracies:
            problems.append(f"trial {trial}: harness differs from train-only loop")
    verdict(
        capfd,
        "C8 fold-hygiene",
        not problems,
        "20 datasets, balance within 1, harness equals train-only refit"
        + (f"; {problems[:3]}" if problems else ""),
    )
