"""Self-test of the benchmark at reduced size.

    python3 bench/selftest.py

Every workload, traced and untraced, must emit exactly the metrics that
BENCHMARK.json lists, each with a unit, and a non-zero value for the
layers its timed phase calls; the traced run's spans must cover its timed
phase.  A clean run must fail nothing, and a corrupted output must be
counted as a failure.
"""

import unittest

import run  # noqa: F401  pins the thread pools and imports maldoc from this checkout
import harness
import workloads

SMALL = workloads.Scale(corpus=40, docs=6, doc_min=8 * 1024, doc_max=64 * 1024)
SEED = 5

# metrics that must be non-zero on a workload, because its timed phase does that work
APPLIES = {
    "featurize-cold": (
        "ctph.ssdeep_digest.self_s",
        "image.gist.self_s",
        "image.resample_area.self_s",
        "audio.power_frames.calls",
        "tokenizer.normalize_names.self_s",
        "pipeline.FeatureCache.save.self_s",
        "pipeline.cache.bytes_written",
        "synth.make_corpus.self_s",
    ),
    "cv-warm": (
        "ml.train_rf.self_s",
        "ml.train_rf.nodes",
        "ml.predict_batch.rows",
        "pipeline.FeatureCache.get.self_s",
        "pipeline.cache.bytes_read",
        "pipeline.cache.hit_ratio",
        "dynamic.parse_report.self_s",
        "cv.exp_s.vec-fusion",
        "cv.exp_s.rf-byteplot",
        "cv.exp_s.knn-byteplot",
        "cv.exp_s.rf-apicalls",
    ),
    "scan-large": (
        "core.ByteStream.from_file.self_s",
        "tokenizer.normalize_names.self_s",
        "image.bigram_counts.self_s",
        "audio.power_frames.self_s",
        "disarm.disarm_method1.self_s",
        "disarm.replacements",
        "scan.doc_ms_p50",
        "scan.doc_ms_p90",
    ),
}


def _run(name, trace, references=None, before_check=None):
    return harness.run_workload(
        name, SEED, 0.0, trace, SMALL, references if references is not None else {}, before_check
    )


class MetricsEmitted(unittest.TestCase):
    def test_every_metric_has_a_unit_and_a_value(self):
        for trace in (False, True):
            units = harness.metric_units(trace)
            self.assertTrue(all(units.values()))
            for name in workloads.WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    run = _run(name, trace)
                    self.assertEqual(run.checker.failed, 0, run.checker.problems)
                    self.assertGreaterEqual(run.checker.attempted, 1)
                    self.assertEqual(set(run.metrics), set(units))
                    if trace:
                        for metric in APPLIES[name]:
                            self.assertGreater(run.metrics[metric], 0, metric)
                        # the spans cover the timed phase
                        unattributed = run.metrics["trace.unattributed_s"]
                        self.assertLess(unattributed, 0.05 * run.extra["traced_wall_s"])
                    else:
                        self.assertTrue(all(v > 0 for v in run.metrics.values()))


class CorruptionCounted(unittest.TestCase):
    def test_flipped_cache_byte_fails_the_run(self):
        name = "featurize-cold"
        digests = _run(name, False).checker.first
        references = {str(SEED): {name: digests}}
        clean = _run(name, False, references).checker
        self.assertEqual(clean.failed, 0, clean.problems)

        def flip_one_byte(output):
            table = output.cache_dir / "structural.tsv"
            data = bytearray(table.read_bytes())
            data[len(data) // 2] ^= 0x01
            table.write_bytes(bytes(data))

        corrupted = _run(name, False, references, flip_one_byte).checker
        self.assertGreater(corrupted.failed / corrupted.attempted, 0)


if __name__ == "__main__":
    unittest.main()
