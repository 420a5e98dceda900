"""In-memory span recorder that wraps maldoc's layer functions in place.

The traced run installs a wrapper around each function in ``LAYERS`` at every
attribute that binds it: the defining module, any ``maldoc`` module that
imported it by name (``pipeline`` binds ``ssdeep_digest`` and
``cross_validate_builder`` directly), and the package itself.  Calls that go
through module globals (``gist`` -> ``resample_area``, ``mfcc`` ->
``power_frames``) therefore land in a span too.  Methods are wrapped once on
their class.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span, or -1.  Nothing is written while spans are recorded.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

# (module, attribute) of every timed layer; a dotted attribute is a method
LAYERS = (
    ("core", "ByteStream.from_file"),
    ("pipeline", "ingest"),
    ("pipeline", "featurize_all"),
    ("pipeline", "run_experiment"),
    ("pipeline", "FeatureCache.get"),
    ("pipeline", "FeatureCache.save"),
    ("tokenizer", "normalize_names"),
    ("tokenizer", "count_keywords"),
    ("tokenizer", "structural_feature"),
    ("image", "byteplot_image"),
    ("image", "bigram_counts"),
    ("image", "dct_image_from_counts"),
    ("image", "resample_area"),
    ("image", "gist"),
    ("audio", "byte_signal"),
    ("audio", "power_frames"),
    ("audio", "mfcc"),
    ("audio", "chroma"),
    ("audio", "melspectrogram"),
    ("ctph", "ssdeep_digest"),
    ("ctph", "hash_feature"),
    ("ml", "train_rf"),
    ("ml", "train_knn"),
    ("ml", "predict_batch"),
    ("ml", "FeatureScaler.fit"),
    ("ml", "FeatureScaler.transform"),
    ("ml", "cross_validate_builder"),
    ("dynamic", "parse_report"),
    ("dynamic", "build_api_vocabulary"),
    ("dynamic", "api_call_feature"),
    ("disarm", "disarm_method1"),
    ("synth", "make_corpus"),
)

LAYER_NAMES = tuple(f"{module}.{attr}" for module, attr in LAYERS)

# layers whose call count is reported beside their self time
COUNTED_CALLS = ("audio.byte_signal", "audio.power_frames")


class Tracer:
    """Records spans and result-derived counters while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._loaded: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._hooks = {
            "ml.train_rf": self._count_nodes,
            "ml.predict_batch": self._count_rows,
            "disarm.disarm_method1": self._count_replacements,
            "pipeline.FeatureCache.get": self._count_cache_get,
            "pipeline.FeatureCache.save": self._count_cache_save,
        }

    def drain(self) -> tuple[list[list], Counter]:
        """Hand over what was recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if hook is not None:
                hook(args, kwargs, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    # counters, fed from each call's arguments and result

    def _count_nodes(self, args, kwargs, model, parent_name) -> None:
        self.counts["ml.train_rf.nodes"] += sum(int(t.feature.shape[0]) for t in model.trees)

    def _count_rows(self, args, kwargs, result, parent_name) -> None:
        # a vec model predicts through its constituents: count the outer call only
        if parent_name != "ml.predict_batch":
            self.counts["ml.predict_batch.rows"] += int(result[0].shape[0])

    def _count_replacements(self, args, kwargs, result, parent_name) -> None:
        self.counts["disarm.replacements"] += len(result[1].replacements)

    def _count_cache_get(self, args, kwargs, result, parent_name) -> None:
        cache = args[0]
        kind = args[2] if len(args) > 2 else kwargs["kind"]
        self.counts["pipeline.cache.gets"] += 1
        self.counts["pipeline.cache.hits"] += result is not None
        loaded = self._loaded.setdefault(cache, set())
        if kind not in loaded:  # the first get of a kind loads its table
            loaded.add(kind)
            table = Path(cache.directory) / f"{kind}.tsv"
            if table.exists():
                self.counts["pipeline.cache.bytes_read"] += table.stat().st_size

    def _count_cache_save(self, args, kwargs, result, parent_name) -> None:
        cache = args[0]
        kind = args[1] if len(args) > 1 else kwargs["kind"]
        table = Path(cache.directory) / f"{kind}.tsv"
        self.counts["pipeline.cache.bytes_written"] += table.stat().st_size

    @contextmanager
    def installed(self):
        """Wrap every layer for the duration of the block, then restore."""
        patches: list[tuple[object, str, object]] = []
        try:
            for module_name, attr in LAYERS:
                name = f"{module_name}.{attr}"
                module = importlib.import_module(f"maldoc.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__))
                    else:
                        wrapped = self._wrap(name, raw)
                    patches.append((cls, method, raw))
                    setattr(cls, method, wrapped)
                    continue
                fn = getattr(module, attr)
                wrapped = self._wrap(name, fn)
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (mod_name == "maldoc" or mod_name.startswith("maldoc.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            patches.append((mod, key, fn))
                            setattr(mod, key, wrapped)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: total duration minus the duration of its child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def top_level_s(spans: list[list]) -> float:
    return sum(end - start for _, start, end, parent in spans if parent < 0)


def layer_metrics(spans: list[list], counts: Counter) -> dict[str, float]:
    """Self time of every layer, plus call counts and result counters.

    Layers the spans never entered read 0.
    """
    own = self_times(spans)
    metrics = {f"{name}.self_s": own.get(name, 0.0) for name in LAYER_NAMES}
    calls = Counter(span[0] for span in spans)
    for name in COUNTED_CALLS:
        metrics[f"{name}.calls"] = calls[name]
    for key in (
        "ml.train_rf.nodes",
        "ml.predict_batch.rows",
        "disarm.replacements",
        "pipeline.cache.bytes_read",
        "pipeline.cache.bytes_written",
    ):
        metrics[key] = counts[key]
    gets = counts["pipeline.cache.gets"]
    metrics["pipeline.cache.hit_ratio"] = counts["pipeline.cache.hits"] / gets if gets else 0.0
    return metrics
