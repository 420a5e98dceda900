"""The benchmark's traced run binds to names in this package by string.

A refactor that renames or removes one of them would silently leave a
layer untimed, so every binding in ``bench/tracer.py`` is resolved here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from maldoc import ByteStream, FeatureVector, pipeline
from maldoc.core import STATIC_KINDS

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(tracer):
    assert tracer.LAYERS
    for module_name, attr in tracer.LAYERS:
        target = importlib.import_module(f"maldoc.{module_name}")
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_compute_feature_keeps_its_call_shape():
    assert list(inspect.signature(pipeline.compute_feature).parameters) == ["kind", "data"]
    vec = pipeline.compute_feature("structural", ByteStream(b"%PDF-1.4 /JS"))
    assert isinstance(vec, FeatureVector) and vec.kind == "structural"


def test_one_sample_computes_its_audio_spectrum_once(tracer):
    data = ByteStream(bytes(range(256)) * 40)
    recorder = tracer.Tracer()
    with recorder.installed():
        pipeline.compute_features(STATIC_KINDS, data)
    calls = [span[0] for span in recorder.spans]
    for name in tracer.COUNTED_CALLS:
        assert calls.count(name) == 1, name
    assert calls.count("audio.mfcc") == calls.count("audio.chroma") == 1
