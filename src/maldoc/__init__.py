"""PDF malware featurization, detection, and disarming.

Static featurizers read raw bytes (no parsing, no decompression), a dynamic
featurizer reads saved sandbox call reports, simple deterministic
classifiers score them under stratified cross-validation, and two rewrite
methods neutralize risky name tags in place.

The package re-exports the entry points; the stages behind them (renderings,
signals, models, the cross-validation engine) live in the submodules.
"""

import os as _os
import sys as _sys

# maldoc owns its parallelism: featurize_all runs one sample per CPU and
# core.split_work shares a large sample's spectra among the CPUs, so BLAS
# threads on top would oversubscribe them and make the mel, chroma and
# resampling projections' last bits depend on the core count.  Pin the BLAS
# pools to one thread unless numpy is already loaded (its BLAS has read the
# variables) or the user chose a thread count; OMP_NUM_THREADS is never set.
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
if "numpy" not in _sys.modules and not any(
    var in _os.environ for var in (*_BLAS_THREAD_VARS, "OMP_NUM_THREADS")
):
    _os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))

from .core import ByteStream, DataError, FeatureVector
from .tokenizer import RISKY_TAGS, count_keywords, normalize_names, structural_feature
from .image import bigram_dct_image, byteplot_image, byteplot_width, gist
from .ctph import hash_feature, ssdeep_digest
from .ml import ModelSpec
from .disarm import disarm_method1, disarm_method2, render_report
from .pipeline import (
    FeatureCache,
    compute_feature,
    compute_features,
    emit_report,
    featurize_all,
    ingest,
    parse_report_csv,
    run_experiment,
)
from .synth import make_corpus

__version__ = "0.1.0"
