"""PDF malware featurization, detection, and disarming.

Static featurizers read raw bytes (no parsing, no decompression), a dynamic
featurizer reads saved sandbox call reports, simple deterministic
classifiers score them under stratified cross-validation, and two rewrite
methods neutralize risky name tags in place.

The package re-exports the entry points; the stages behind them (renderings,
signals, models, the cross-validation engine) live in the submodules.
"""

from .core import ByteStream, DataError, FeatureVector
from .tokenizer import RISKY_TAGS, count_keywords, iter_names, normalize_names, structural_feature
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
