"""PDF malware featurization, detection, and disarming.

Static featurizers read raw bytes (no parsing, no decompression), a dynamic
featurizer reads saved sandbox call reports, simple deterministic
classifiers score them under stratified cross-validation, and two rewrite
methods neutralize risky name tags in place.
"""

from .core import ByteStream, DataError, FeatureVector, FIXED_DIMS, MaldocError, sha256_hex
from .tokenizer import (
    KeywordCounts,
    RISKY_TAGS,
    count_keywords,
    iter_names,
    keyword_feature,
    normalize_names,
    structural_feature,
)
from .image import (
    GrayImage,
    bigram_counts,
    bigram_dct_image,
    byteplot_image,
    byteplot_width,
    dct_image_from_counts,
    gabor_bank,
    gist,
    resample_area,
)
from .audio import AudioSignal, byte_signal, chroma, mel_filterbank, melspectrogram, mfcc
from .ctph import FuzzyHash, hash_feature, ssdeep_digest
from .dynamic import (
    ApiReport,
    ApiVocabulary,
    ReportParseError,
    api_call_feature,
    build_api_vocabulary,
    parse_report,
)
from .ml import (
    CvReport,
    FeatureScaler,
    KnnModel,
    LabeledSet,
    ModelSpec,
    RfModel,
    VecModel,
    accuracy,
    cross_validate,
    cross_validate_builder,
    load_model,
    predict_batch,
    save_model,
    stratified_folds,
    train_knn,
    train_model,
    train_rf,
    train_vec,
)
from .disarm import (
    DisarmReport,
    Replacement,
    TARGET_TAGS,
    disarm_method1,
    disarm_method2,
    render_report,
)
from .pipeline import (
    DatasetManifest,
    FeatureCache,
    FeaturizeResult,
    ManifestRow,
    compute_feature,
    compute_features,
    emit_report,
    featurize_all,
    ingest,
    parse_report_csv,
    run_experiment,
)
from .synth import benign_pdf, make_corpus, malicious_pdf

__version__ = "0.1.0"
