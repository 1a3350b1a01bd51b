"""accent-forge: GMM-UBM accent classification pipeline.

Silence removal, normalized PLP-style cepstral features, PCA/HLDA
dimension reduction, an EM-trained universal background model with
MAP-adapted per-accent models, and a vowel-weighted ensemble classifier.
"""

from .adapt import AdaptConfig, adapt_all_accents, map_adapt
from .classify import (
    AccentModelSet,
    ClassificationResult,
    EvalReport,
    classify_baseline,
    classify_vowel_weighted,
    hellinger_gmm,
    vowel_discriminativeness,
    vowel_weights,
)
from .errors import (
    AccentForgeError,
    ConfigError,
    FormatError,
    LabelParseError,
    MissingPrerequisiteError,
    UnsupportedAudioError,
)
from .frontend import (
    FeatureMatrix,
    FrontendConfig,
    append_deltas,
    feature_warp,
    mvn,
    plp_static,
    read_feature_archive,
    write_feature_archive,
)
from .gmm import (
    DiagGmm,
    GmmStats,
    accumulate_stats,
    em_train,
    loglik,
    read_model,
    write_model,
)
from .pipeline import (
    CorpusManifest,
    PipelineConfig,
    SyntheticSpec,
    Workspace,
    corpus_stats,
    generate_synthetic_corpus,
    load_config,
    run_stage,
    split_corpus,
)
from .signal import (
    AudioBuffer,
    FramePlan,
    VadResult,
    frame_signal,
    read_wav,
    remove_silence,
)
from .transforms import (
    LinearTransform,
    apply_transform,
    fit_hlda,
    fit_pca,
)
from .vowels import (
    ARPABET_VOWELS,
    PhoneSegment,
    calibrate_threshold,
    filter_by_confidence,
    parse_label_file,
    pool_vowel_features,
    vowel_popularity,
)

__version__ = "0.1.0"
