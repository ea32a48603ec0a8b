"""Synthetic-speech detection with multi-order GMM log-probability features
and grouped 1-d residual network ensembles."""

from .corpus import (
    AudioClip,
    Manifest,
    UtteranceLabel,
    build_manifest,
    label_index,
    parse_protocol,
    read_wav,
    serialize_protocol,
)
from .errors import (
    ConfigError,
    FormatError,
    LgpnetError,
    ManifestError,
    ProtocolError,
    ShapeError,
    UnsupportedAudioError,
)
from .evaluation import (
    EerResult,
    ScoreRecord,
    compute_eer,
    compute_eer_records,
    score_file_read,
    score_file_write,
)
from .gmm import (
    EmConfig,
    Gmm,
    binary_split,
    em_fit,
    lgp_transform,
    load_gmm,
    log_likelihood,
    save_gmm,
    train_by_splitting,
)
from .lfcc import (
    FeatureMatrix,
    LfccConfig,
    fix_length,
    frame_and_window,
    lfcc_extract,
    linear_filterbank,
    power_spectrum,
)
from .model import (
    GroupedResNetEnsemble,
    ModelCfg,
    ResidualBlockCfg,
    build_model,
    ensemble_logits,
    load_checkpoint,
    save_checkpoint,
    score,
)
from .multiscale import (
    FrameBatch,
    GmmBank,
    GroupAssignment,
    GroupLgp,
    ManifestFrames,
    extract_multiscale_lgp,
    lineage_grouping,
    load_bank,
    random_grouping,
    save_bank,
    utterance_lgp,
)
from .tensor import (
    BatchNormState,
    Tensor,
    aggregate,
    aggregate_backward,
    batchnorm1d,
    batchnorm1d_backward,
    conv1d,
    conv1d_backward,
    linear,
    linear_backward,
    max_pool_time,
    max_pool_time_backward,
)
from .training import (
    AdamState,
    TrainConfig,
    adam_step,
    ensemble_aware_loss,
    evaluate_loss,
    predict_logits,
    reduce_on_plateau,
    train,
)

__version__ = "0.1.0"
