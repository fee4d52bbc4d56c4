"""Model-based semi-supervised classification for API-call behavior vectors.

The package fits finite Gaussian mixtures to labeled plus unlabeled binary
feature vectors by conditional expectation-maximization, selects the
covariance family by BIC, and ships baseline classifiers (kNN, LDA), an
evaluation harness (cross-validation, detection-rate sweeps, ROC/AUC, PCA
export), a synthetic-data oracle and a CLI pipeline.
"""

__version__ = "0.1.0"

from .baselines import (
    AmbiguousTie,
    KnnModel,
    LdaModel,
    knn_predict_all,
    lda_fit,
    lda_predict_all,
)
from .cem import CemConfig, FitResult, cm_step, e_step, fit, initialize, predict
from .dataset import (
    ApiVocabulary,
    Dataset,
    ParseResult,
    build_vocabulary,
    parse_log,
    stratified_folds,
)
from .errors import DataFormatError, MbssError, SingularCovarianceError
from .evaluation import (
    ConfusionCounts,
    DrRow,
    EvalReport,
    cross_validate,
    detection_rate,
    pca_project,
    roc_auc,
)
from .gmm import (
    FAMILIES,
    ComponentParams,
    MixtureModel,
    complete_log_likelihood,
    load_model,
    log_density,
    log_responsibilities,
    observed_log_likelihood,
    parameter_count,
    save_model,
)
from .model_select import ModelScore, bic, select_model
from .synth import SynthSpec, binarize, sample_mixture, two_class_spec

__all__ = [
    "__version__",
    "AmbiguousTie",
    "ApiVocabulary",
    "CemConfig",
    "ComponentParams",
    "ConfusionCounts",
    "Dataset",
    "DataFormatError",
    "DrRow",
    "EvalReport",
    "FAMILIES",
    "FitResult",
    "KnnModel",
    "LdaModel",
    "MbssError",
    "MixtureModel",
    "ModelScore",
    "ParseResult",
    "SingularCovarianceError",
    "SynthSpec",
    "bic",
    "binarize",
    "build_vocabulary",
    "cm_step",
    "complete_log_likelihood",
    "cross_validate",
    "detection_rate",
    "e_step",
    "fit",
    "initialize",
    "knn_predict_all",
    "lda_fit",
    "lda_predict_all",
    "load_model",
    "log_density",
    "log_responsibilities",
    "observed_log_likelihood",
    "parameter_count",
    "parse_log",
    "pca_project",
    "predict",
    "roc_auc",
    "sample_mixture",
    "save_model",
    "select_model",
    "stratified_folds",
    "two_class_spec",
]
