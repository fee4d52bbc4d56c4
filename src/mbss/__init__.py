"""Model-based semi-supervised classification for API-call behavior vectors.

The package fits finite Gaussian mixtures to labeled plus unlabeled binary
feature vectors by conditional expectation-maximization, selects the
covariance family by BIC, and ships baseline classifiers (kNN, LDA), an
evaluation harness (cross-validation, detection-rate sweeps, ROC/AUC, PCA
export), a synthetic-data oracle and a CLI pipeline.
"""

__version__ = "0.1.0"

from .cem import CemConfig, fit, initialize, predict
from .model_select import select_model
from .synth import sample_mixture, two_class_spec
