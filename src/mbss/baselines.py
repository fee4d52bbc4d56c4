"""Reference classifiers: k-nearest neighbor and linear discriminant analysis.

kNN distance on binary vectors is squared Euclidean, which equals the
Hamming count and is integer-exact. Vote ties are a first-class outcome
(``TIE_LABEL``, 0, outside the classes 1..K) rather than an arbitrary
pick, and the evaluation harness tallies them separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmm


# The label of a prediction with no unique winner; classes are 1..K.
TIE_LABEL = 0


@dataclass
class KnnModel:
    features: np.ndarray
    labels: np.ndarray
    k: int = 3

    def __post_init__(self) -> None:
        self.features = np.atleast_2d(np.asarray(self.features, dtype=np.float64))
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if self.features.shape[0] == 0:
            raise ValueError("training set must be non-empty")
        if self.labels.shape[0] != self.features.shape[0]:
            raise ValueError("one label per training row required")
        if not 1 <= self.k <= self.features.shape[0]:
            raise ValueError(f"k must be in 1..{self.features.shape[0]}")


def knn_predict_all(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """Per row, the majority label among the k nearest training points, or
    ``TIE_LABEL`` when the vote has no unique winner.

    Distance ties at the k-th neighbor include every equidistant point in
    the vote.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.features.shape[1]:
        raise ValueError(
            f"expected dimension {model.features.shape[1]}, got {X.shape[1]}"
        )
    out = np.empty(X.shape[0], dtype=np.int64)
    for i, x in enumerate(X):
        d2 = np.sum((model.features - x) ** 2, axis=1)
        kth = np.partition(d2, model.k - 1)[model.k - 1]
        votes = np.bincount(model.labels[d2 <= kth])
        winners = np.flatnonzero(votes == votes.max())
        out[i] = winners[0] if winners.size == 1 else TIE_LABEL
    return out


@dataclass
class LdaModel:
    """Linear discriminant classifier read off an EEE mixture.

    score_k(x) = x^T Sigma^-1 mu_k - mu_k^T Sigma^-1 mu_k / 2 + log w_k, with
    Sigma^-1 = W^T W from the shared inverse Cholesky factor of the mixture.
    """

    mixture: gmm.MixtureModel
    _coef: np.ndarray = field(init=False, repr=False)
    _intercept: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.mixture.family != "EEE":
            raise ValueError(f"LDA needs an EEE mixture, got {self.mixture.family}")
        means = np.array([c.mean for c in self.mixture.components])
        W = self.mixture.components[0].inv_cholesky
        self._coef = W.T @ (W @ means.T)
        log_priors = np.log(self.mixture.weights)
        self._intercept = -0.5 * np.sum(means.T * self._coef, axis=0) + log_priors

    @property
    def K(self) -> int:
        return self.mixture.K

    @property
    def d(self) -> int:
        return self.mixture.d


def lda_fit(features: np.ndarray, labels: np.ndarray, regularization: float = 1e-6) -> LdaModel:
    """Fit class means, priors and the pooled within-class covariance.

    The model is ``gmm.estimate`` of the class statistics under EEE, the
    shared-full-covariance mixture estimator with its trace-scaled ridge,
    so its decisions coincide with a discriminant-analysis mixture
    initialization.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError("one label per row required")
    if y.size == 0 or y.min() < 1:
        raise ValueError("labels must be positive integers")
    stats = gmm.class_stats(X, y, int(y.max()), "EEE")
    if stats[0].min() < 2:
        raise ValueError("every class needs at least 2 samples")
    return LdaModel(gmm.estimate(stats, "EEE", regularization))


def lda_predict_all(model: LdaModel, X: np.ndarray):
    """Labels (argmax score, lowest index on ties) and the score matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.empty((0, model.K))
    if X.shape[1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {X.shape[1]}")
    scores = X @ model._coef + model._intercept
    return np.argmax(scores, axis=1).astype(np.int64) + 1, scores

