"""Reference classifiers: k-nearest neighbor and linear discriminant analysis.

kNN distance on binary vectors is squared Euclidean, which equals the
Hamming count and is integer-exact. Vote ties are a first-class outcome
(``AmbiguousTie``) rather than an arbitrary pick, and the evaluation
harness tallies them separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import gmm


@dataclass(frozen=True)
class AmbiguousTie:
    """Returned when the neighbor vote has no unique winner."""


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


def knn_predict_all(model: KnnModel, X: np.ndarray) -> list:
    """Per row, the majority label among the k nearest training points, or
    AmbiguousTie.

    Distance ties at the k-th neighbor include every equidistant point in
    the vote.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        return []
    if X.shape[1] != model.features.shape[1]:
        raise ValueError(
            f"expected dimension {model.features.shape[1]}, got {X.shape[1]}"
        )
    out = []
    for x in X:
        d2 = np.sum((model.features - x) ** 2, axis=1)
        kth = np.partition(d2, model.k - 1)[model.k - 1]
        votes = np.bincount(model.labels[d2 <= kth])
        winners = np.flatnonzero(votes == votes.max())
        out.append(int(winners[0]) if winners.size == 1 else AmbiguousTie())
    return out


@dataclass
class LdaModel:
    """Linear discriminant classifier with a pooled within-class covariance."""

    means: np.ndarray
    pooled_covariance: np.ndarray
    log_priors: np.ndarray
    _coef: np.ndarray = field(init=False, repr=False)
    _intercept: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.log_priors = np.asarray(self.log_priors, dtype=np.float64).reshape(-1)
        comp = gmm.ComponentParams(self.means[0], self.pooled_covariance)
        self.pooled_covariance = comp.covariance
        # score_k(x) = x^T Sigma^-1 mu_k - mu_k^T Sigma^-1 mu_k / 2 + log pi_k,
        # with Sigma^-1 = W^T W from the component's inverse Cholesky factor
        W = comp.inv_cholesky
        coef = W.T @ (W @ self.means.T)
        self._coef = coef
        self._intercept = -0.5 * np.sum(self.means.T * coef, axis=0) + self.log_priors

    @property
    def K(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


def lda_fit(features: np.ndarray, labels: np.ndarray, regularization: float = 1e-6) -> LdaModel:
    """Fit class means, priors and the pooled within-class covariance.

    The pooled estimate is the shared-full-covariance mixture estimator
    (summed class scatters over n) followed by the same trace-scaled ridge
    the mixture module applies, so its decisions coincide with a
    discriminant-analysis mixture initialization.
    """
    X = np.atleast_2d(np.asarray(features, dtype=np.float64))
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError("one label per row required")
    if y.size == 0 or y.min() < 1:
        raise ValueError("labels must be positive integers")
    n = X.shape[0]
    counts, means, scatters = gmm.class_stats(X, y, int(y.max()), "EEE")
    if counts.min() < 2:
        raise ValueError("every class needs at least 2 samples")
    pooled = gmm.estimate_family_covariances("EEE", scatters, counts, n)[0]
    regularized = gmm.make_component(means[0], pooled, regularization).covariance
    return LdaModel(means, regularized, np.log(counts / n))


def lda_predict_all(model: LdaModel, X: np.ndarray):
    """Labels (argmax score, lowest index on ties) and the score matrix."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.empty((0, model.K))
    if X.shape[1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {X.shape[1]}")
    scores = X @ model._coef + model._intercept
    return np.argmax(scores, axis=1).astype(np.int64) + 1, scores

