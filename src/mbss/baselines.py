"""Reference classifiers: k-nearest neighbor and linear discriminant analysis.

kNN distance is squared Euclidean, which on binary vectors equals the
Hamming count. A product of the query and training blocks finds each
query's candidate neighbors, and the candidates' distances are then
summed directly, so neighbor sets and distance ties do not depend on
rounding in the product. Vote ties are a first-class outcome
(``TIE_LABEL``, 0, outside the classes 1..K) rather than an arbitrary
pick, and the evaluation harness tallies them separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import cem, gmm


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


# Entries of a query block's distance matrix, and of each batch of
# candidate differences: the working memory of ``knn_predict_all``.
KNN_BLOCK = 1 << 16


def knn_predict_all(model: KnnModel, X: np.ndarray) -> np.ndarray:
    """Per row, the majority label among the k nearest training points, or
    ``TIE_LABEL`` when the vote has no unique winner.

    Distance ties at the k-th neighbor include every equidistant point in
    the vote. Distances are d2(x, f) = sum((f - x)^2), summed row by row as
    written.

    Queries go in blocks whose distance matrix has about ``KNN_BLOCK``
    entries. One product per block gives a = |x|^2 + |f|^2 - 2 x.f, and
    only the training rows with a <= a_k + 2 delta, a_k being the query's
    k-th smallest a, get d2. Why that is enough: with unit roundoff
    u = eps/2 and d u << 1, a computed sum of d products is within d u
    times the sum of their magnitudes of the exact sum, in any order
    (Higham, Accuracy and Stability of Numerical Algorithms, 3.1). So
    |x|^2 and |f|^2 are off by at most d u |x|^2 and d u |f|^2, 2 x.f by at
    most 2 d u sum|x_i f_i| <= d u (|x|^2 + |f|^2), and the sum and the
    difference add at most 4 u (|x|^2 + |f|^2): a is within
    (2d + 4) u (|x|^2 + |f|^2) of the exact distance D. d2 rounds each
    difference and square and then sums d nonnegative terms, so it is
    within (d + 2) u D <= (2d + 4) u (|x|^2 + |f|^2) of D. Hence
    |a - d2| <= (2d + 4) eps (|x|^2 + |f|^2) <= delta, where
    delta = 4 (d + 4) eps (|x|^2 + max |f|^2) keeps a factor of two
    spare. The k-th smallest a and the k-th smallest d2, T, then differ
    by at most delta, so every row with d2 <= T has a <= a_k + 2 delta:
    the candidates hold the k nearest rows and every row tied with the
    k-th, and the vote on their d2 is the vote on all rows' d2.

    Queries of another dtype (``bool`` 0/1 rows among them) are read into
    float64 a block at a time, so no float64 copy of X is made.
    """
    X = np.atleast_2d(np.asarray(X))
    F, labels, k = model.features, model.labels, model.k
    n, d = F.shape
    if X.shape[1] != d:
        raise ValueError(f"expected dimension {d}, got {X.shape[1]}")
    f_sq = np.einsum("ij,ij->i", F, F)
    tolerance, f_max = 8.0 * (d + 4) * np.finfo(np.float64).eps, f_sq.max(initial=0.0)
    width = int(labels.max()) + 1
    out = np.empty(X.shape[0], dtype=np.int64)
    step = max(1, KNN_BLOCK // n)
    for lo in range(0, X.shape[0], step):
        Q = X[lo : lo + step].astype(np.float64, copy=False)
        q_sq = np.einsum("ij,ij->i", Q, Q)
        approx = q_sq[:, None] + f_sq - 2.0 * (Q @ F.T)
        slack = tolerance * (q_sq + f_max)
        cut = np.partition(approx, k - 1, axis=1)[:, k - 1] + slack
        rows, cols = np.nonzero(approx <= cut[:, None])
        d2 = np.empty(len(rows))
        batch = max(1, KNN_BLOCK // d)
        for s in range(0, len(rows), batch):
            r, c = rows[s : s + batch], cols[s : s + batch]
            d2[s : s + batch] = np.sum((F[c] - Q[r]) ** 2, axis=1)
        # each row's k-th smallest d2 among its candidates (rows come sorted)
        order = np.lexsort((d2, rows))
        first = np.searchsorted(rows, np.arange(len(Q)))
        near = d2 <= d2[order[first + k - 1]][rows]
        votes = np.bincount(
            rows[near] * width + labels[cols[near]], minlength=len(Q) * width
        ).reshape(len(Q), width)
        unique = np.sum(votes == votes.max(axis=1, keepdims=True), axis=1) == 1
        out[lo : lo + step] = np.where(unique, votes.argmax(axis=1), TIE_LABEL)
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
        means = self.mixture.means
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


def lda_fit(features: np.ndarray, labels: np.ndarray) -> LdaModel:
    """Fit class means, priors and the pooled within-class covariance.

    The model is ``cem.initialize``'s EEE start on these rows, as given:
    the discriminant-analysis mixture initialization, with its
    trace-scaled ridge and its check of at least 2 rows per class. ``bool``
    rows take their statistics from exact moments, as a fit's do.
    """
    X = np.atleast_2d(np.asarray(features))
    y = np.asarray(labels, dtype=np.int64).reshape(-1)
    if X.shape[0] != y.shape[0]:
        raise ValueError("one label per row required")
    if y.size == 0 or y.min() < 1:
        raise ValueError("labels must be positive integers")
    return LdaModel(cem.initialize(X, y, int(y.max()), cem.CemConfig(family="EEE")).model)


def lda_predict_all(model: LdaModel, X: np.ndarray):
    """Labels (argmax score, lowest index on ties) and the score matrix.

    Rows are scored ``gmm.ROW_BLOCK // d`` at a time, each block read into
    float64, so no float64 copy of ``bool`` rows is made.
    """
    X = np.atleast_2d(np.asarray(X))
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.empty((0, model.K))
    if X.shape[1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {X.shape[1]}")
    scores = np.empty((X.shape[0], model.K))
    step = max(1, gmm.ROW_BLOCK // model.d)
    for start in range(0, X.shape[0], step):
        rows = X[start:start + step].astype(np.float64, copy=False)
        scores[start:start + step] = rows @ model._coef + model._intercept
    return np.argmax(scores, axis=1).astype(np.int64) + 1, scores

