"""Independent brute-force reference implementations used as test oracles.

Everything here deliberately uses explicit inverses, determinants and
direct-space products, the opposite of the production code paths, so
agreement between the two is meaningful.
"""

import numpy as np

from mbss import gmm


def direct_log_density(mean, cov, x):
    """Gaussian log-density via explicit inverse and determinant."""
    mean = np.asarray(mean, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    diff = np.asarray(x, dtype=np.float64) - mean
    inv = np.linalg.inv(cov)
    # slogdet: at d=160 with ridge-level eigenvalues det() underflows to 0.
    sign, logdet = np.linalg.slogdet(2.0 * np.pi * cov)
    assert sign > 0
    return float(-0.5 * diff @ inv @ diff - 0.5 * logdet)


def direct_responsibilities(weights, means, covs, X):
    """Direct-space posterior membership (only for well-scaled inputs)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    K = len(weights)
    joint = np.array(
        [
            [weights[k] * np.exp(direct_log_density(means[k], covs[k], x)) for k in range(K)]
            for x in X
        ]
    )
    return joint / joint.sum(axis=1, keepdims=True)


def direct_complete_ll(weights, means, covs, X_labeled, y_labeled, X_unlabeled, y_unlabeled):
    """Term-by-term complete-data log-likelihood."""
    total = 0.0
    for x, y in zip(np.atleast_2d(X_labeled), y_labeled):
        total += np.log(weights[y - 1]) + direct_log_density(means[y - 1], covs[y - 1], x)
    for x, y in zip(np.atleast_2d(X_unlabeled), y_unlabeled):
        total += np.log(weights[y - 1]) + direct_log_density(means[y - 1], covs[y - 1], x)
    return float(total)


def direct_observed_ll(weights, means, covs, X_labeled, y_labeled, X_unlabeled):
    """Term-by-term observed-data log-likelihood (unlabeled marginalized)."""
    total = 0.0
    for x, y in zip(np.atleast_2d(X_labeled), y_labeled):
        total += np.log(weights[y - 1]) + direct_log_density(means[y - 1], covs[y - 1], x)
    for x in np.atleast_2d(X_unlabeled):
        total += np.log(
            sum(
                weights[k] * np.exp(direct_log_density(means[k], covs[k], x))
                for k in range(len(weights))
            )
        )
    return float(total)


def pairwise_auc(scores, truth):
    """All-pairs concordance count with half credit for tied scores."""
    scores = np.asarray(scores, dtype=np.float64)
    truth = np.asarray(truth)
    pos = scores[truth == 1]
    neg = scores[truth == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def roc_points(scores, truth):
    """(threshold, fpr, tpr) rows by a loop over the distinct scores, highest first.

    Each threshold is the first score of its group in a stable descending
    sort, so -0.0 and 0.0 form one group.
    """
    s = np.asarray(scores, dtype=np.float64)
    t = np.asarray(truth)
    P = int(t.sum())
    N = len(t) - P
    order = np.argsort(-s, kind="stable")
    points = [(np.inf, 0.0, 0.0)]
    tp = fp = i = 0
    while i < len(order):
        j = i
        while j < len(order) and s[order[j]] == s[order[i]]:
            j += 1
        positives = int(t[order[i:j]].sum())
        tp, fp = tp + positives, fp + (j - i) - positives
        points.append((float(s[order[i]]), fp / N if N else 0.0, tp / P if P else 0.0))
        i = j
    return np.array(points)


def pooled_class_scatter(X, y, K):
    """Summed within-class scatter matrices by explicit loops."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = X.shape[1]
    W = np.zeros((d, d))
    for k in range(1, K + 1):
        rows = X[np.asarray(y) == k]
        mu = rows.mean(axis=0)
        for r in rows:
            W += np.outer(r - mu, r - mu)
    return W


def random_spd(rng, d, scale=1.0):
    """Well-conditioned random SPD matrix."""
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T + d * np.eye(d))


def random_family_covariances(rng, family, K, d):
    """K covariances shaped to a family: spherical, diagonal or full, shared or not."""
    if family == "EII":
        return np.stack([rng.uniform(0.5, 2.0) * d * np.eye(d)] * K)
    if family == "VII":
        return np.stack([rng.uniform(0.5, 2.0) * d * np.eye(d) for _ in range(K)])
    if family == "EEI":
        return np.stack([np.diag(rng.uniform(0.5, 2.0, d) * d)] * K)
    if family == "VVI":
        return np.stack([np.diag(rng.uniform(0.5, 2.0, d) * d) for _ in range(K)])
    if family == "EEE":
        return np.stack([random_spd(rng, d)] * K)
    return np.stack([random_spd(rng, d) for _ in range(K)])


def random_model_arrays(rng, K, d, spread=2.0, family="VVV"):
    """Weights, means and family-shaped covariances for a random mixture instance."""
    w = rng.dirichlet(np.full(K, 5.0))
    w = w / w.sum()
    means = spread * rng.standard_normal((K, d))
    covs = random_family_covariances(rng, family, K, d)
    return w, means, covs


def random_orthogonal(rng, d):
    """Haar-ish random rotation via QR with positive diagonal."""
    A = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def mixture(weights, means, covs, family):
    """A ``MixtureModel`` from K d x d covariances, each kept in its family's shape.

    The spherical and diagonal families keep the diagonals, exactly: a
    nonzero off-diagonal entry there is a ValueError.
    """
    covs = np.asarray(covs, dtype=np.float64)
    if family in gmm.DIAGONAL_FAMILIES:
        variances = np.diagonal(covs, axis1=1, axis2=2)
        if not np.array_equal(covs, variances[:, :, None] * np.eye(covs.shape[-1])):
            raise ValueError(f"family {family} needs diagonal covariances")
        covs = variances
    components = [
        gmm.ComponentParams(m, c) for m, c in zip(np.atleast_2d(means), covs, strict=True)
    ]
    return gmm.MixtureModel(np.asarray(weights, dtype=np.float64), components, family)
