"""Independent brute-force reference implementations used as test oracles.

Everything here deliberately uses explicit inverses, determinants,
direct-space products, extended precision and per-line or per-row loops,
the opposite of the production code paths, so agreement between the two is
meaningful.
"""

import csv
import itertools

import numpy as np

from mbss import cem, gmm
from mbss.baselines import TIE_LABEL
from mbss.dataset import ApiVocabulary, Dataset, ParseResult
from mbss.errors import DataFormatError


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


def longdouble_log_joint(weights, means, covariances, X):
    """log(pi_k) + log f_k(x), accumulated in ``np.longdouble`` from the stored arrays.

    A covariance is a variance vector or a d x d matrix. The quadratic form
    is taken difference first: x - mu, then, for a matrix, forward
    substitution against LAPACK's Cholesky factor, never an inverse.
    """
    X = np.asarray(X, dtype=np.longdouble)
    d = X.shape[1]
    out = np.empty((X.shape[0], len(weights)), dtype=np.longdouble)
    for k, (mean, cov) in enumerate(zip(means, covariances)):
        diff = X - np.asarray(mean, dtype=np.longdouble)
        if np.ndim(cov) == 1:
            var = np.asarray(cov, dtype=np.longdouble)
            quad = (diff * diff / var).sum(axis=1)
            log_det = np.log(var).sum()
        else:
            L = np.linalg.cholesky(cov).astype(np.longdouble)
            Z = np.zeros_like(diff)
            for j in range(d):
                Z[:, j] = (diff[:, j] - Z[:, :j] @ L[j, :j]) / L[j, j]
            quad = (Z * Z).sum(axis=1)
            log_det = 2.0 * np.log(np.diagonal(L)).sum()
        log_2pi = np.log(2.0 * np.longdouble(np.pi))
        out[:, k] = np.log(np.longdouble(weights[k])) - 0.5 * (d * log_2pi + log_det + quad)
    return out


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


def reference_fit(start, X_u):
    """``cem.fit`` as a plain loop in which every iteration runs its CM-step.

    An iteration whose partition is the one that built the current model
    rebuilds that model and repeats its record; ``cem.fit`` records such a
    repeat without the CM-step, and must return the same result.
    """
    config, model = start.config, start.model
    joint = gmm.log_joint(model, X_u)
    norm = gmm.row_logsumexp(joint)
    posteriors = np.exp(joint - norm[:, None])
    hard = cem.hard_assign(posteriors)
    trace, observed, changed = [], [], []
    prev_hard = None
    converged = False
    for _ in range(config.max_iterations):
        model = cem.cm_step(start, X_u, hard)
        labeled = gmm.labeled_log_likelihood(model, start.stats)
        joint = gmm.log_joint(model, X_u)
        norm = gmm.row_logsumexp(joint)
        trace.append(labeled + gmm.assigned_log_likelihood(joint, hard))
        observed.append(labeled + float(norm.sum()))
        changed.append(len(X_u) if prev_hard is None else np.count_nonzero(hard != prev_hard))
        posteriors = np.exp(joint - norm[:, None])
        prev_hard, hard = hard, cem.hard_assign(posteriors)
        if cem._stop_reached(trace, config.tolerance):
            converged = True
            break
    return cem.FitResult(
        model=model,
        iterations=len(trace),
        loglik_trace=tuple(trace),
        observed_trace=tuple(observed),
        changed_labels=tuple(changed),
        converged=converged,
        posteriors=posteriors,
        hard_labels=hard,
        complete_loglik=labeled + gmm.assigned_log_likelihood(joint, hard),
        observed_loglik=observed[-1],
    )


def direct_class_moments(X, y, K, full=False):
    """Per class 1..K: row count, mean and scatter about the mean, by loops.

    The scatter is the per-dimension sum of squared deviations (K x d), or
    with ``full`` the sum of their outer products (K x d x d).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    d = X.shape[1]
    counts = np.zeros(K, dtype=np.int64)
    means = np.full((K, d), np.nan)
    scatters = np.zeros((K, d, d) if full else (K, d))
    for k in range(K):
        rows = [x for x, label in zip(X, y) if label == k + 1]
        counts[k] = len(rows)
        if rows:
            means[k] = sum(rows) / len(rows)
            for x in rows:
                diff = x - means[k]
                scatters[k] += np.outer(diff, diff) if full else diff * diff
    return counts, means, scatters


def direct_knn(model, X):
    """The k-nearest-neighbor vote by a loop over the query rows.

    Each query's squared distances to all training rows are summed
    directly; every training row within the k-th smallest distance votes,
    and a vote without a unique winner is ``TIE_LABEL``.
    """
    out = np.empty(len(X), dtype=np.int64)
    for i, x in enumerate(np.atleast_2d(np.asarray(X, dtype=np.float64))):
        d2 = np.sum((model.features - x) ** 2, axis=1)
        kth = np.partition(d2, model.k - 1)[model.k - 1]
        votes = np.bincount(model.labels[d2 <= kth])
        winners = np.flatnonzero(votes == votes.max())
        out[i] = winners[0] if winners.size == 1 else TIE_LABEL
    return out


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
    components = [gmm.ComponentParams(c) for c in covs]
    return gmm.MixtureModel(np.asarray(weights, dtype=np.float64), np.atleast_2d(means), components, family)


def direct_parse_log(lines, vocabulary):
    """``dataset.parse_log`` as a loop over the lines, one classification per line."""
    bits = np.zeros(vocabulary.d, dtype=np.float64)
    n_parsed = 0
    n_skipped = 0
    for raw in lines:
        fields = raw.split(None, 1)
        if not fields:
            continue
        class_name, _, method_name = fields[0].rpartition(".")
        if not class_name or not method_name:
            n_skipped += 1
            continue
        n_parsed += 1
        if fields[0] in vocabulary.entries:
            bits[vocabulary.entries.index(fields[0])] = 1.0
    if n_parsed == 0:
        raise DataFormatError("no parseable API records in log")
    return ParseResult(bits, n_parsed, n_skipped)


def savetxt_csv(dataset, path):
    """``Dataset.save_csv`` through two ``np.savetxt`` calls, one row at a time."""
    blocks = (dataset.labeled_features, dataset.unlabeled_features)
    # Binary means every cell is +0.0 or 1.0: a -0.0 takes the "%s" cell.
    binary = all(np.all(((X == 0.0) & ~np.signbit(X)) | (X == 1.0)) for X in blocks)
    cell = "%d" if binary else "%s"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([*dataset.vocabulary.entries, "label"])
        np.savetxt(
            fh, np.column_stack([dataset.labeled_features, dataset.labels]),
            fmt=[cell] * dataset.d + ["%d"], delimiter=",",
        )
        # Ending each row with ",\n" leaves its label cell empty.
        np.savetxt(fh, dataset.unlabeled_features, fmt=cell, delimiter=",", newline=",\n")


def loadtxt_csv(path):
    """``Dataset.load_csv`` of any dataset CSV through one ``np.loadtxt`` of its text."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh), None)
            if header is None:
                raise DataFormatError(f"{path}: empty file")
            if not header or header[-1] != "label":
                raise DataFormatError(f"{path}: last header column must be 'label'")
            try:
                vocabulary = ApiVocabulary(tuple(header[:-1]))
            except ValueError as exc:
                raise DataFormatError(f"{path}: header: {exc}") from exc
            width = len(header)
            first = next((line for line in fh if line.strip("\r\n")), None)
            try:
                rows = np.loadtxt(
                    itertools.chain([first], fh), delimiter=",", quotechar='"',
                    comments=None, ndmin=2,
                    converters={width - 1: lambda cell: int(cell) if cell else np.nan},
                ) if first else np.empty((0, width))
            except ValueError as exc:
                raise DataFormatError(f"{path}: {exc}") from exc
    except OSError as exc:
        raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
    if rows.shape[1] != width:
        raise DataFormatError(f"{path}: expected {width} cells per row, got {rows.shape[1]}")
    features, label_cells = rows[:, :-1], rows[:, -1]
    if not np.isfinite(features).all():
        raise DataFormatError(f"{path}: feature cells must be finite numbers")
    labeled = ~np.isnan(label_cells)
    labels = label_cells[labeled]
    outside = labels[(labels < 1) | (labels > labels.size)]
    if outside.size:
        raise DataFormatError(
            f"{path}: label {outside[0]:.0f} is outside 1..{labels.size} (labeled rows)"
        )
    labels = labels.astype(np.int64)
    try:
        return Dataset(
            features[labeled], labels, features[~labeled], vocabulary, int(labels.max(initial=1))
        )
    except ValueError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc
