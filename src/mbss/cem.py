"""Conditional expectation-maximization for semi-supervised mixture fits.

The fit alternates an E-step (posterior membership of the unlabeled rows
under the current model) with a hard-assignment CM-step (each unlabeled row
is committed to its maximum-posterior class, then weights, means and
family-constrained covariances are re-estimated from labeled plus
hard-labeled rows). Labeled rows keep their true classes in every
iteration. The complete-data log-likelihood is recorded per iteration and
is nondecreasing up to the covariance regularization ridge.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import gmm
from .dataset import Dataset
from .gmm import MixtureModel

STOPPING_RULES = ("aitken", "delta")


@dataclass(frozen=True)
class CemConfig:
    """Fit settings: covariance family, stopping rule and regularization."""

    family: str = "VVV"
    tolerance: float = 1e-5
    max_iterations: int = 1000
    regularization: float = 1e-6
    stopping: str = "aitken"

    def __post_init__(self) -> None:
        if self.family not in gmm.FAMILIES:
            raise ValueError(f"unknown covariance family {self.family!r}")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if not self.regularization > 0.0:
            raise ValueError("regularization must be positive")
        if self.stopping not in STOPPING_RULES:
            raise ValueError(f"stopping must be one of {STOPPING_RULES}")


@dataclass(frozen=True)
class FitResult:
    """Converged model plus its fitting trace and unlabeled posteriors.

    ``complete_loglik`` (unlabeled rows under ``hard_labels``) and
    ``observed_loglik`` are evaluated under the final model; they equal
    ``gmm.complete_log_likelihood(model, dataset, hard_labels)`` and
    ``gmm.observed_log_likelihood(model, dataset)`` exactly.
    """

    model: MixtureModel
    iterations: int
    loglik_trace: tuple[float, ...]
    converged: bool
    posteriors: np.ndarray
    hard_labels: np.ndarray
    complete_loglik: float
    observed_loglik: float


def _class_stats(X: np.ndarray, y: np.ndarray, K: int, family: str):
    """Counts, means and centered scatters per class, rows ascending.

    Scatters are d x d for the full families and per-dimension sums of
    squares (K x d) for the spherical and diagonal ones, the shapes
    ``gmm.estimate_family_covariances`` takes.
    """
    d = X.shape[1]
    diagonal = family in gmm.DIAGONAL_FAMILIES
    counts = np.bincount(y, minlength=K + 1)[1:].astype(np.int64)
    means = np.full((K, d), np.nan)
    scatters = np.zeros((K, d) if diagonal else (K, d, d))
    for k in range(K):
        rows = X[y == k + 1]
        if rows.shape[0] == 0:
            continue
        means[k] = rows.mean(axis=0)
        diff = rows - means[k]
        if diagonal:
            scatters[k] = np.einsum("ij,ij->j", diff, diff)
        else:
            s = diff.T @ diff
            scatters[k] = 0.5 * (s + s.T)
    return counts, means, scatters


def initialize(dataset: Dataset, config: CemConfig) -> MixtureModel:
    """Discriminant-analysis starting model from the labeled block only.

    Weights are the labeled class proportions, means the labeled class
    means, covariances the family-constrained estimate from the labeled
    within-class scatter (the same estimators the CM-step uses).
    """
    dataset.require_class_members(min_count=2)
    counts, means, scatters = _class_stats(
        dataset.labeled_features, dataset.labels, dataset.K, config.family
    )
    weights = counts / dataset.n
    covs = gmm.estimate_family_covariances(config.family, scatters, counts, dataset.n)
    components = [
        gmm.make_component(means[k], covs[k], config.regularization)
        for k in range(dataset.K)
    ]
    return MixtureModel(weights, components, config.family)


def e_step(model: MixtureModel, unlabeled: np.ndarray) -> np.ndarray:
    """Posterior class membership of each unlabeled row under the model."""
    return _posteriors(gmm.log_joint(model, unlabeled))


def _posteriors(joint: np.ndarray) -> np.ndarray:
    """Posterior membership from a ``log_joint`` matrix."""
    return np.exp(gmm.normalize_log_joint(joint))


def hard_assign(posteriors: np.ndarray) -> np.ndarray:
    """Maximum-posterior class per row, ties broken toward the lowest index."""
    P = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    if P.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    return np.argmax(P, axis=1).astype(np.int64) + 1


def cm_step(
    dataset: Dataset,
    posteriors: np.ndarray,
    family: str,
    regularization: float = 1e-6,
    prev_model: MixtureModel | None = None,
) -> MixtureModel:
    """Hard-assignment maximization step.

    Unlabeled rows are committed to their argmax class; weights, means and
    family covariances are then re-estimated from all rows (labeled rows
    under their true classes). A class with zero members keeps its previous
    mean (and, in per-component families, covariance) and has its weight
    floored at 1/(n+m); shared-family covariances always come from the
    pooled scatter of the populated classes.
    """
    P = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    K = dataset.K
    if P.shape[0] != dataset.m or (dataset.m and P.shape[1] != K):
        raise ValueError(
            f"posteriors must be {dataset.m}x{K}, got {P.shape[0]}x{P.shape[1] if P.ndim > 1 else '?'}"
        )
    if dataset.m and not np.allclose(P.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("posterior rows must each sum to 1")
    hard = hard_assign(P)
    X = np.vstack([dataset.labeled_features, dataset.unlabeled_features])
    y = np.concatenate([dataset.labels, hard])
    total = dataset.n + dataset.m
    counts, means, scatters = _class_stats(X, y, K, family)
    empty = counts == 0
    if np.any(empty) and prev_model is None:
        raise ValueError(
            f"classes {list(np.flatnonzero(empty) + 1)} received no members and "
            "no previous model was supplied to fall back on"
        )
    for k in np.flatnonzero(empty):
        means[k] = prev_model.components[k].mean
    covs = gmm.estimate_family_covariances(family, scatters, counts, total)
    components = []
    for k in range(K):
        if empty[k] and family in ("VII", "VVI", "VVV"):
            components.append(prev_model.components[k])
        else:
            components.append(gmm.make_component(means[k], covs[k], regularization))
    weights = counts / total
    floor = 1.0 / total
    weights = np.where(empty, floor, weights)
    weights = weights / weights.sum()
    return MixtureModel(weights, components, family)


def _stop_reached(trace: list[float], tolerance: float, rule: str) -> bool:
    """Convergence test on the log-likelihood trace.

    The Aitken rule extrapolates the asymptotic value l_inf from the last
    three entries via a = (l2-l1)/(l1-l0), l_inf = l1 + (l2-l1)/(1-a), and
    stops once l_inf - l1 < tolerance. A plain absolute difference is used
    until three entries exist and whenever the acceleration ratio is
    degenerate (a >= 1 or a zero denominator).
    """
    if len(trace) < 2:
        return False
    plain = abs(trace[-1] - trace[-2]) < tolerance
    if rule == "delta" or len(trace) < 3:
        return plain
    l0, l1, l2 = trace[-3], trace[-2], trace[-1]
    denom = l1 - l0
    if denom == 0.0:
        return plain
    a = (l2 - l1) / denom
    if a >= 1.0:
        return plain
    return (l2 - l1) / (1.0 - a) < tolerance


def fit(dataset: Dataset, config: CemConfig, trace_path=None) -> FitResult:
    """Run CEM to convergence (or the iteration cap).

    The returned posteriors and hard labels are evaluated under the final
    model, so ``predict(result.model, dataset.unlabeled_features)``
    reproduces them exactly. When ``trace_path`` is given, per-iteration
    diagnostics (complete and observed log-likelihood, number of unlabeled
    rows that changed class) are streamed there as CSV.

    The unlabeled block's ``log_joint`` is evaluated once per model: the
    matrix behind each iteration's complete log-likelihood also gives the
    next E-step, the trace's observed log-likelihood and, after the last
    iteration, the returned posteriors and final log-likelihoods.
    """
    model = initialize(dataset, config)
    X_u = dataset.unlabeled_features
    joint = gmm.log_joint(model, X_u)
    trace: list[float] = []
    converged = False
    prev_hard: np.ndarray | None = None
    writer = None
    trace_fh = None
    try:
        if trace_path is not None:
            trace_fh = open(trace_path, "w", encoding="utf-8", newline="")
            writer = csv.writer(trace_fh, lineterminator="\n")
            writer.writerow(
                ["iteration", "complete_loglik", "observed_loglik", "n_changed_labels"]
            )
        for _ in range(config.max_iterations):
            posteriors = _posteriors(joint)
            hard = hard_assign(posteriors)
            model = cm_step(
                dataset,
                posteriors,
                config.family,
                regularization=config.regularization,
                prev_model=model,
            )
            labeled = gmm.labeled_log_likelihood(model, dataset)
            joint = gmm.log_joint(model, X_u)
            loglik = labeled + gmm.assigned_log_likelihood(joint, hard)
            trace.append(loglik)
            if writer is not None:
                n_changed = (
                    int(np.sum(hard != prev_hard)) if prev_hard is not None else dataset.m
                )
                writer.writerow(
                    [
                        len(trace),
                        repr(loglik),
                        repr(labeled + gmm.marginal_log_likelihood(joint)),
                        n_changed,
                    ]
                )
            prev_hard = hard
            if _stop_reached(trace, config.tolerance, config.stopping):
                converged = True
                break
    finally:
        if trace_fh is not None:
            trace_fh.close()
    posteriors = _posteriors(joint)
    hard = hard_assign(posteriors)
    return FitResult(
        model=model,
        iterations=len(trace),
        loglik_trace=tuple(trace),
        converged=converged,
        posteriors=posteriors,
        hard_labels=hard,
        complete_loglik=labeled + gmm.assigned_log_likelihood(joint, hard),
        observed_loglik=labeled + gmm.marginal_log_likelihood(joint),
    )


def predict(model: MixtureModel, X: np.ndarray):
    """Maximum-posterior classification: ``(labels in 1..K, posteriors)``."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64), np.empty((0, model.K))
    posteriors = e_step(model, X)
    return hard_assign(posteriors), posteriors
