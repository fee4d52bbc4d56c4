"""Conditional expectation-maximization for semi-supervised mixture fits.

The fit alternates an E-step (posterior membership of the unlabeled rows
under the current model) with a hard-assignment CM-step (each unlabeled row
is committed to its maximum-posterior class, then weights, means and
family-constrained covariances are re-estimated from labeled plus
hard-labeled rows). Labeled rows keep their true classes in every
iteration. The complete-data log-likelihood is recorded per iteration and
is nondecreasing up to the covariance regularization ridge.

The labeled block enters a fit only through its per-class counts, means
and centered scatters, which ``initialize`` computes once together with
the starting model. Every iteration then touches the unlabeled rows alone:
the CM-step merges their class statistics into the labeled ones, and the
labeled log-likelihood is evaluated in closed form from the statistics.
Fits that share a labeled block can share one ``initialize``.
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


@dataclass(frozen=True)
class Start:
    """The labeled block as a fit needs it: its class statistics and the starting model.

    ``stats`` is ``gmm.class_stats`` of the labeled rows in the family's
    shape: counts, means and centered scatters.
    """

    stats: tuple[np.ndarray, np.ndarray, np.ndarray]
    model: MixtureModel


def initialize(dataset: Dataset, config: CemConfig) -> Start:
    """Labeled class statistics and the discriminant-analysis starting model.

    Weights are the labeled class proportions, means the labeled class
    means, covariances the family-constrained estimate from the labeled
    within-class scatter (the same estimators the CM-step uses). The
    unlabeled block is not read.
    """
    dataset.require_class_members(min_count=2)
    stats = gmm.class_stats(dataset.labeled_features, dataset.labels, dataset.K, config.family)
    counts, means, scatters = stats
    covs = gmm.estimate_family_covariances(config.family, scatters, counts, dataset.n)
    components = _components(config.family, means, covs, config.regularization)
    return Start(stats, MixtureModel(counts / dataset.n, components, config.family))


def _components(family, means, covs, regularization, previous=None):
    """One component per class; a shared family builds and factors its covariance once.

    A class whose ``previous`` entry is not None keeps that component.
    """
    if family in gmm.SHARED_FAMILIES:
        first = gmm.make_component(means[0], covs[0], regularization)
        return [first] + [first.with_mean(mean) for mean in means[1:]]
    previous = previous or [None] * len(means)
    return [
        gmm.make_component(mean, cov, regularization) if kept is None else kept
        for mean, cov, kept in zip(means, covs, previous)
    ]


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
    labeled: tuple[np.ndarray, np.ndarray, np.ndarray],
    unlabeled: np.ndarray,
    posteriors: np.ndarray,
    family: str,
    regularization: float = 1e-6,
    prev_model: MixtureModel | None = None,
) -> MixtureModel:
    """Hard-assignment maximization step.

    Unlabeled rows are committed to their argmax class and their class
    statistics are merged into ``labeled``, the labeled block's
    (``Start.stats``); weights, means and family covariances are then
    re-estimated from the merged statistics. A class with zero members
    keeps its previous mean (and, in per-component families, covariance)
    and has its weight floored at 1/(n+m); shared-family covariances always
    come from the pooled scatter of the populated classes.
    """
    P = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    K, m = labeled[0].shape[0], unlabeled.shape[0]
    if P.shape[0] != m or (m and P.shape[1] != K):
        raise ValueError(
            f"posteriors must be {m}x{K}, got {P.shape[0]}x{P.shape[1] if P.ndim > 1 else '?'}"
        )
    if m and not np.allclose(P.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("posterior rows must each sum to 1")
    hard = hard_assign(P)
    counts, means, scatters = gmm.merge_class_stats(
        labeled, gmm.class_stats(unlabeled, hard, K, family)
    )
    total = int(counts.sum())
    empty = counts == 0
    if np.any(empty) and prev_model is None:
        raise ValueError(
            f"classes {list(np.flatnonzero(empty) + 1)} received no members and "
            "no previous model was supplied to fall back on"
        )
    for k in np.flatnonzero(empty):
        means[k] = prev_model.components[k].mean
    covs = gmm.estimate_family_covariances(family, scatters, counts, total)
    previous = [prev_model.components[k] if empty[k] else None for k in range(K)]
    components = _components(family, means, covs, regularization, previous)
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


def fit(
    dataset: Dataset, config: CemConfig, trace_path=None, start: Start | None = None
) -> FitResult:
    """Run CEM to convergence (or the iteration cap).

    The returned posteriors and hard labels are evaluated under the final
    model, so ``predict(result.model, dataset.unlabeled_features)``
    reproduces them exactly. When ``trace_path`` is given, per-iteration
    diagnostics (complete and observed log-likelihood, number of unlabeled
    rows that changed class) are streamed there as CSV.

    ``start`` is ``initialize(dataset, config)``, computed here when not
    given; fits that share the labeled block and config can share one.
    The iterations read only the unlabeled block, and its ``log_joint`` is
    evaluated once per model: the matrix behind each iteration's complete
    log-likelihood also gives the next E-step, the trace's observed
    log-likelihood and, after the last iteration, the returned posteriors
    and final log-likelihoods.
    """
    if start is None:
        start = initialize(dataset, config)
    if start.model.family != config.family or start.stats[0].sum() != dataset.n:
        raise ValueError("start was not initialized from this labeled block and family")
    model = start.model
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
                start.stats,
                X_u,
                posteriors,
                config.family,
                regularization=config.regularization,
                prev_model=model,
            )
            labeled = gmm.labeled_log_likelihood(model, start.stats)
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
