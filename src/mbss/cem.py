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
the starting model; ``fit`` takes that ``Start`` and the unlabeled rows.
Every iteration touches the unlabeled rows alone: the CM-step merges their
class statistics into the labeled ones, and the labeled log-likelihood is
evaluated in closed form from the statistics. The starting model and
every CM-step's model come from one estimator, ``gmm.estimate``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from . import gmm
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
    ``gmm.observed_log_likelihood(model, dataset)`` exactly for the
    dataset of the fit's labeled and unlabeled rows.
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
    """The labeled block as a fit needs it: class statistics, starting model, settings.

    ``stats`` is ``gmm.class_stats`` of the labeled rows in the family's
    shape: counts, means and centered scatters.
    """

    stats: tuple[np.ndarray, np.ndarray, np.ndarray]
    model: MixtureModel
    config: CemConfig


def initialize(X: np.ndarray, y: np.ndarray, K: int, config: CemConfig) -> Start:
    """Labeled class statistics and the discriminant-analysis starting model.

    ``X`` holds the labeled rows and ``y`` their classes in 1..K, each class
    with at least 2 rows. The starting model is ``gmm.estimate`` of their
    statistics, the estimator every CM-step uses.
    """
    y = np.asarray(y, dtype=np.int64).reshape(-1)
    if y.size and (y.min() < 1 or y.max() > K):
        raise ValueError(f"labels must lie in 1..{K}")
    stats = gmm.class_stats(X, y, K, config.family)
    lacking = (np.flatnonzero(stats[0] < 2) + 1).tolist()
    if lacking:
        raise ValueError(f"classes {lacking} have fewer than 2 labeled samples")
    return Start(stats, gmm.estimate(stats, config.family, config.regularization), config)


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
    start: Start,
    unlabeled: np.ndarray,
    posteriors: np.ndarray,
    prev_model: MixtureModel | None = None,
) -> MixtureModel:
    """Hard-assignment maximization step.

    Unlabeled rows are committed to their argmax class and their class
    statistics are merged into the labeled block's (``start.stats``); the
    model is then ``gmm.estimate`` of the merged statistics. A class with
    zero members keeps its previous mean (and, in per-component families,
    covariance) and has its weight floored at 1/(n+m); shared-family
    covariances always come from the pooled scatter of the populated classes.
    """
    P = np.atleast_2d(np.asarray(posteriors, dtype=np.float64))
    K, m = start.stats[0].shape[0], unlabeled.shape[0]
    if P.shape[0] != m or (m and P.shape[1] != K):
        raise ValueError(
            f"posteriors must be {m}x{K}, got {P.shape[0]}x{P.shape[1] if P.ndim > 1 else '?'}"
        )
    if m and not np.allclose(P.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("posterior rows must each sum to 1")
    family = start.config.family
    unlabeled_stats = gmm.class_stats(unlabeled, hard_assign(P), K, family)
    stats = gmm.merge_class_stats(start.stats, unlabeled_stats)
    return gmm.estimate(stats, family, start.config.regularization, prev_model)


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


def fit(start: Start, X_u: np.ndarray, trace_path=None) -> FitResult:
    """Run CEM from ``start`` on the unlabeled rows ``X_u`` to convergence (or the cap).

    ``start`` is ``initialize`` of the labeled block and carries the
    settings; fits that share a labeled block and settings share one. The
    returned posteriors and hard labels are evaluated under the final
    model, so ``predict(result.model, X_u)`` reproduces them exactly. When
    ``trace_path`` is given, per-iteration diagnostics (complete and
    observed log-likelihood, number of unlabeled rows that changed class)
    are streamed there as CSV.

    The unlabeled block's ``log_joint`` is evaluated once per model: the
    matrix behind each iteration's complete log-likelihood also gives the
    next E-step, the trace's observed log-likelihood and, after the last
    iteration, the returned posteriors and final log-likelihoods.
    """
    config, model = start.config, start.model
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
            model = cm_step(start, X_u, posteriors, prev_model=model)
            labeled = gmm.labeled_log_likelihood(model, start.stats)
            joint = gmm.log_joint(model, X_u)
            loglik = labeled + gmm.assigned_log_likelihood(joint, hard)
            trace.append(loglik)
            if writer is not None:
                n_changed = (
                    int(np.sum(hard != prev_hard)) if prev_hard is not None else len(X_u)
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
