"""Conditional expectation-maximization for semi-supervised mixture fits.

The fit alternates an E-step (posterior membership of the unlabeled rows
under the current model) with a hard-assignment CM-step (each unlabeled row
is committed to its maximum-posterior class, then weights, means and
family-constrained covariances are re-estimated from labeled plus
hard-labeled rows). Labeled rows keep their true classes in every
iteration. The complete-data log-likelihood is recorded per iteration and
is nondecreasing up to the covariance regularization ridge; the fit stops
when Aitken's extrapolation of that trace (a plain difference where the
extrapolation is undefined) comes within the tolerance, or at the
iteration cap.

The labeled block enters a fit only through its per-class counts, means
and centered scatters, which ``initialize`` computes once together with
the starting model; ``fit`` takes that ``Start`` and the unlabeled rows.
Every iteration touches the unlabeled rows alone: the CM-step merges their
class statistics into the labeled ones, and the labeled log-likelihood is
evaluated in closed form from the statistics. On 0/1 rows those
statistics come from exact integer moments, which ``fit`` moves from one
partition to the next by the rows whose label changed. The starting model and
every CM-step's model come from one estimator, ``gmm.estimate``: a
CM-step's model is a function of its partition alone, and no class is
ever empty, since each has at least 2 labeled rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import gmm
from .dataset import is_binary
from .gmm import MixtureModel


@dataclass(frozen=True)
class CemConfig:
    """Fit settings: covariance family, Aitken tolerance and iteration cap.

    The covariance ridge (``gmm.REGULARIZATION``) and the stopping rule
    (``_stop_reached``) are fixed.
    """

    family: str = "VVV"
    tolerance: float = 1e-5
    max_iterations: int = 1000

    def __post_init__(self) -> None:
        if self.family not in gmm.FAMILIES:
            raise ValueError(f"unknown covariance family {self.family!r}")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")


@dataclass(frozen=True)
class FitResult:
    """Converged model plus its per-iteration record and unlabeled posteriors.

    Iteration i has one entry in each trace: ``loglik_trace`` is the
    complete log-likelihood of its model under the hard labels its CM-step
    took, ``observed_trace`` the observed log-likelihood of its model, and
    ``changed_labels`` the number of unlabeled rows whose hard label differs
    from iteration i-1's (all m rows at the first iteration). An iteration
    with no changed label repeats the previous iteration's model and
    entries, so ``fit`` records it without a CM-step.
    ``complete_loglik`` (unlabeled rows under ``hard_labels``) and
    ``observed_loglik`` are evaluated under the final model; they equal
    ``gmm.complete_log_likelihood(model, dataset, hard_labels)`` and
    ``gmm.observed_log_likelihood(model, dataset)`` exactly for the
    dataset of the fit's labeled and unlabeled rows.
    """

    model: MixtureModel
    iterations: int
    loglik_trace: tuple[float, ...]
    observed_trace: tuple[float, ...]
    changed_labels: tuple[int, ...]
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
    return Start(stats, gmm.estimate(stats, config.family), config)


def e_step(model: MixtureModel, unlabeled: np.ndarray) -> np.ndarray:
    """Posterior class membership of each unlabeled row under the model."""
    return np.exp(gmm.log_responsibilities(model, unlabeled))


def hard_assign(posteriors: np.ndarray) -> np.ndarray:
    """Maximum-posterior class per row, ties broken toward the lowest index."""
    return np.argmax(np.atleast_2d(posteriors), axis=1).astype(np.int64) + 1


def cm_step(
    start: Start,
    X_u: np.ndarray,
    hard_labels: np.ndarray,
    moments: gmm.Moments | None = None,
) -> MixtureModel:
    """Hard-assignment maximization step on the partition ``hard_labels``.

    Each unlabeled row of ``X_u`` belongs to its hard label (1..K, one per
    row, as ``hard_assign`` gives them); the rows' class statistics are
    merged into the labeled block's (``start.stats``) and the model is
    ``gmm.estimate`` of the merged statistics. A class that no unlabeled
    row joins keeps its labeled statistics. For 0/1 rows ``moments`` may
    hold the ``gmm.Moments`` of an earlier partition, which the step moves
    to this one in place; they are exact, so the model is the one a call
    without them builds, bit for bit.
    """
    hard = np.asarray(hard_labels, dtype=np.int64)
    K, m = start.stats[0].shape[0], X_u.shape[0]
    if hard.shape != (m,):
        raise ValueError(f"hard_labels must hold {m} labels, got shape {hard.shape}")
    if np.any((hard < 1) | (hard > K)):
        raise ValueError(f"hard labels must lie in 1..{K}")
    family = start.config.family
    if moments is None:
        unlabeled_stats = gmm.class_stats(X_u, hard, K, family)
    else:
        unlabeled_stats = moments.move(X_u, hard).stats()
    stats = gmm.merge_class_stats(start.stats, unlabeled_stats)
    return gmm.estimate(stats, family)


def _stop_reached(trace: list[float], tolerance: float) -> bool:
    """Aitken convergence test on the log-likelihood trace.

    It extrapolates the asymptotic value l_inf from the last three entries
    via a = (l2-l1)/(l1-l0), l_inf = l1 + (l2-l1)/(1-a), and stops once
    l_inf - l1 < tolerance. A plain absolute difference is used
    until three entries exist and whenever the acceleration ratio is
    degenerate (a >= 1 or a zero denominator).
    """
    if len(trace) < 2:
        return False
    plain = abs(trace[-1] - trace[-2]) < tolerance
    if len(trace) < 3:
        return plain
    l0, l1, l2 = trace[-3], trace[-2], trace[-1]
    denom = l1 - l0
    if denom == 0.0:
        return plain
    a = (l2 - l1) / denom
    if a >= 1.0:
        return plain
    return (l2 - l1) / (1.0 - a) < tolerance


def fit(start: Start, X_u: np.ndarray) -> FitResult:
    """Run CEM from ``start`` on the unlabeled rows ``X_u`` to convergence (or the cap).

    ``start`` is ``initialize`` of the labeled block and carries the
    settings; fits that share a labeled block and settings share one. The
    returned posteriors and hard labels are evaluated under the final
    model, so ``predict(result.model, X_u)`` reproduces them exactly.

    Each model scores the unlabeled block once. Its ``log_joint`` gives
    the complete log-likelihood under the hard labels that built the
    model, and its row log-sum-exp gives the posteriors and the observed
    log-likelihood; the hard labels are taken once per model and drive
    the next CM-step, so the last model's are the returned ones. The
    unlabeled rows are checked for 0/1 cells once, and every scoring is
    told the answer; no fit holds a copy of them. On 0/1 rows the CM-steps
    carry one ``gmm.Moments`` from partition to partition, so each reads
    only the rows whose hard label changed. Other rows' CM-steps read all
    of them, a row block at a time (``gmm.class_stats``, whose 0/1 check
    returns at the first block holding another value).

    Hard labels equal to the partition that built the current model are a
    fixed point: the next CM-step would rebuild that model bit for bit, so
    that iteration repeats the last record, with 0 changed labels, without
    one; the Aitken test then fires unless the trace is non-finite.
    """
    config, model = start.config, start.model
    binary = is_binary(X_u)
    full = config.family not in gmm.DIAGONAL_FAMILIES
    moments = gmm.Moments.empty(len(X_u), model.K, X_u.shape[1], full) if binary else None
    joint = gmm.log_joint(model, X_u, binary)
    norm = gmm.row_logsumexp(joint)
    posteriors = np.exp(joint - norm[:, None])
    hard = hard_assign(posteriors)
    trace: list[float] = []
    observed: list[float] = []
    changed: list[int] = []
    prev_hard = None
    converged = False
    for _ in range(config.max_iterations):
        if prev_hard is not None and np.array_equal(hard, prev_hard):
            # the partition that built this model: a CM-step would rebuild it
            trace.append(trace[-1])
            observed.append(observed[-1])
            changed.append(0)
        else:
            model = cm_step(start, X_u, hard, moments)
            labeled = gmm.labeled_log_likelihood(model, start.stats)
            joint = gmm.log_joint(model, X_u, binary)
            norm = gmm.row_logsumexp(joint)
            trace.append(labeled + gmm.assigned_log_likelihood(joint, hard))
            observed.append(labeled + float(norm.sum()))
            changed.append(len(X_u) if prev_hard is None else np.count_nonzero(hard != prev_hard))
            posteriors = np.exp(joint - norm[:, None])
            prev_hard, hard = hard, hard_assign(posteriors)
        if _stop_reached(trace, config.tolerance):
            converged = True
            break
    return FitResult(
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


def predict(model: MixtureModel, X: np.ndarray):
    """Maximum-posterior classification: ``(labels in 1..K, posteriors)``."""
    posteriors = e_step(model, X)
    return hard_assign(posteriors), posteriors
