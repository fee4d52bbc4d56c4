"""Covariance-family selection by maximum BIC.

Each candidate family is fit independently; the winner maximizes
``2 * loglik - ln(n+m) * n_params`` where ``loglik`` is the complete-data
log-likelihood at convergence. The observed-data variant of the score is
reported alongside for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import cem, gmm
from .dataset import Dataset, write_csv
from .errors import MbssError


@dataclass(frozen=True)
class ModelScore:
    """One fitted family: its fit (likelihoods included), parameter count and BIC scores."""

    family: str
    bic: float
    param_count: int
    fit: cem.FitResult
    observed_bic: float


def bic(loglik: float, n_obs: int, n_params: int) -> float:
    """Bayesian information criterion, larger is better."""
    if n_obs < 1:
        raise ValueError("n_obs must be positive")
    return 2.0 * loglik - math.log(n_obs) * n_params


def select_model(dataset: Dataset, families, config: cem.CemConfig):
    """Fit every candidate family and pick the BIC maximizer.

    Returns ``(best, scores)`` with one ModelScore per family that fit
    successfully, in candidate order. Families whose fit raises are
    excluded (selection fails only if all do). Ties go to the model with
    fewer parameters, then to candidate-list order.
    """
    families = list(families)
    if not families:
        raise ValueError("families must be non-empty")
    unknown = [f for f in families if f not in gmm.FAMILIES]
    if unknown:
        raise ValueError(f"unknown covariance families {unknown}")
    n_obs = dataset.n + dataset.m
    scores: list[ModelScore] = []
    failures: list[tuple[str, Exception]] = []
    for family in families:
        try:
            start = cem.initialize(
                dataset.labeled_features, dataset.labels, dataset.K, replace(config, family=family)
            )
            result = cem.fit(start, dataset.unlabeled_features)
        except (MbssError, ValueError, np.linalg.LinAlgError) as exc:
            failures.append((family, exc))
            continue
        params = gmm.parameter_count(family, dataset.K, dataset.d)
        scores.append(
            ModelScore(
                family=family,
                bic=bic(result.complete_loglik, n_obs, params),
                param_count=params,
                fit=result,
                observed_bic=bic(result.observed_loglik, n_obs, params),
            )
        )
    if not scores:
        detail = "; ".join(f"{fam}: {exc}" for fam, exc in failures)
        raise MbssError(f"every candidate family failed to fit ({detail})")
    best = min(
        enumerate(scores), key=lambda item: (-item[1].bic, item[1].param_count, item[0])
    )[1]
    return best, scores


def write_selection_report(path, scores, best: ModelScore) -> None:
    """CSV report: one row per candidate family, the winner flagged."""
    header = ["family", "converged", "iterations", "loglik", "params", "bic", "selected",
              "observed_loglik", "observed_bic"]
    write_csv(path, header, (
        [s.family, int(s.fit.converged), s.fit.iterations, s.fit.complete_loglik, s.param_count,
         s.bic, int(s is best), s.fit.observed_loglik, s.observed_bic]
        for s in scores
    ))
