"""Covariance-family selection by maximum BIC.

Each candidate family is fit independently; the winner maximizes
``2 * loglik - ln(n+m) * n_params`` where ``loglik`` is the complete-data
log-likelihood at convergence. The observed-data variant of the score is
reported alongside for diagnostics.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from . import cem, gmm
from .dataset import Dataset
from .errors import MbssError


@dataclass(frozen=True)
class ModelScore:
    """One fitted family with its likelihoods, parameter count and scores."""

    family: str
    bic: float
    loglik: float
    param_count: int
    fit: cem.FitResult
    observed_loglik: float
    observed_bic: float

    @property
    def converged(self) -> bool:
        return self.fit.converged


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
            result = cem.fit(dataset, replace(config, family=family))
        except (MbssError, ValueError, np.linalg.LinAlgError) as exc:
            failures.append((family, exc))
            continue
        params = gmm.parameter_count(family, dataset.K, dataset.d)
        scores.append(
            ModelScore(
                family=family,
                bic=bic(result.complete_loglik, n_obs, params),
                loglik=result.complete_loglik,
                param_count=params,
                fit=result,
                observed_loglik=result.observed_loglik,
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
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            [
                "family",
                "converged",
                "iterations",
                "loglik",
                "params",
                "bic",
                "selected",
                "observed_loglik",
                "observed_bic",
            ]
        )
        for score in scores:
            writer.writerow(
                [
                    score.family,
                    int(score.converged),
                    score.fit.iterations,
                    repr(score.loglik),
                    score.param_count,
                    repr(score.bic),
                    int(score is best),
                    repr(score.observed_loglik),
                    repr(score.observed_bic),
                ]
            )
