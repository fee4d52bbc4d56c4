"""Finite Gaussian mixtures under constrained covariance families.

All density math happens in log space; determinants and inverses of full
covariances are never formed. Six covariance families are supported,
named by the volume/shape/orientation convention:

    EII  lambda * I                 spherical, shared volume
    VII  lambda_k * I               spherical, per-component volume
    EEI  diag(a)                    diagonal, shared across components
    VVI  diag(a_k)                  diagonal, per component
    EEE  full, shared across components
    VVV  full, per component

``log_joint`` evaluates each family with the kernel for its structure. The
spherical and diagonal families scale squared deviations by the inverse
variances, O(N d) per component. EEE solves the shared Cholesky factor
against X once and subtracts each component's whitened mean. VVV solves
each component's own factor, O(N d^2) per component, as the generic
single-component ``log_density`` does.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .errors import DataFormatError, SingularCovarianceError

FAMILIES = ("EII", "VII", "EEI", "VVI", "EEE", "VVV")

_LOG_2PI = float(np.log(2.0 * np.pi))

# Regularization escalates by x10 from the configured epsilon up to this cap.
MAX_REGULARIZATION = 1e-2


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log(sum(exp(a))) along an axis."""
    shift = np.max(a, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    out = np.log(np.sum(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)
    return out


@dataclass
class ComponentParams:
    """One Gaussian component: mean vector and SPD covariance.

    The Cholesky factor and log-determinant are computed once at
    construction and cached; they are what every density evaluation uses.
    """

    mean: np.ndarray
    covariance: np.ndarray
    cholesky: np.ndarray = field(init=False, repr=False)
    log_det: float = field(init=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(self.covariance, dtype=np.float64)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ValueError(f"covariance must be square, got shape {cov.shape}")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean has dimension {mean.shape[0]} but covariance is {cov.shape[0]}x{cov.shape[1]}"
            )
        scale = float(np.max(np.abs(cov))) if cov.size else 0.0
        if not np.allclose(cov, cov.T, atol=1e-8 * (1.0 + scale), rtol=0.0):
            raise ValueError("covariance must be symmetric")
        cov = 0.5 * (cov + cov.T)
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise SingularCovarianceError(
                "covariance is not positive definite"
            ) from exc
        self.mean = mean
        self.covariance = cov
        self.cholesky = chol
        self.log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))

    @property
    def d(self) -> int:
        return self.mean.shape[0]


def make_component(
    mean: np.ndarray, covariance: np.ndarray, regularization: float = 1e-6
) -> ComponentParams:
    """Build a component from an estimated covariance, regularizing it.

    Adds ``eps * t`` to the diagonal where ``t = trace(cov)/d``; if the
    Cholesky factorization still fails, eps escalates by factors of 10 up
    to ``MAX_REGULARIZATION`` before giving up.
    """
    cov = np.asarray(covariance, dtype=np.float64)
    d = cov.shape[0]
    t = float(np.trace(cov)) / d
    if not t > 0.0:
        # Zero or degenerate scatter (e.g. identical rows); fall back to an
        # absolute scale so the ridge is nonzero.
        t = 1.0
    eps = float(regularization)
    while True:
        try:
            return ComponentParams(mean, cov + (eps * t) * np.eye(d))
        except SingularCovarianceError:
            if eps >= MAX_REGULARIZATION:
                raise SingularCovarianceError(
                    f"covariance not positive definite even at regularization {eps:g}"
                ) from None
            eps *= 10.0


def family_deviation(family: str, covariances: np.ndarray) -> float:
    """Largest absolute deviation of a covariance stack from a family's shape.

    Returned value is relative to the overall covariance scale, so a model
    conforms to its declared family when this is ~0.
    """
    covs = np.asarray(covariances, dtype=np.float64)
    K, d, _ = covs.shape
    scale = float(np.max(np.abs(covs)))
    if scale == 0.0:
        scale = 1.0
    eye = np.eye(d)
    if family == "EII":
        lam = float(np.trace(covs.sum(axis=0))) / (K * d)
        dev = np.max(np.abs(covs - lam * eye))
    elif family == "VII":
        lams = np.trace(covs, axis1=1, axis2=2) / d
        dev = np.max(np.abs(covs - lams[:, None, None] * eye))
    elif family == "EEI":
        diag = np.mean([np.diag(c) for c in covs], axis=0)
        dev = np.max(np.abs(covs - np.diag(diag)))
    elif family == "VVI":
        dev = max(np.max(np.abs(c - np.diag(np.diag(c)))) for c in covs)
    elif family == "EEE":
        dev = np.max(np.abs(covs - covs[0]))
    elif family == "VVV":
        dev = max(np.max(np.abs(c - c.T)) for c in covs)
    else:
        raise ValueError(f"unknown covariance family {family!r}")
    return float(dev) / scale


@dataclass
class MixtureModel:
    """A K-component Gaussian mixture with a declared covariance family."""

    weights: np.ndarray
    components: list[ComponentParams]
    family: str

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown covariance family {self.family!r}")
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if len(self.components) != w.shape[0]:
            raise ValueError("one weight per component required")
        if w.shape[0] < 1:
            raise ValueError("mixture needs at least one component")
        if np.any(w < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        dims = {c.d for c in self.components}
        if len(dims) != 1:
            raise ValueError("components disagree on dimension")
        dev = family_deviation(
            self.family, np.stack([c.covariance for c in self.components])
        )
        if dev > 1e-8:
            raise ValueError(
                f"covariances deviate from family {self.family} by {dev:.3e} (relative)"
            )
        self.weights = w

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].d

    @classmethod
    def from_arrays(
        cls,
        weights: np.ndarray,
        means: np.ndarray,
        covariances: np.ndarray,
        family: str,
    ) -> "MixtureModel":
        comps = [ComponentParams(m, c) for m, c in zip(means, covariances)]
        return cls(np.asarray(weights, dtype=np.float64), comps, family)


# Families whose covariances are diagonal (spherical ones included).
DIAGONAL_FAMILIES = ("EII", "VII", "EEI", "VVI")


def _gaussian_log(quad: np.ndarray, component: ComponentParams) -> np.ndarray:
    """-0.5 (quad + d log 2 pi + log det Sigma) for squared Mahalanobis distances."""
    return -0.5 * (quad + component.d * _LOG_2PI + component.log_det)


def log_density(component: ComponentParams, x: np.ndarray) -> float | np.ndarray:
    """Log of the Gaussian density at ``x`` (a vector, or a matrix of rows).

    Computes -0.5 (x-mu)^T Sigma^-1 (x-mu) - 0.5 log det(2 pi Sigma) using
    the cached Cholesky factor.
    """
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != component.d:
        raise ValueError(f"expected dimension {component.d}, got {X.shape[1]}")
    diff = X - component.mean
    z = solve_triangular(component.cholesky, diff.T, lower=True)
    out = _gaussian_log(np.sum(z * z, axis=0), component)
    return float(out[0]) if single else out


def _is_diagonal(cov: np.ndarray) -> bool:
    return np.count_nonzero(cov) == np.count_nonzero(np.diagonal(cov))


def log_joint(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """Matrix of log(pi_k) + log f_k(x_j), rows = samples, cols = components.

    The kernel follows the model's family (see the module docstring). A
    hand-built model whose covariances only approximate its family's
    structure (diagonal, or one factor shared by every component) falls
    back to the per-component Cholesky solve; fitted and loaded models are
    always exact.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        return np.empty((0, model.K))
    if X.shape[1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {X.shape[1]}")
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    comps = model.components
    out = np.empty((X.shape[0], model.K))
    if model.family in DIAGONAL_FAMILIES and all(_is_diagonal(c.covariance) for c in comps):
        sq = np.empty_like(X)
        for k, comp in enumerate(comps):
            np.subtract(X, comp.mean, out=sq)
            np.multiply(sq, sq, out=sq)
            out[:, k] = logw[k] + _gaussian_log(sq @ (1.0 / np.diagonal(comp.covariance)), comp)
    elif model.family == "EEE" and all(
        np.array_equal(c.cholesky, comps[0].cholesky) for c in comps[1:]
    ):
        L = comps[0].cholesky
        Z = solve_triangular(L, X.T, lower=True)
        for k, comp in enumerate(comps):
            diff = Z - solve_triangular(L, comp.mean, lower=True)[:, None]
            out[:, k] = logw[k] + _gaussian_log(np.sum(diff * diff, axis=0), comp)
    else:
        for k, comp in enumerate(comps):
            out[:, k] = logw[k] + log_density(comp, X)
    return out


def normalize_log_joint(joint: np.ndarray) -> np.ndarray:
    """Log responsibilities from a ``log_joint`` matrix (rows log-sum to 0)."""
    if joint.shape[0] == 0:
        return joint
    return joint - _logsumexp(joint, axis=1)[:, None]


def log_responsibilities(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """Row-normalized posterior membership log-probabilities.

    Each row exponentiates to a probability vector; normalization uses the
    log-sum-exp shift so widely separated components stay finite.
    """
    return normalize_log_joint(log_joint(model, X))


def labeled_log_likelihood(model, dataset) -> float:
    """Sum of the labeled rows' joint terms under their true classes."""
    if not dataset.n:
        return 0.0
    lj = log_joint(model, dataset.labeled_features)
    return float(lj[np.arange(dataset.n), dataset.labels - 1].sum())


def assigned_log_likelihood(joint: np.ndarray, hard_labels: np.ndarray) -> float:
    """Sum of each row's ``log_joint`` term under its hard label (1..K)."""
    if joint.shape[0] == 0:
        return 0.0
    return float(joint[np.arange(joint.shape[0]), hard_labels - 1].sum())


def marginal_log_likelihood(joint: np.ndarray) -> float:
    """Sum over rows of the log mixture density, from a ``log_joint`` matrix."""
    if joint.shape[0] == 0:
        return 0.0
    return float(_logsumexp(joint, axis=1).sum())


def complete_log_likelihood(model, dataset, hard_labels) -> float:
    """Log-likelihood of labeled plus unlabeled data with labels filled in.

    Labeled rows contribute their true class's joint term; unlabeled rows
    contribute the joint term of the supplied hard label.
    """
    hard = np.asarray(hard_labels, dtype=np.int64).reshape(-1)
    if hard.shape[0] != dataset.m:
        raise ValueError(
            f"hard_labels has length {hard.shape[0]} but dataset has {dataset.m} unlabeled rows"
        )
    if hard.size and (hard.min() < 1 or hard.max() > model.K):
        raise ValueError("hard labels must lie in 1..K")
    total = labeled_log_likelihood(model, dataset)
    if dataset.m:
        total += assigned_log_likelihood(log_joint(model, dataset.unlabeled_features), hard)
    return total


def observed_log_likelihood(model, dataset) -> float:
    """Training log-likelihood: labeled joints plus marginalized unlabeled terms."""
    total = labeled_log_likelihood(model, dataset)
    if dataset.m:
        total += marginal_log_likelihood(log_joint(model, dataset.unlabeled_features))
    return total


def parameter_count(family: str, K: int, d: int) -> int:
    """Number of free parameters: weights + means + covariance terms."""
    if K < 1 or d < 1:
        raise ValueError("K and d must be positive")
    cov_params = {
        "EII": 1,
        "VII": K,
        "EEI": d,
        "VVI": K * d,
        "EEE": d * (d + 1) // 2,
        "VVV": K * d * (d + 1) // 2,
    }
    if family not in cov_params:
        raise ValueError(f"unknown covariance family {family!r}")
    return (K - 1) + K * d + cov_params[family]


def estimate_family_covariances(
    family: str,
    scatters: np.ndarray,
    counts: np.ndarray,
    total: int,
) -> np.ndarray:
    """Closed-form covariance estimates from per-component scatters.

    For EEE and VVV, ``scatters[k]`` is the d x d sum of outer products of
    the centered rows assigned to component k. The spherical and diagonal
    families need only its diagonal, so for them ``scatters`` is K x d:
    per-dimension sums of squares. ``counts[k]`` is the number of rows of
    component k. The result is always a K x d x d covariance stack.
    Components with ``counts[k] == 0`` get a NaN matrix in per-component
    families and must be patched by the caller; shared families pool over
    all components and are unaffected.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown covariance family {family!r}")
    scatters = np.asarray(scatters, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    K, d = scatters.shape[:2]
    expected = (K, d) if family in DIAGONAL_FAMILIES else (K, d, d)
    if scatters.shape != expected:
        raise ValueError(f"{family} needs scatters of shape {expected}, got {scatters.shape}")
    eye = np.eye(d)
    pooled = scatters.sum(axis=0)
    if family == "EII":
        lam = float(pooled.sum()) / (d * total)
        return np.broadcast_to(lam * eye, (K, d, d)).copy()
    if family == "EEI":
        return np.broadcast_to(np.diag(pooled / total), (K, d, d)).copy()
    if family == "EEE":
        return np.broadcast_to(pooled / total, (K, d, d)).copy()
    out = np.full((K, d, d), np.nan)
    for k in range(K):
        if counts[k] == 0:
            continue
        if family == "VII":
            out[k] = (float(scatters[k].sum()) / (d * counts[k])) * eye
        elif family == "VVI":
            out[k] = np.diag(scatters[k] / counts[k])
        else:
            out[k] = scatters[k] / counts[k]
    return out


def save_model(model: MixtureModel, path) -> None:
    """Serialize a model as JSON. Floats use shortest round-trip decimals."""
    payload = {
        "format": "mbss-model",
        "version": 1,
        "family": model.family,
        "weights": model.weights.tolist(),
        "means": [c.mean.tolist() for c in model.components],
        "covariances": [c.covariance.tolist() for c in model.components],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MixtureModel:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "mbss-model":
        raise DataFormatError(f"{path}: not a serialized mixture model")
    try:
        return MixtureModel.from_arrays(
            np.asarray(payload["weights"], dtype=np.float64),
            np.asarray(payload["means"], dtype=np.float64),
            np.asarray(payload["covariances"], dtype=np.float64),
            payload["family"],
        )
    except (KeyError, ValueError) as exc:
        raise DataFormatError(f"{path}: malformed model file: {exc}") from exc
