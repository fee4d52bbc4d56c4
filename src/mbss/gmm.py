"""Finite Gaussian mixtures under constrained covariance families.

All density math happens in log space. Six covariance families are
supported, named by the volume/shape/orientation convention:

    EII  lambda * I                 spherical, shared volume
    VII  lambda_k * I               spherical, per-component volume
    EEI  diag(a)                    diagonal, shared across components
    VVI  diag(a_k)                  diagonal, per component
    EEE  full, shared across components
    VVV  full, per component

Each component stores its covariance in its family's shape: a vector of d
variances for the spherical and diagonal families, a d x d matrix for EEE
and VVV, factored once as W = L^-1, the inverse of its lower Cholesky
factor (Sigma^-1 = W^T W). ``log_density`` scales squared deviations by
the inverse variances, O(N d), or multiplies them by W, O(N d^2).
``log_joint`` calls it per component, except for EEE, which whitens X with
the shared W once and subtracts each component's whitened mean.
The closed-form estimators follow Celeux & Govaert (1995). They and
``labeled_log_likelihood`` read rows only through per-class counts, means
and scatters (``class_stats``), which ``merge_class_stats`` combines
across row blocks. ``estimate`` is the one path from those statistics to
a mixture: the CEM start, every CM-step and LDA's pooled covariance.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, SingularCovarianceError

FAMILIES = ("EII", "VII", "EEI", "VVI", "EEE", "VVV")

_LOG_2PI = float(np.log(2.0 * np.pi))

# Regularization escalates by x10 from the configured epsilon up to this cap.
MAX_REGULARIZATION = 1e-2


def row_logsumexp(joint: np.ndarray) -> np.ndarray:
    """Stable log(sum(exp(row))) of each row of a ``log_joint`` matrix.

    Exponentiating ``joint`` less these values gives the posteriors, and
    their sum is the rows' observed log-likelihood.
    """
    shift = np.max(joint, axis=1, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.log(np.sum(np.exp(joint - shift), axis=1)) + shift[:, 0]


@dataclass
class ComponentParams:
    """One Gaussian component: mean vector and positive definite covariance.

    ``covariance`` is either a vector of d variances (the spherical and
    diagonal families; ``inv_cholesky`` is None) or a symmetric d x d matrix
    whose lower Cholesky factor L is cached as its inverse W = L^-1, so that
    Sigma^-1 = W^T W. ``log_det`` is computed once either way, from the
    variances or from diag(L).
    """

    mean: np.ndarray
    covariance: np.ndarray
    inv_cholesky: np.ndarray | None = field(init=False, repr=False)
    log_det: float = field(init=False)

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = np.asarray(self.covariance, dtype=np.float64)
        d = mean.shape[0]
        if cov.shape not in ((d,), (d, d)):
            raise ValueError(f"mean has dimension {d} but covariance has shape {cov.shape}")
        if cov.ndim == 1:
            chol = None
            if not np.all(cov > 0.0):
                raise SingularCovarianceError("covariance is not positive definite")
        else:
            scale = float(np.max(np.abs(cov))) if cov.size else 0.0
            if not np.allclose(cov, cov.T, atol=1e-8 * (1.0 + scale), rtol=0.0):
                raise ValueError("covariance must be symmetric")
            cov = 0.5 * (cov + cov.T)
            try:
                chol = np.linalg.cholesky(cov)
            except np.linalg.LinAlgError as exc:
                raise SingularCovarianceError("covariance is not positive definite") from exc
        # sqrt(v) is what cholesky(diag(v)) puts on its diagonal, bit for bit.
        self.log_det = 2.0 * float(np.sum(np.log(np.sqrt(cov) if chol is None else np.diag(chol))))
        self.mean = mean
        self.covariance = cov
        self.inv_cholesky = None if chol is None else np.linalg.inv(chol)

    @property
    def d(self) -> int:
        return self.mean.shape[0]

    def with_mean(self, mean: np.ndarray) -> "ComponentParams":
        """This covariance, its factor and log-determinant around another mean."""
        mean = np.asarray(mean, dtype=np.float64).reshape(-1)
        if mean.shape != self.mean.shape:
            raise ValueError(f"mean has dimension {mean.shape[0]}, expected {self.d}")
        other = copy.copy(self)
        other.mean = mean
        return other


def make_component(
    mean: np.ndarray, covariance: np.ndarray, regularization: float = 1e-6
) -> ComponentParams:
    """Build a component from an estimated covariance, regularizing it.

    ``covariance`` is a variance vector or a d x d matrix. Adds ``eps * t``
    to the variances where ``t`` is their mean; if the component is still
    not positive definite, eps escalates by factors of 10 up to
    ``MAX_REGULARIZATION`` before giving up.
    """
    cov = np.asarray(covariance, dtype=np.float64)
    t = float(np.mean(cov if cov.ndim == 1 else np.diagonal(cov)))
    if not t > 0.0:
        # Zero or degenerate scatter (e.g. identical rows); fall back to an
        # absolute scale so the ridge is nonzero.
        t = 1.0
    eps = float(regularization)
    while True:
        ridge = eps * t
        try:
            return ComponentParams(
                mean, cov + ridge if cov.ndim == 1 else cov + ridge * np.eye(cov.shape[0])
            )
        except SingularCovarianceError:
            if eps >= MAX_REGULARIZATION:
                raise SingularCovarianceError(
                    f"covariance not positive definite even at regularization {eps:g}"
                ) from None
            eps *= 10.0


# Families whose covariances are diagonal (spherical ones included), and
# families whose components all share one covariance.
DIAGONAL_FAMILIES = ("EII", "VII", "EEI", "VVI")
SHARED_FAMILIES = ("EII", "EEI", "EEE")


@dataclass
class MixtureModel:
    """A K-component Gaussian mixture whose components have its family's shape."""

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
        covs = [c.covariance for c in self.components]
        diagonal = self.family in DIAGONAL_FAMILIES
        if any(c.ndim != (1 if diagonal else 2) for c in covs):
            shape = "variance vectors" if diagonal else "d x d covariances"
            raise ValueError(f"family {self.family} needs {shape}")
        if self.family in ("EII", "VII") and any(np.any(c != c[0]) for c in covs):
            raise ValueError(f"family {self.family} needs equal variances")
        if self.family in SHARED_FAMILIES and any(not np.array_equal(c, covs[0]) for c in covs):
            raise ValueError(f"family {self.family} needs one covariance for all components")
        self.weights = w

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].d


def _gaussian_log(quad: np.ndarray, component: ComponentParams) -> np.ndarray:
    """-0.5 (quad + d log 2 pi + log det Sigma) for squared Mahalanobis distances."""
    return -0.5 * (quad + component.d * _LOG_2PI + component.log_det)


def log_density(component: ComponentParams, x: np.ndarray) -> float | np.ndarray:
    """Log of the Gaussian density at ``x`` (a vector, or a matrix of rows).

    Computes -0.5 (x-mu)^T Sigma^-1 (x-mu) - 0.5 log det(2 pi Sigma) from
    the inverse variances or the cached inverse Cholesky factor.
    """
    X = np.asarray(x, dtype=np.float64)
    single = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != component.d:
        raise ValueError(f"expected dimension {component.d}, got {X.shape[1]}")
    diff = X - component.mean
    if component.inv_cholesky is None:
        quad = np.multiply(diff, diff, out=diff) @ (1.0 / component.covariance)
    else:
        z = diff @ component.inv_cholesky.T
        quad = np.sum(z * z, axis=1)
    out = _gaussian_log(quad, component)
    return float(out[0]) if single else out


def log_joint(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """Matrix of log(pi_k) + log f_k(x_j), rows = samples, cols = components.

    EEE whitens X with the shared inverse Cholesky factor once; every other
    family scores each component with ``log_density``.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[1] != model.d:
        raise ValueError(f"expected dimension {model.d}, got {X.shape[1]}")
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    comps = model.components
    out = np.empty((X.shape[0], model.K))
    if model.family == "EEE":
        W = comps[0].inv_cholesky
        Z = X @ W.T
        for k, comp in enumerate(comps):
            diff = Z - W @ comp.mean
            out[:, k] = logw[k] + _gaussian_log(np.sum(diff * diff, axis=1), comp)
    else:
        for k, comp in enumerate(comps):
            out[:, k] = logw[k] + log_density(comp, X)
    return out


def log_responsibilities(model: MixtureModel, X: np.ndarray) -> np.ndarray:
    """Row-normalized posterior membership log-probabilities.

    Each row exponentiates to a probability vector; normalization uses the
    log-sum-exp shift so widely separated components stay finite.
    """
    joint = log_joint(model, X)
    return joint - row_logsumexp(joint)[:, None]


def labeled_log_likelihood(model, stats) -> float:
    """Sum of the labeled rows' joint terms under their true classes.

    ``stats`` is the labeled block's ``class_stats`` in the model family's
    shape. Class k, with n_k rows, mean M_k and centered scatter S_k,
    contributes in closed form

        n_k log w_k - 1/2 [n_k (d log 2 pi + log det Sigma_k)
                           + tr(Sigma_k^-1 S_k) + n_k q_k],

    q_k = (M_k - mu_k)^T Sigma_k^-1 (M_k - mu_k). The diagonal families need
    only the inverse variances; EEE and VVV take one product each with the
    inverse Cholesky factor W: tr(Sigma_k^-1 S_k) = sum((W S_k) * W) and
    q_k = |W (M_k - mu_k)|^2.
    """
    counts, means, scatters = stats
    with np.errstate(divide="ignore"):
        logw = np.log(model.weights)
    total = 0.0
    for k in np.flatnonzero(counts):
        comp, n = model.components[k], counts[k]
        delta = means[k] - comp.mean
        W = comp.inv_cholesky
        if W is None:
            inv = 1.0 / comp.covariance
            quad = scatters[k] @ inv + n * ((delta * delta) @ inv)
        else:
            z = W @ delta
            quad = np.sum((W @ scatters[k]) * W) + n * (z @ z)
        total += n * logw[k] - 0.5 * (n * (comp.d * _LOG_2PI + comp.log_det) + quad)
    return float(total)


def _labeled_stats(model, dataset):
    """The labeled block's class statistics in the model family's shape."""
    return class_stats(dataset.labeled_features, dataset.labels, dataset.K, model.family)


def assigned_log_likelihood(joint: np.ndarray, hard_labels: np.ndarray) -> float:
    """Sum of each row's ``log_joint`` term under its hard label (1..K)."""
    return float(joint[np.arange(joint.shape[0]), hard_labels - 1].sum())


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
    labeled = labeled_log_likelihood(model, _labeled_stats(model, dataset))
    return labeled + assigned_log_likelihood(log_joint(model, dataset.unlabeled_features), hard)


def observed_log_likelihood(model, dataset) -> float:
    """Training log-likelihood: labeled joints plus marginalized unlabeled terms."""
    labeled = labeled_log_likelihood(model, _labeled_stats(model, dataset))
    return labeled + float(row_logsumexp(log_joint(model, dataset.unlabeled_features)).sum())


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
    the centered rows assigned to component k, and the result is a K x d x d
    covariance stack. The spherical and diagonal families need only its
    diagonal: for them ``scatters`` is K x d (per-dimension sums of
    squares) and the result is K x d variances. ``counts[k]`` is the number
    of rows of component k. Components with ``counts[k] == 0`` get NaN in
    per-component families and must be patched by the caller; shared
    families pool over all components and are unaffected.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown covariance family {family!r}")
    scatters = np.asarray(scatters, dtype=np.float64)
    counts = np.asarray(counts, dtype=np.float64)
    K, d = scatters.shape[:2]
    expected = (K, d) if family in DIAGONAL_FAMILIES else (K, d, d)
    if scatters.shape != expected:
        raise ValueError(f"{family} needs scatters of shape {expected}, got {scatters.shape}")
    pooled = scatters.sum(axis=0)
    if family == "EII":
        return np.full(expected, float(pooled.sum()) / (d * total))
    if family in SHARED_FAMILIES:
        return np.broadcast_to(pooled / total, expected).copy()
    out = np.full(expected, np.nan)
    for k in np.flatnonzero(counts):
        if family == "VII":
            out[k] = float(scatters[k].sum()) / (d * counts[k])
        else:
            out[k] = scatters[k] / counts[k]
    return out


def estimate(stats, family: str, regularization: float, previous=None) -> MixtureModel:
    """The mixture that class statistics estimate: the one way to build a model from them.

    ``stats`` is ``class_stats`` in the family's shape. Weights are the class
    proportions, an empty class floored at 1/n, renormalized; means are the
    class means; covariances are the family estimates, ridged by
    ``make_component``. A shared family builds and factors its one
    covariance once. An empty class keeps ``previous``'s mean and, in a
    per-component family, its component; without ``previous`` it is an error.
    """
    counts, means, scatters = stats
    n = int(counts.sum())
    empty = counts == 0
    if np.any(empty):
        if previous is None:
            raise ValueError(
                f"classes {(np.flatnonzero(empty) + 1).tolist()} received no members and "
                "no previous model was supplied to fall back on"
            )
        means = np.where(empty[:, None], [c.mean for c in previous.components], means)
    covs = estimate_family_covariances(family, scatters, counts, n)
    if family in SHARED_FAMILIES:
        first = make_component(means[0], covs[0], regularization)
        components = [first] + [first.with_mean(mean) for mean in means[1:]]
    else:
        components = [
            previous.components[k] if empty[k]
            else make_component(means[k], covs[k], regularization)
            for k in range(len(means))
        ]
    weights = np.where(empty, 1.0 / n, counts / n)
    return MixtureModel(weights / weights.sum(), components, family)


def class_stats(X: np.ndarray, y: np.ndarray, K: int, family: str):
    """Counts, means and centered scatters per class (labels 1..K).

    Scatters are d x d for the full families and per-dimension sums of
    squares (K x d) for the spherical and diagonal ones, the shapes
    ``estimate_family_covariances`` takes. An empty class gets a NaN mean
    and a zero scatter.
    """
    d = X.shape[1]
    diagonal = family in DIAGONAL_FAMILIES
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


def merge_class_stats(a, b):
    """``class_stats`` of two row blocks combined from each block's statistics.

    Per class, the pairwise update of Chan, Golub and LeVeque (1979): with
    n and m rows and delta = mean_b - mean_a, the merged mean is
    mean_a + delta m/(n+m) and the scatter S_a + S_b + n m/(n+m) delta delta^T
    (delta^2 per dimension for K x d scatters). A class without rows in one
    block keeps the other block's statistics bit for bit.
    """
    (n, mean_a, scatter_a), (m, mean_b, scatter_b) = a, b
    counts, means, scatters = n + m, mean_a.copy(), scatter_a.copy()
    for k in np.flatnonzero(m):
        if n[k] == 0:
            means[k], scatters[k] = mean_b[k], scatter_b[k]
            continue
        delta = mean_b[k] - mean_a[k]
        means[k] = mean_a[k] + delta * (m[k] / counts[k])
        outer = delta * delta if scatters.ndim == 2 else np.outer(delta, delta)
        scatters[k] = scatter_a[k] + scatter_b[k] + (n[k] * m[k] / counts[k]) * outer
    return counts, means, scatters


def save_model(model: MixtureModel, path) -> None:
    """Serialize a model as JSON: each covariance in its family's shape, round-trip floats."""
    payload = {
        "format": "mbss-model",
        "version": 2,
        "family": model.family,
        "weights": model.weights.tolist(),
        "means": [c.mean.tolist() for c in model.components],
        "covariances": [c.covariance.tolist() for c in model.components],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MixtureModel:
    """Read a ``save_model`` file; a malformed or non-finite one is a DataFormatError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "mbss-model":
        raise DataFormatError(f"{path}: not a serialized mixture model")
    if payload.get("version") != 2:
        raise DataFormatError(
            f"{path}: model file version {payload.get('version')!r} is not 2; refit the model"
        )
    try:
        weights = np.asarray(payload["weights"], dtype=np.float64)
        means = [np.asarray(m, dtype=np.float64) for m in payload["means"]]
        covs = [np.asarray(c, dtype=np.float64) for c in payload["covariances"]]
        if not all(np.all(np.isfinite(a)) for a in (weights, *means, *covs)):
            raise ValueError("parameters must be finite")
        components = [ComponentParams(m, c) for m, c in zip(means, covs, strict=True)]
        return MixtureModel(weights, components, payload["family"])
    except (KeyError, TypeError, ValueError, SingularCovarianceError) as exc:
        raise DataFormatError(f"{path}: malformed model file: {exc}") from exc
