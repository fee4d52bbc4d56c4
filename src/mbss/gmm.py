"""Finite Gaussian mixtures under constrained covariance families.

All density math happens in log space. Six covariance families are
supported, named by the volume/shape/orientation convention:

    EII  lambda * I                 spherical, shared volume
    VII  lambda_k * I               spherical, per-component volume
    EEI  diag(a)                    diagonal, shared across components
    VVI  diag(a_k)                  diagonal, per component
    EEE  full, shared across components
    VVV  full, per component

A mixture is weights, K x d means and K components; a shared family holds
one component K times. A component is one covariance in its family's
shape: d variances for the spherical and diagonal families, a d x d matrix
for EEE and VVV, factored once as W = L^-1, the inverse of its lower
Cholesky factor (Sigma^-1 = W^T W).

``log_joint`` scores the diagonal families on 0/1 rows with one product,
(1/v - 2 mu/v) X^T + sum(mu^2/v), since x^2 = x for them. Every other
case reads rows B = ROW_BLOCK // d at a time into buffers that do not
grow with N. The diagonal families expand a block D = X - c about the
column mean c, which keeps rows far from the origin from cancelling, with
two products, (D * D)(1/v)^T - 2 D((mu - c)/v)^T + sum((mu - c)^2/v).
EEE and VVV, when a component's W differs from the previous one's (once
for EEE, K times for VVV), fill one C-ordered d x B buffer Z^T = W X^T - W c
about that component's mean c, O(B d^2) with W's zero upper-right block
skipped, and |Z|^2, which is that component's quad; each further
component sharing W costs one product, |Z|^2 - 2 w^T Z^T + |w|^2 for
w = W(mu - c).
The closed-form estimators follow Celeux & Govaert (1995). They and
``labeled_log_likelihood`` read rows only through per-class counts, means
and scatters (``class_stats``), which ``merge_class_stats`` combines
across row blocks. On 0/1 rows these come from exact integer ``Moments``,
class sums s and Grams G: the scatter is G - s s^T / n, or s - s^2 / n
per dimension. Other rows are centered on their class mean a block at a
time, so a fit's working memory is O(K d^2 + d B), not O(N d).
``estimate`` is the one path from those statistics to a mixture: the CEM
start, every CM-step and LDA's pooled covariance.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .dataset import is_binary
from .errors import DataFormatError, SingularCovarianceError

FAMILIES = ("EII", "VII", "EEI", "VVI", "EEE", "VVV")

_LOG_2PI = float(np.log(2.0 * np.pi))

# The covariance ridge: REGULARIZATION times the mean variance.
REGULARIZATION = 1e-6

# Rows are scored and summed ROW_BLOCK // d at a time (1 MiB of float64
# cells), except the diagonal families' one product on 0/1 rows, so no
# kernel's working memory grows with N.
ROW_BLOCK = 1 << 17


def row_logsumexp(joint: np.ndarray) -> np.ndarray:
    """Stable log(sum(exp(row))) of each row of a ``log_joint`` matrix.

    Exponentiating ``joint`` less these values gives the posteriors, and
    their sum is the rows' observed log-likelihood.
    """
    shift = joint.max(axis=1, keepdims=True)
    shift = np.where(np.isfinite(shift), shift, 0.0)
    return np.log(np.exp(joint - shift).sum(axis=1)) + shift[:, 0]


@dataclass
class ComponentParams:
    """One positive definite covariance, factored once; the mixture holds the means.

    ``covariance`` is either a vector of d variances (the spherical and
    diagonal families; ``inv_cholesky`` is None) or a symmetric d x d matrix
    whose lower Cholesky factor L is cached as its inverse W = L^-1, so that
    Sigma^-1 = W^T W. W is exactly lower-triangular: its strict upper
    triangle holds zeros, not the inverse's rounding noise, because
    ``log_joint`` skips that block. ``log_det`` is computed once either way,
    from the variances or from diag(L).
    """

    covariance: np.ndarray
    inv_cholesky: np.ndarray | None = field(init=False, repr=False)
    log_det: float = field(init=False)

    def __post_init__(self) -> None:
        cov = np.asarray(self.covariance, dtype=np.float64)
        d = cov.shape[0] if cov.ndim else 0
        if cov.shape not in ((d,), (d, d)):
            raise ValueError(f"covariance must be a vector or a square matrix, not {cov.shape}")
        if cov.ndim == 1:
            chol = None
            if not (cov > 0.0).all():
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
        self.log_det = 2.0 * float(np.log(np.sqrt(cov) if chol is None else np.diag(chol)).sum())
        self.covariance = cov
        self.inv_cholesky = None if chol is None else _lower_inverse(chol)

    @property
    def d(self) -> int:
        return self.covariance.shape[0]


def _lower_inverse(L: np.ndarray, W: np.ndarray | None = None) -> np.ndarray:
    """The inverse W of a lower-triangular L, with exact zeros above its diagonal.

    Blockwise, [[A, 0], [B, C]]^-1 = [[A^-1, 0], [-C^-1 B A^-1, C^-1]]: the
    halves are inverted into W's diagonal blocks, recursing down to 32 x 32,
    where the general inverse's rounding noise above the diagonal is cut off.
    """
    d = L.shape[0]
    W = np.zeros_like(L) if W is None else W
    if d <= 32:
        W[...] = np.tril(np.linalg.inv(L))
        return W
    h = d // 2
    _lower_inverse(L[:h, :h], W[:h, :h])
    _lower_inverse(L[h:, h:], W[h:, h:])
    W[h:, :h] = W[h:, h:] @ (L[h:, :h] @ W[:h, :h])
    W[h:, :h] *= -1.0
    return W


def make_component(covariance: np.ndarray) -> ComponentParams:
    """Build a component from an estimated covariance plus one ridge.

    ``covariance`` is a variance vector or a d x d matrix. Adds
    ``REGULARIZATION * t`` to the variances, t their mean: rounding pulls a
    scatter's smallest eigenvalue below 0 by only about n d 2^-53 t, and an
    estimate the ridge leaves indefinite raises SingularCovarianceError.
    """
    cov = np.asarray(covariance, dtype=np.float64)
    t = float(cov.sum() if cov.ndim == 1 else np.trace(cov)) / cov.shape[0]
    if not t > 0.0:
        # Zero or degenerate scatter (e.g. identical rows); fall back to an
        # absolute scale so the ridge is nonzero.
        t = 1.0
    ridge = REGULARIZATION * t
    return ComponentParams(cov + (ridge if cov.ndim == 1 else ridge * np.eye(cov.shape[0])))


# Families whose covariances are diagonal (spherical ones included), and
# families whose components all share one covariance.
DIAGONAL_FAMILIES = ("EII", "VII", "EEI", "VVI")
SHARED_FAMILIES = ("EII", "EEI", "EEE")


@dataclass
class MixtureModel:
    """A K-component Gaussian mixture: weights, K x d means, components in its family's shape.

    ``log_dets`` (K) stacks the components' own, ``log_weights`` is -inf
    for a zero weight, and ``inverse_variances`` (K x d) holds 1/v for the
    diagonal families (None for EEE and VVV), so the kernels score all
    components at once.
    """

    weights: np.ndarray
    means: np.ndarray
    components: list[ComponentParams]
    family: str
    log_weights: np.ndarray = field(init=False, repr=False, compare=False)
    log_dets: np.ndarray = field(init=False, repr=False, compare=False)
    inverse_variances: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown covariance family {self.family!r}")
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        if len(self.components) != w.shape[0]:
            raise ValueError("one weight per component required")
        if w.shape[0] < 1:
            raise ValueError("mixture needs at least one component")
        if (w < 0.0).any():
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum()!r}")
        if len({c.d for c in self.components}) != 1:
            raise ValueError("components disagree on dimension")
        means = np.array(self.means, dtype=np.float64)
        if means.shape != (w.shape[0], self.components[0].d):
            raise ValueError(
                f"means have shape {means.shape}, expected {(w.shape[0], self.components[0].d)}"
            )
        covs = [c.covariance for c in self.components]
        diagonal = self.family in DIAGONAL_FAMILIES
        if any(c.ndim != (1 if diagonal else 2) for c in covs):
            shape = "variance vectors" if diagonal else "d x d covariances"
            raise ValueError(f"family {self.family} needs {shape}")
        if self.family in SHARED_FAMILIES and any(
            c is not covs[0] and not np.array_equal(c, covs[0]) for c in covs
        ):
            raise ValueError(f"family {self.family} needs one covariance for all components")
        variances = np.array(covs) if diagonal else None
        if self.family in ("EII", "VII") and (variances != variances[:, :1]).any():
            raise ValueError(f"family {self.family} needs equal variances")
        self.weights = w
        with np.errstate(divide="ignore"):
            self.log_weights = np.log(w)
        self.means = means
        self.log_dets = np.array([c.log_det for c in self.components])
        self.inverse_variances = None if variances is None else 1.0 / variances

    @property
    def K(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].d


def _gaussian_log(quad: np.ndarray, d: int, log_det) -> np.ndarray:
    """-0.5 (quad + d log 2 pi + log det Sigma) for squared Mahalanobis distances."""
    return -0.5 * (quad + d * _LOG_2PI + log_det)


def log_joint(model: MixtureModel, X: np.ndarray, binary: bool | None = None) -> np.ndarray:
    """Matrix of log(pi_k) + log f_k(x_j), rows = samples, cols = components.

    The matrix is the transpose of a C-ordered K x N array, so reductions
    over a row's K entries (max, sum, log-sum-exp) sweep contiguous columns.

    The diagonal families score 0/1 rows (``binary``, the caller's
    ``is_binary(X)``, checked here when None) with one product,
    (1/v - 2 mu/v) X^T + sum(mu^2/v), since x^2 = x. Every other case
    takes the rows B = max(1, ROW_BLOCK // d) at a time. The diagonal
    families expand each block D = X - c about the column mean c with two
    products, (D * D)(1/v)^T - 2 D(delta/v)^T + sum(delta^2/v) for
    delta = mu - c. EEE and VVV whiten a block about c, the mean of the first
    component of each run sharing an inverse Cholesky factor W (one run for
    EEE, K for VVV), into one C-ordered d x B buffer Z^T = W X^T - W c,
    allocated once per call and reused for every block and run; with
    w = W (mu - c), quad = |Z|^2 - 2 w^T Z^T + |w|^2 goes straight into the
    block's slice of the output. W is lower-triangular, so with h = d // 2
    two products fill Z^T without its zero upper-right block and without
    copying either operand. The first component of a run has w = 0, so its
    quad is |Z|^2 with no product.
    """
    X = np.atleast_2d(np.asarray(X))
    inv = model.inverse_variances
    binary = inv is not None and (is_binary(X) if binary is None else binary)
    X = X.astype(np.float64, copy=False)
    n, d = X.shape
    if d != model.d:
        raise ValueError(f"expected dimension {model.d}, got {d}")
    logw, log_dets = model.log_weights[:, None], model.log_dets[:, None]
    if binary:
        # 0/1 rows: one product reads X once
        scaled = model.means * inv
        quad = (inv - 2.0 * scaled) @ X.T
        quad += (model.means * scaled).sum(axis=1, keepdims=True)
        return (logw + _gaussian_log(quad, d, log_dets)).T
    out = np.empty((model.K, n))
    step = max(1, ROW_BLOCK // d)
    if inv is not None and n:
        col_mean = X.mean(axis=0)
        delta = model.means - col_mean
        scaled = delta * inv
        offset = (delta * scaled).sum(axis=1, keepdims=True)
    buffer = np.empty(d * min(step, n)) if inv is None else None
    h = d // 2
    for start in range(0, n, step):
        rows = X[start:start + step]
        if inv is not None:
            D = rows - col_mean
            quad = inv @ (D * D).T + (-2.0 * scaled) @ D.T + offset
            out[:, start:start + step] = logw + _gaussian_log(quad, d, log_dets)
            continue
        Zt = buffer[: d * rows.shape[0]].reshape(d, rows.shape[0])
        W = None
        for k, comp in enumerate(model.components):
            if comp.inv_cholesky is not W:
                W, center = comp.inv_cholesky, model.means[k]
                # W's upper-right h x (d - h) block is zero: skip it
                np.matmul(W[:h, :h], rows[:, :h].T, out=Zt[:h])
                np.matmul(W[h:], rows.T, out=Zt[h:])
                Zt -= (W @ center)[:, None]
                quad = norms = np.einsum("ij,ij->j", Zt, Zt)
            else:
                wd = W @ (model.means[k] - center)
                quad = norms - 2.0 * (wd @ Zt) + wd @ wd
            out[k, start:start + step] = logw[k] + _gaussian_log(quad, d, comp.log_det)
    return out.T


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

    q_k = (M_k - mu_k)^T Sigma_k^-1 (M_k - mu_k). The diagonal families take
    all classes at once from the inverse variances; EEE and VVV take one
    product per class with the inverse Cholesky factor W:
    tr(Sigma_k^-1 S_k) = sum((W S_k) * W) and q_k = |W (M_k - mu_k)|^2.
    """
    counts, means, scatters = stats
    present = counts.nonzero()[0]
    n = counts[present]
    delta = means[present] - model.means[present]
    if model.inverse_variances is not None:
        inv = model.inverse_variances[present]
        quad = ((scatters[present] + n[:, None] * (delta * delta)) * inv).sum(axis=1)
    else:
        quad = np.empty(len(present))
        for i, k in enumerate(present):
            W = model.components[k].inv_cholesky
            z = W @ delta[i]
            quad[i] = np.sum((W @ scatters[k]) * W) + n[i] * (z @ z)
    logw, log_dets = model.log_weights[present], model.log_dets[present]
    return float((n * logw - 0.5 * (n * (model.d * _LOG_2PI + log_dets) + quad)).sum())


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
    stats = class_stats(dataset.labeled_features, dataset.labels, dataset.K, model.family)
    labeled = labeled_log_likelihood(model, stats)
    return labeled + assigned_log_likelihood(log_joint(model, dataset.unlabeled_features), hard)


def observed_log_likelihood(model, dataset) -> float:
    """Training log-likelihood: labeled joints plus marginalized unlabeled terms."""
    stats = class_stats(dataset.labeled_features, dataset.labels, dataset.K, model.family)
    labeled = labeled_log_likelihood(model, stats)
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


def estimate_family_covariances(family: str, scatters: np.ndarray, counts) -> np.ndarray:
    """Closed-form covariance estimates from per-component scatters.

    For EEE and VVV, ``scatters[k]`` is the d x d sum of outer products of
    the centered rows assigned to component k, and the result is a K x d x d
    covariance stack. The spherical and diagonal families need only its
    diagonal: for them ``scatters`` is K x d (per-dimension sums of
    squares) and the result is K x d variances. ``counts[k]``, the number
    of rows of component k, is positive; the shared families divide by
    their sum.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown covariance family {family!r}")
    scatters = np.asarray(scatters, dtype=np.float64)
    K, d = scatters.shape[:2]
    expected = (K, d) if family in DIAGONAL_FAMILIES else (K, d, d)
    if scatters.shape != expected:
        raise ValueError(f"{family} needs scatters of shape {expected}, got {scatters.shape}")
    counts = np.asarray(counts, dtype=np.float64)
    pooled = scatters.sum(axis=0)
    if family == "EII":
        return np.full(expected, float(pooled.sum()) / (d * counts.sum()))
    if family in SHARED_FAMILIES:
        return np.broadcast_to(pooled / counts.sum(), expected).copy()
    if family == "VII":
        scatters, counts = scatters.sum(axis=1, keepdims=True), d * counts
    counts = counts.reshape((K,) + (1,) * (scatters.ndim - 1))
    return np.broadcast_to(scatters / counts, expected).copy()


def estimate(stats, family: str) -> MixtureModel:
    """The mixture that class statistics estimate: the one way to build a model from them.

    ``stats`` is ``class_stats`` in the family's shape, every class with
    rows; a class without is a ValueError. Weights are the class
    proportions, renormalized; means are the class means; covariances are
    the family estimates, ridged by ``make_component``. A shared family
    builds and factors its one covariance once and holds it K times.
    """
    counts, means, scatters = stats
    empty = (np.flatnonzero(counts == 0) + 1).tolist()
    if empty:
        raise ValueError(f"classes {empty} have no rows")
    n = int(counts.sum())
    covs = estimate_family_covariances(family, scatters, counts)
    if family in SHARED_FAMILIES:
        components = [make_component(covs[0])] * len(covs)
    else:
        components = [make_component(cov) for cov in covs]
    weights = counts / n
    return MixtureModel(weights / weights.sum(), means, components, family)


@dataclass
class Moments:
    """Class moments of 0/1 rows under one partition, exact integers held in float64.

    ``labels`` is the partition (1..K, 0 for a row in no class), ``sums``
    the K x d class sums H X and ``grams`` the K Grams X_k^T X_k (EEE and
    VVV; None otherwise). On 0/1 rows each is an integer below 2^53, which
    float64 sums exactly in any order: ``move`` updates them by the rows
    that change class and gives the bits a fresh pass would.
    """

    labels: np.ndarray
    sums: np.ndarray
    grams: np.ndarray | None

    @classmethod
    def empty(cls, n: int, K: int, d: int, full: bool) -> "Moments":
        """n rows in no class yet: every moment is 0."""
        grams = np.zeros((K, d, d)) if full else None
        return cls(np.zeros(n, dtype=np.int64), np.zeros((K, d)), grams)

    def move(self, X: np.ndarray, labels: np.ndarray) -> "Moments":
        """Take the moments to the partition ``labels`` of the 0/1 rows X, in place.

        Each row whose label changed is added to its new class and taken
        from its old one, ROW_BLOCK // d changed rows at a time. A block's
        Gram entries are integers of at most ROW_BLOCK < 2^24, so float32
        holds them exactly and computes them at twice float64's speed.
        """
        changed = np.flatnonzero(labels != self.labels)
        classes = np.arange(1, len(self.sums) + 1)[:, None]
        step = max(1, ROW_BLOCK // max(1, X.shape[1]))
        for start in range(0, len(changed), step):
            idx = changed[start:start + step]
            # a run of consecutive rows (every row, from ``empty``) is sliced, not gathered
            rows = X[idx[0]:idx[-1] + 1] if idx[-1] - idx[0] == len(idx) - 1 else X[idx]
            joined, left = classes == labels[idx], classes == self.labels[idx]
            self.sums += (joined.astype(np.float64) - left) @ rows
            if self.grams is None:
                continue
            rows = rows.astype(np.float32)
            for members, sign in ((joined, 1.0), (left, -1.0)):
                for k in np.flatnonzero(members.any(axis=1)):
                    part = rows[members[k]]
                    self.grams[k] += sign * (part.T @ part)
        self.labels = np.array(labels, dtype=np.int64)
        return self

    def stats(self):
        """``class_stats`` from the moments: n_k, mean s_k / n_k and the scatter.

        The scatter is s_k - s_k^2 / n_k per dimension (x^2 = x) or
        G_k - s_k s_k^T / n_k, the outer product exact and so symmetric.
        """
        K = len(self.sums)
        counts = np.bincount(self.labels, minlength=K + 1)[1:].astype(np.int64)
        n = np.maximum(counts, 1)[:, None]
        s = self.sums
        if self.grams is None:
            return counts, s / n, s - s * s / n
        return counts, s / n, self.grams - s[:, :, None] * s[:, None, :] / n[:, :, None]


def class_stats(X: np.ndarray, y: np.ndarray, K: int, family: str):
    """Counts, means and centered scatters per class (labels 1..K).

    Scatters are d x d for the full families and per-dimension sums of
    squares (K x d) for the spherical and diagonal ones, the shapes
    ``estimate_family_covariances`` takes. An empty class gets a zero mean
    and a zero scatter, which ``merge_class_stats`` needs no branch for.

    X is read as float64. 0/1 rows (``is_binary``) take their statistics
    from exact integer ``Moments``, summed over blocks of ROW_BLOCK // d
    rows. Other rows' means are H^T X / n, H the one-hot label matrix, and
    their scatters are summed over the same row blocks in two passes: R, a
    copy of one block's rows of the class, is centered on the class mean in
    place, and adds its column sums of squares (spherical and diagonal
    families) or R^T R (EEE and VVV, symmetrized once).
    """
    X = np.asarray(X, dtype=np.float64)
    diagonal = family in DIAGONAL_FAMILIES
    if is_binary(X):
        return Moments.empty(len(X), K, X.shape[1], not diagonal).move(X, y).stats()
    counts = np.bincount(y, minlength=K + 1)[1:].astype(np.int64)
    H = (np.arange(1, K + 1)[:, None] == y).astype(np.float64)
    means = H @ X / np.maximum(counts, 1)[:, None]
    d = X.shape[1]
    scatters = np.zeros((K, d) if diagonal else (K, d, d))
    step = max(1, ROW_BLOCK // d)
    for start in range(0, X.shape[0], step):
        chunk, labels = X[start:start + step], y[start:start + step]
        for k in np.flatnonzero(counts):
            rows = chunk[labels == k + 1]
            rows -= means[k]
            scatters[k] += np.einsum("ij,ij->j", rows, rows) if diagonal else rows.T @ rows
    if not diagonal:
        scatters = 0.5 * (scatters + scatters.transpose(0, 2, 1))
    return counts, means, scatters


def merge_class_stats(a, b):
    """``class_stats`` of two row blocks combined from each block's statistics.

    Per class, the pairwise update of Chan, Golub and LeVeque (1979): with
    n and m rows and delta = mean_b - mean_a, the merged mean is
    mean_a + delta m/(n+m) and the scatter S_a + S_b + n m/(n+m) delta delta^T
    (delta^2 per dimension for K x d scatters), for all classes at once. An
    empty class's zero mean and scatter in one block leave the other's as is.
    """
    (n, mean_a, scatter_a), (m, mean_b, scatter_b) = a, b
    counts = n + m
    total = np.maximum(counts, 1)
    delta = mean_b - mean_a
    outer = delta * delta if scatter_a.ndim == 2 else delta[:, :, None] * delta[:, None, :]
    weight = (n * m / total).reshape((-1,) + (1,) * (outer.ndim - 1))
    means = mean_a + delta * (m / total)[:, None]
    scatters = scatter_a + scatter_b + weight * outer
    return counts, means, scatters


def save_model(model: MixtureModel, path) -> None:
    """Serialize a model as JSON: each covariance in its family's shape, round-trip floats."""
    payload = {
        "format": "mbss-model",
        "version": 2,
        "family": model.family,
        "weights": model.weights.tolist(),
        "means": model.means.tolist(),
        "covariances": [c.covariance.tolist() for c in model.components],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> MixtureModel:
    """Read a ``save_model`` file; a malformed or non-finite one is a DataFormatError.

    A shared family's K stored covariances must be equal; it is built and
    factored once and held K times, as ``estimate`` holds it.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "mbss-model":
        raise DataFormatError(f"{path}: not a serialized mixture model")
    if payload.get("version") != 2:
        raise DataFormatError(
            f"{path}: model file version {payload.get('version')!r} is not 2; refit the model"
        )
    try:
        weights = np.asarray(payload["weights"], dtype=np.float64)
        means = np.asarray(payload["means"], dtype=np.float64)
        covs = [np.asarray(c, dtype=np.float64) for c in payload["covariances"]]
        if not all(np.all(np.isfinite(a)) for a in (weights, means, *covs)):
            raise ValueError("parameters must be finite")
        family = payload["family"]
        if family in SHARED_FAMILIES and covs:
            if any(not np.array_equal(c, covs[0]) for c in covs):
                raise ValueError(f"family {family} needs one covariance for all components")
            components = [ComponentParams(covs[0])] * len(covs)
        else:
            components = [ComponentParams(c) for c in covs]
        return MixtureModel(weights, means, components, family)
    except (KeyError, TypeError, ValueError, SingularCovarianceError) as exc:
        raise DataFormatError(f"{path}: malformed model file: {exc}") from exc
