"""Seeded synthetic mixture data for benchmarks and verification.

Randomness comes from NumPy's PCG64 via ``default_rng(seed)``, a widely
specified counter-based generator, so identical seeds reproduce identical
datasets across platforms. Draw order is fixed: component assignments
first, then Gaussian draws per component in ascending component index,
then the labeled/unlabeled split per class in ascending class index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ApiVocabulary, Dataset


@dataclass(frozen=True)
class SynthSpec:
    """Ground-truth mixture: weights, means, covariances, sizes and seed."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    n_samples: int
    label_fraction: float
    seed: int

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        covs = np.asarray(self.covariances, dtype=np.float64)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        K, d = means.shape
        if w.shape[0] != K or covs.shape != (K, d, d):
            raise ValueError("weights, means and covariances disagree on K or d")
        if not all(np.isfinite(a).all() for a in (w, means, covs)):
            raise ValueError("weights, means and covariances must be finite")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must be nonnegative and sum to 1")
        if not 0.0 < self.label_fraction <= 1.0:
            raise ValueError("label_fraction must be in (0, 1]")
        if self.n_samples < 1:
            raise ValueError("n_samples must be positive")
        for k in range(K):
            np.linalg.cholesky(covs[k])  # raises if not SPD
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covariances", covs)

    @property
    def K(self) -> int:
        return self.means.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


def feature_names(d: int) -> ApiVocabulary:
    return ApiVocabulary(tuple(f"f{i:03d}" for i in range(d)))


def sample_mixture(spec: SynthSpec):
    """Draw a dataset from the spec's mixture.

    Returns ``(dataset, unlabeled_truth)``: the dataset's labeled block
    carries true component indices as labels, and ``unlabeled_truth`` gives
    the hidden true component (1..K) of each unlabeled row in row order.

    The labeled/unlabeled split is drawn uniformly at random within each
    class at the requested fraction, with a floor of two labeled samples
    per non-empty class so any valid spec yields a fit-ready dataset.
    """
    rng = np.random.default_rng(spec.seed)
    n, K, d = spec.n_samples, spec.K, spec.d
    assign = rng.choice(K, size=n, p=spec.weights) + 1
    X = np.empty((n, d))
    for k in range(K):
        idx = np.flatnonzero(assign == k + 1)
        if idx.size == 0:
            continue
        z = rng.standard_normal((idx.size, d))
        X[idx] = spec.means[k] + z @ np.linalg.cholesky(spec.covariances[k]).T
    labeled = np.zeros(n, dtype=bool)
    for k in range(K):
        idx = np.flatnonzero(assign == k + 1)
        if idx.size == 0:
            continue
        if spec.label_fraction >= 1.0:
            n_lab = idx.size
        else:
            n_lab = min(idx.size, max(int(round(spec.label_fraction * idx.size)), 2))
        chosen = rng.permutation(idx)[:n_lab]
        labeled[chosen] = True
    dataset = Dataset(
        X[labeled], assign[labeled], X[~labeled], feature_names(d), K=K
    )
    return dataset, assign[~labeled]


def binarize(features: np.ndarray, threshold: float) -> np.ndarray:
    """Elementwise indicator of strictly exceeding the threshold."""
    X = np.asarray(features, dtype=np.float64)
    return (X > threshold).astype(np.float64)


def two_class_spec(
    d: int,
    separation: float,
    n_samples: int,
    label_fraction: float,
    seed: int,
    scale: float = 1.0,
    rho: float = 0.0,
    weights=(0.5, 0.5),
    shift=None,
) -> SynthSpec:
    """Convenience two-component geometry used throughout the benchmarks.

    Component 1 sits at the origin, component 2 at ``separation * scale``
    along the first axis (so ``separation`` is in units of the marginal
    standard deviation). ``rho`` adds compound-symmetric correlation; both
    components share the covariance. ``shift`` optionally displaces
    component 2 by an extra vector, for distribution-shift experiments.
    """
    # checked as the products the spec is built from, so an overflow counts as an inf
    offset, variance = float(separation) * float(scale), float(scale) * float(scale)
    if not np.isfinite([offset, variance, rho]).all():
        raise ValueError("separation * scale, scale^2 and rho must be finite")
    means = np.zeros((2, d))
    means[1, 0] = separation * scale
    if shift is not None:
        means[1] += np.asarray(shift, dtype=np.float64)
    cov = scale**2 * ((1.0 - rho) * np.eye(d) + rho * np.ones((d, d)))
    covs = np.stack([cov, cov])
    return SynthSpec(
        np.asarray(weights, dtype=np.float64),
        means,
        covs,
        n_samples=n_samples,
        label_fraction=label_fraction,
        seed=seed,
    )
