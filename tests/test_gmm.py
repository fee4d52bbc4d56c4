import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_dataset, make_dataset
from mbss import baselines, cem, gmm
from mbss.errors import DataFormatError, SingularCovarianceError
from oracles import (
    direct_class_moments,
    direct_complete_ll,
    direct_log_density,
    direct_observed_ll,
    direct_responsibilities,
    longdouble_log_joint,
    mixture,
    random_family_covariances,
    random_model_arrays,
    random_orthogonal,
    random_spd,
)


def model_from(rng, K, d, family="VVV", spread=2.0):
    w, means, covs = random_model_arrays(rng, K, d, spread)
    return mixture(w, means, covs, family), (w, means, covs)


class TestComponentParams:
    def test_cached_log_det_matches_recomputation(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cov = random_spd(rng, 4)
            comp = gmm.ComponentParams(np.zeros(4), cov)
            sign, logdet = np.linalg.slogdet(cov)
            assert sign > 0
            assert abs(comp.log_det - logdet) <= 1e-10 * abs(logdet)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(SingularCovarianceError):
            gmm.ComponentParams(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gmm.ComponentParams(np.zeros(2), np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gmm.ComponentParams(np.zeros(3), np.eye(2))


class TestMakeComponent:
    def test_ridge_is_trace_scaled(self):
        cov = np.diag([4.0, 0.0])
        comp = gmm.make_component(np.zeros(2), cov, regularization=1e-6)
        t = np.trace(cov) / 2
        assert comp.covariance[0, 0] == pytest.approx(4.0 + 1e-6 * t)
        assert comp.covariance[1, 1] == pytest.approx(1e-6 * t)

    def test_escalates_then_errors(self):
        # trace/d = 0.05, so even the 1e-2 ridge cap cannot lift the -0.9
        with pytest.raises(SingularCovarianceError):
            gmm.make_component(np.zeros(2), np.diag([1.0, -0.9]))

    def test_escalates_on_a_vector_with_a_negative_variance(self):
        v = np.array([1.0, 1.0, -1e-5])
        t = v.mean()
        # 1e-6 t and 1e-5 t fall short of 1e-5; 1e-4 t lifts it
        comp = gmm.make_component(np.zeros(3), v, regularization=1e-6)
        assert comp.inv_cholesky is None
        np.testing.assert_allclose(comp.covariance, v + 1e-4 * t, rtol=1e-12)
        with pytest.raises(SingularCovarianceError):
            gmm.make_component(np.zeros(2), np.array([1.0, -0.9]))

    def test_zero_trace_falls_back_to_absolute_ridge(self):
        comp = gmm.make_component(np.zeros(2), np.zeros((2, 2)), regularization=1e-6)
        assert comp.covariance[0, 0] == pytest.approx(1e-6)


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        comp = gmm.ComponentParams(np.zeros(1), np.eye(1))
        assert gmm.log_density(comp, np.zeros(1)) == pytest.approx(
            -0.9189385332046727, abs=1e-12
        )

    def test_isotropic_2d(self):
        comp = gmm.ComponentParams(np.zeros(2), np.eye(2))
        expected = -math.log(2 * math.pi) - 1.0
        assert gmm.log_density(comp, np.array([1.0, 1.0])) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(-2.8378770664093453, abs=1e-12)

    def test_diagonal_case_against_direct_formula(self):
        mean = np.array([1.0, 2.0])
        cov = np.diag([4.0, 9.0])
        x = np.array([3.0, 5.0])
        comp = gmm.ComponentParams(mean, cov)
        got = gmm.log_density(comp, x)
        assert got == pytest.approx(direct_log_density(mean, cov, x), abs=1e-12)
        assert got == pytest.approx(-4.62963653563740, abs=1e-10)

    def test_variance_vector_against_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            v = rng.uniform(0.1, 5.0, d)
            mean = rng.standard_normal(d)
            x = mean + rng.standard_normal(d)
            comp = gmm.ComponentParams(mean, v)
            assert gmm.log_density(comp, x) == pytest.approx(
                direct_log_density(mean, np.diag(v), x), abs=1e-9
            )
            # the same bits as the Cholesky factor of diag(v)
            assert comp.log_det == gmm.ComponentParams(mean, np.diag(v)).log_det

    def test_randomized_against_direct_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            cov = random_spd(rng, d)
            mean = rng.standard_normal(d)
            x = mean + rng.standard_normal(d)
            comp = gmm.ComponentParams(mean, cov)
            assert gmm.log_density(comp, x) == pytest.approx(
                direct_log_density(mean, cov, x), abs=1e-9
            )

    def test_matrix_input_matches_rowwise(self):
        rng = np.random.default_rng(11)
        comp = gmm.ComponentParams(rng.standard_normal(3), random_spd(rng, 3))
        X = rng.standard_normal((6, 3))
        rows = gmm.log_density(comp, X)
        for i in range(6):
            assert rows[i] == pytest.approx(gmm.log_density(comp, X[i]), abs=1e-12)

    def test_dimension_mismatch(self):
        comp = gmm.ComponentParams(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            gmm.log_density(comp, np.zeros(3))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = 4
            mean = rng.standard_normal(d)
            cov = random_spd(rng, d)
            x = rng.standard_normal(d)
            R = random_orthogonal(rng, d)
            base = gmm.log_density(gmm.ComponentParams(mean, cov), x)
            rotated = gmm.log_density(
                gmm.ComponentParams(R @ mean, R @ cov @ R.T), R @ x
            )
            assert rotated == pytest.approx(base, abs=1e-9)


def binary_model(rng, family, K=3, d=160):
    """Model shaped like a fit on 0/1 API vectors: some dimensions sit at the ridge."""
    means = (rng.random((K, d)) < 0.3) * rng.uniform(0.0, 1.0, (K, d))
    ridge = 1e-7
    if family in gmm.DIAGONAL_FAMILIES:
        var = means * (1.0 - means) + ridge  # constant dimensions keep only the ridge
        if family == "EII":
            covs = [np.mean(var) * np.eye(d)] * K
        elif family == "VII":
            covs = [np.mean(v) * np.eye(d) for v in var]
        elif family == "EEI":
            covs = [np.diag(var.mean(axis=0))] * K
        else:
            covs = [np.diag(v) for v in var]
    else:
        def rank_deficient():
            B = (rng.random((d, 40)) < 0.3).astype(float)
            B -= B.mean(axis=1, keepdims=True)
            return B @ B.T / 40.0 + ridge * np.eye(d)

        covs = [rank_deficient()] * K if family == "EEE" else [rank_deficient() for _ in range(K)]
    w = rng.dirichlet(np.full(K, 5.0))
    return mixture(w / w.sum(), means, np.stack(covs), family)


class TestLogJointKernels:
    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_kernel_matches_generic_density_on_binary_rows(self, family):
        rng = np.random.default_rng(160)
        model = binary_model(rng, family)
        X = (rng.random((300, 160)) < 0.3).astype(float)
        got = gmm.log_joint(model, X)
        reference = longdouble_log_joint(
            model.weights, [c.mean for c in model.components],
            [c.covariance for c in model.components], X,
        )
        for k in range(model.K):
            expected = reference[:, k].astype(np.float64)
            np.testing.assert_allclose(got[:, k], expected, rtol=1e-9, atol=0.0)

    def test_no_rows(self):
        model = binary_model(np.random.default_rng(162), "VVI", K=2, d=4)
        assert gmm.log_joint(model, np.empty((0, 4))).shape == (0, 2)


class TestLogResponsibilities:
    def test_identical_components_give_uniform(self):
        model = mixture(
            [0.5, 0.5], np.zeros((2, 3)), np.stack([np.eye(3)] * 2), "EII"
        )
        W = np.exp(gmm.log_responsibilities(model, np.random.default_rng(0).standard_normal((5, 3))))
        assert np.allclose(W, 0.5, atol=1e-12)

    def test_equidistant_point_recovers_priors(self):
        model = mixture(
            [0.8, 0.2],
            np.array([[-1.0, 0.0], [1.0, 0.0]]),
            np.stack([np.eye(2)] * 2),
            "EII",
        )
        W = np.exp(gmm.log_responsibilities(model, np.array([[0.0, 5.0]])))
        assert np.allclose(W[0], [0.8, 0.2], atol=1e-12)

    def test_random_three_component_against_naive(self):
        rng = np.random.default_rng(13)
        model, (w, means, covs) = model_from(rng, K=3, d=3)
        X = means[rng.integers(0, 3, size=5)] + 0.5 * rng.standard_normal((5, 3))
        W = np.exp(gmm.log_responsibilities(model, X))
        assert np.allclose(W, direct_responsibilities(w, means, covs, X), atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        K = int(rng.integers(1, 5))
        d = int(rng.integers(1, 6))
        model, _ = model_from(rng, K, d)
        X = 3.0 * rng.standard_normal((8, d))
        W = np.exp(gmm.log_responsibilities(model, X))
        assert np.allclose(W.sum(axis=1), 1.0, atol=1e-12)

    def test_argmax_invariant_to_rowwise_shift(self):
        rng = np.random.default_rng(14)
        model, _ = model_from(rng, K=4, d=3)
        X = rng.standard_normal((20, 3))
        lj = gmm.log_joint(model, X)
        shifted = lj + rng.standard_normal((20, 1))
        assert np.array_equal(np.argmax(lj, axis=1), np.argmax(shifted, axis=1))

    def test_huge_spherical_variance_approaches_priors(self):
        weights = np.array([0.3, 0.45, 0.25])
        means = np.array([[0.0, 0.0], [3.0, 1.0], [-2.0, 4.0]])
        covs = np.stack([1e6 * np.eye(2)] * 3)
        model = mixture(weights, means, covs, "EII")
        X = np.random.default_rng(15).uniform(-5, 5, size=(10, 2))
        W = np.exp(gmm.log_responsibilities(model, X))
        assert np.max(np.abs(W - weights)) < 1e-3

    def test_empty_input(self):
        model, _ = model_from(np.random.default_rng(16), 2, 3)
        assert gmm.log_responsibilities(model, np.empty((0, 3))).shape == (0, 2)


class TestLikelihoods:
    def test_complete_reduces_to_labeled_sum_when_no_unlabeled(self):
        rng = np.random.default_rng(17)
        model, (w, means, covs) = model_from(rng, 2, 2)
        X = rng.standard_normal((4, 2))
        y = np.array([1, 2, 1, 2])
        ds = make_dataset(X, y, np.empty((0, 2)))
        got = gmm.complete_log_likelihood(model, ds, [])
        assert got == pytest.approx(
            direct_complete_ll(w, means, covs, X, y, np.empty((0, 2)), []), abs=1e-10
        )
        assert got == pytest.approx(gmm.observed_log_likelihood(model, ds), abs=1e-12)

    def test_single_component_is_sum_of_log_densities(self):
        model = mixture(
            [1.0], np.zeros((1, 2)), np.eye(2)[None], "VVV"
        )
        ds = make_dataset([[0.5, 0.5]], [1], [[1.0, -1.0]], K=1)
        expected = gmm.log_density(model.components[0], np.array([0.5, 0.5])) + gmm.log_density(
            model.components[0], np.array([1.0, -1.0])
        )
        assert gmm.complete_log_likelihood(model, ds, [1]) == pytest.approx(expected, abs=1e-12)

    def test_complete_against_term_by_term_oracle(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            model, (w, means, covs) = model_from(rng, 2, 3)
            Xl = rng.standard_normal((3, 3))
            yl = np.array([1, 2, 1])
            Xu = rng.standard_normal((2, 3))
            yu = np.array([2, 1])
            ds = make_dataset(Xl, yl, Xu)
            assert gmm.complete_log_likelihood(model, ds, yu) == pytest.approx(
                direct_complete_ll(w, means, covs, Xl, yl, Xu, yu), abs=1e-10
            )

    def test_observed_against_direct_oracle(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            model, (w, means, covs) = model_from(rng, 2, 2)
            Xl = rng.standard_normal((2, 2))
            yl = np.array([1, 2])
            Xu = rng.standard_normal((2, 2))
            ds = make_dataset(Xl, yl, Xu)
            assert gmm.observed_log_likelihood(model, ds) == pytest.approx(
                direct_observed_ll(w, means, covs, Xl, yl, Xu), abs=1e-10
            )

    def test_hard_label_length_mismatch(self):
        model, _ = model_from(np.random.default_rng(20), 2, 2)
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0]], [1, 2], [[0.5, 0.5]])
        with pytest.raises(ValueError):
            gmm.complete_log_likelihood(model, ds, [1, 2])


def binary_fit(family, seed=160, d=160):
    """Two CEM iterations on 0/1 rows with 15 labeled rows per class (n_k < d).

    Some columns are constant, so every family's class scatter is rank
    deficient and the fitted covariances carry ridge-level eigenvalues.
    """
    rng = np.random.default_rng(seed)
    p = np.where(rng.random(d) < 0.5, 0.05, 0.4)
    p[:10] = 0.0
    Xl = (rng.random((30, d)) < np.concatenate([[p] * 15, [p[::-1]] * 15])).astype(float)
    Xl[:, :5] = 0.0
    Xu = (rng.random((20, d)) < p).astype(float)
    ds = make_dataset(Xl, np.repeat([1, 2], 15), Xu)
    return ds, fit_dataset(ds, cem.CemConfig(family=family, max_iterations=2))


def dense(model):
    """Weights, means and d x d covariances of a model, for the oracles."""
    covs = [np.diag(c.covariance) if c.covariance.ndim == 1 else c.covariance for c in model.components]
    return model.weights, [c.mean for c in model.components], covs


class TestLabeledStatistics:
    """The labeled log-likelihood and the CM-step read class statistics, not rows."""

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_closed_form_matches_term_by_term_oracle_on_binary_rows(self, family):
        ds, result = binary_fit(family)
        model = result.model
        if family in ("VVI", "EEE", "VVV"):
            assert min(np.min(np.linalg.eigvalsh(c)) for c in dense(model)[2]) < 1e-6
        stats = gmm.class_stats(ds.labeled_features, ds.labels, ds.K, family)
        empty = np.empty((0, ds.d))
        expected = direct_complete_ll(*dense(model), ds.labeled_features, ds.labels, empty, [])
        assert gmm.labeled_log_likelihood(model, stats) == pytest.approx(expected, rel=1e-9)
        # the row-wise scoring the closed form replaces
        rows = gmm.log_joint(model, ds.labeled_features)[np.arange(ds.n), ds.labels - 1].sum()
        assert gmm.labeled_log_likelihood(model, stats) == pytest.approx(rows, rel=1e-9)

    def test_zero_weight_class_with_rows_is_minus_infinity(self):
        model = mixture(
            [1.0, 0.0], np.zeros((2, 2)), np.stack([np.eye(2)] * 2), "VVV"
        )
        stats = gmm.class_stats(np.eye(2), np.array([1, 2]), 2, "VVV")
        assert gmm.labeled_log_likelihood(model, stats) == -np.inf
        stats = gmm.class_stats(np.eye(2), np.array([1, 1]), 2, "VVV")
        assert np.isfinite(gmm.labeled_log_likelihood(model, stats))

    @pytest.mark.parametrize("family", ["EII", "VVI", "EEE", "VVV"])
    def test_merge_equals_stats_of_the_stacked_rows(self, family):
        rng = np.random.default_rng(170)
        d = 20
        # class 1 in both blocks, class 2 labeled only, class 3 unlabeled only
        Xa = (rng.random((25, d)) < 0.3) + rng.standard_normal((25, d))
        Xb = (rng.random((15, d)) < 0.6) + 3.0 + rng.standard_normal((15, d))
        ya = np.array([1] * 12 + [2] * 13)
        yb = np.array([1] * 9 + [3] * 6)
        a = gmm.class_stats(Xa, ya, 3, family)
        b = gmm.class_stats(Xb, yb, 3, family)
        counts, means, scatters = gmm.merge_class_stats(a, b)
        want_counts, want_means, want_scatters = gmm.class_stats(
            np.vstack([Xa, Xb]), np.concatenate([ya, yb]), 3, family
        )
        assert np.array_equal(counts, want_counts)
        for got, want in ((means, want_means), (scatters, want_scatters)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        assert np.array_equal(means[1], a[1][1]) and np.array_equal(scatters[1], a[2][1])
        assert np.array_equal(means[2], b[1][2]) and np.array_equal(scatters[2], b[2][2])

    def test_merge_with_an_empty_block_changes_nothing(self):
        rng = np.random.default_rng(171)
        X = rng.standard_normal((10, 3))
        for family in gmm.FAMILIES:
            a = gmm.class_stats(X, np.array([1] * 5 + [2] * 5), 3, family)
            none = gmm.class_stats(np.empty((0, 3)), np.zeros(0, dtype=np.int64), 3, family)
            for merged in (gmm.merge_class_stats(a, none), gmm.merge_class_stats(none, a)):
                for got, want in zip(merged, a):
                    np.testing.assert_array_equal(got, want)


class TestFarFromTheOrigin:
    """The kernels keep their digits on rows near 1e4.

    The diagonal kernels expand about the rows' mean; expanded about the
    origin instead, these rows agree with the oracles to only about 1e-8.
    The full kernel subtracts the whitened mean from the whitened rows.
    """

    @staticmethod
    def far_rows(family, seed=190, d=40, K=3):
        rng = np.random.default_rng(seed)
        means = 1e4 + rng.standard_normal((K, d))
        covs = random_family_covariances(rng, family, K, d) / d
        y = np.repeat(np.arange(1, K + 1), 40)
        X = means[y - 1] + rng.standard_normal((len(y), d))
        w = rng.dirichlet(np.full(K, 5.0))
        return mixture(w / w.sum(), means, covs, family), (w / w.sum(), means, covs), X, y

    @staticmethod
    def oracle_joint(w, means, covs, X):
        return np.array([
            [np.log(w[k]) + direct_log_density(means[k], covs[k], x) for k in range(len(w))]
            for x in X
        ])

    @pytest.mark.parametrize("family", gmm.DIAGONAL_FAMILIES)
    def test_log_joint_matches_the_oracle(self, family):
        model, (w, means, covs), X, _ = self.far_rows(family)
        expected = self.oracle_joint(w, means, covs, X)
        np.testing.assert_allclose(gmm.log_joint(model, X), expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("d", [20, 160])
    @pytest.mark.parametrize("family", ["EEE", "VVV"])
    def test_full_kernel_matches_the_oracle(self, family, d):
        model, (w, means, covs), X, _ = self.far_rows(family, d=d)
        expected = self.oracle_joint(w, means, covs, X)
        np.testing.assert_allclose(gmm.log_joint(model, X), expected, rtol=1e-9, atol=0.0)
        for k, comp in enumerate(model.components):
            np.testing.assert_allclose(
                np.log(w[k]) + gmm.log_density(comp, X), expected[:, k], rtol=1e-9, atol=0.0
            )

    def test_vvv_components_sharing_one_factor_match_the_oracle(self):
        _, (w, means, covs), X, _ = self.far_rows("EEE")
        first = gmm.ComponentParams(means[0], covs[0])
        model = gmm.MixtureModel(w, [first] + [first.with_mean(m) for m in means[1:]], "VVV")
        assert all(c.inv_cholesky is first.inv_cholesky for c in model.components)
        expected = self.oracle_joint(w, means, covs, X)
        np.testing.assert_allclose(gmm.log_joint(model, X), expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("family", gmm.DIAGONAL_FAMILIES)
    def test_class_stats_and_labeled_likelihood_match_the_oracles(self, family):
        model, (w, means, covs), X, y = self.far_rows(family)
        counts, got_means, got_scatters = gmm.class_stats(X, y, 3, family)
        want_counts, want_means, want_scatters = direct_class_moments(X, y, 3)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_allclose(got_means, want_means, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got_scatters, want_scatters, rtol=1e-9, atol=0.0)
        expected = direct_complete_ll(w, means, covs, X, y, np.empty((0, X.shape[1])), [])
        got = gmm.labeled_log_likelihood(model, (counts, got_means, got_scatters))
        assert got == pytest.approx(expected, rel=1e-9)


class TestEstimate:
    """``gmm.estimate`` is the one path from class statistics to a model."""

    def test_weights_means_and_empty_class_fallback(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [5.0, 5.0], [7.0, 5.0]])
        stats = gmm.class_stats(X, np.array([1, 1, 1, 2, 2]), 3, "VII")
        previous = mixture(
            [0.2, 0.3, 0.5], np.array([[9.0, 9.0], [8.0, 8.0], [7.0, 7.0]]),
            np.stack([np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)]), "VII",
        )
        model = gmm.estimate(stats, "VII", 1e-6, previous)
        # counts (3, 2, 0) over n = 5: (3/5, 2/5, 1/5) renormalized
        np.testing.assert_allclose(model.weights, [0.5, 1 / 3, 1 / 6], rtol=1e-15)
        np.testing.assert_array_equal(model.components[0].mean, X[:3].mean(axis=0))
        np.testing.assert_array_equal(model.components[1].mean, X[3:].mean(axis=0))
        assert model.components[2] is previous.components[2]
        with pytest.raises(ValueError, match=r"classes \[3\] received no members"):
            gmm.estimate(stats, "VII", 1e-6)

    @pytest.mark.parametrize("family", gmm.SHARED_FAMILIES)
    def test_shared_family_builds_one_component(self, monkeypatch, family):
        rng = np.random.default_rng(180)
        stats = gmm.class_stats(rng.standard_normal((12, 3)), np.repeat([1, 2, 3], 4), 3, family)
        built = []
        real = gmm.ComponentParams.__post_init__
        monkeypatch.setattr(
            gmm.ComponentParams, "__post_init__", lambda self: built.append(1) or real(self)
        )
        model = gmm.estimate(stats, family, 1e-6)
        assert len(built) == 1
        assert all(c.covariance is model.components[0].covariance for c in model.components)

    @pytest.mark.parametrize("caller", ["initialize", "cm_step", "lda_fit"])
    def test_every_model_from_class_statistics_goes_through_it(self, monkeypatch, caller):
        rng = np.random.default_rng(181)
        X = rng.standard_normal((20, 3)) + np.repeat([[0.0], [3.0]], 10, axis=0)
        y = np.repeat([1, 2], 10)
        config = cem.CemConfig(family="EEE")
        start = cem.initialize(X, y, 2, config)
        calls = []
        real = gmm.estimate
        monkeypatch.setattr(gmm, "estimate", lambda *a: calls.append(a) or real(*a))
        if caller == "initialize":
            model = cem.initialize(X, y, 2, config).model
        elif caller == "cm_step":
            model = cem.cm_step(start, X[:4], np.ones(4, dtype=np.int64), start.model)
        else:
            model = baselines.lda_fit(X, y).mixture
        assert len(calls) == 1
        assert calls[0][1] == "EEE"
        assert model.family == "EEE"


class TestParameterCount:
    @pytest.mark.parametrize(
        "family,K,d,expected",
        [
            ("EII", 2, 3, 8),
            ("VII", 2, 3, 9),
            ("EEI", 2, 3, 10),
            ("VVI", 2, 3, 13),
            ("EEE", 2, 3, 13),
            ("VVV", 2, 3, 19),
            ("VVV", 2, 2, 11),
        ],
    )
    def test_counting(self, family, K, d, expected):
        assert gmm.parameter_count(family, K, d) == expected

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_single_component_1d(self, family):
        assert gmm.parameter_count(family, 1, 1) == 2

    def test_counts_by_enumerating_constraints(self):
        # (K-1) weights + K*d means + family covariance terms
        for K in (1, 2, 4):
            for d in (1, 3, 5):
                assert gmm.parameter_count("EII", K, d) == (K - 1) + K * d + 1
                assert gmm.parameter_count("VII", K, d) == (K - 1) + K * d + K
                assert gmm.parameter_count("EEI", K, d) == (K - 1) + K * d + d
                assert gmm.parameter_count("VVI", K, d) == (K - 1) + K * d + K * d
                assert gmm.parameter_count("EEE", K, d) == (K - 1) + K * d + d * (d + 1) // 2
                assert gmm.parameter_count("VVV", K, d) == (K - 1) + K * d + K * d * (d + 1) // 2


class TestMixtureModelValidation:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            mixture(
                [0.6, 0.6], np.zeros((2, 2)), np.stack([np.eye(2)] * 2), "EII"
            )

    def test_family_conformity_enforced(self):
        rng = np.random.default_rng(21)
        comps = [gmm.ComponentParams(np.zeros(2), random_spd(rng, 2)) for _ in range(2)]
        with pytest.raises(ValueError):
            gmm.MixtureModel(np.array([0.5, 0.5]), comps, "EII")
        gmm.MixtureModel(np.array([0.5, 0.5]), comps, "VVV")

    @pytest.mark.parametrize(
        "family,covariances",
        [
            ("VVI", [np.eye(2), np.eye(2)]),  # a matrix in a diagonal family
            ("VVV", [np.ones(2), np.ones(2)]),  # variances in a full family
            ("EEI", [np.array([1.0, 2.0]), np.array([1.0, 3.0])]),
            ("EII", [np.ones(2), 2.0 * np.ones(2)]),
            ("EEE", [np.eye(2), 2.0 * np.eye(2)]),
            ("VII", [np.array([1.0, 2.0]), np.ones(2)]),  # not spherical
        ],
    )
    def test_components_must_have_the_family_shape(self, family, covariances):
        comps = [gmm.ComponentParams(np.zeros(2), c) for c in covariances]
        with pytest.raises(ValueError, match=family):
            gmm.MixtureModel(np.array([0.5, 0.5]), comps, family)

    @pytest.mark.parametrize(
        "family,make_covs",
        [
            ("EII", lambda: np.stack([2.0 * np.eye(3)] * 2)),
            ("VII", lambda: np.stack([2.0 * np.eye(3), 5.0 * np.eye(3)])),
            ("EEI", lambda: np.stack([np.diag([1.0, 2.0, 3.0])] * 2)),
            ("VVI", lambda: np.stack([np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0])])),
            ("EEE", lambda: np.stack([random_spd(np.random.default_rng(3), 3)] * 2)),
            ("VVV", lambda: np.stack([random_spd(np.random.default_rng(k), 3) for k in range(2)])),
        ],
    )
    def test_each_family_accepts_its_shape(self, family, make_covs):
        model = mixture([0.5, 0.5], np.zeros((2, 3)), make_covs(), family)
        assert model.family == family


class TestSerialization:
    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_round_trip_is_lossless(self, tmp_path, family):
        rng = np.random.default_rng(22)
        w, means, covs = random_model_arrays(rng, 3, 4, family=family)
        model = mixture(w, means, covs, family)
        path = tmp_path / "model.json"
        gmm.save_model(model, path)
        payload = json.loads(path.read_text())
        # version 2 keeps each covariance in its family's shape
        assert payload["version"] == 2
        if family in gmm.DIAGONAL_FAMILIES:
            covs = np.diagonal(covs, axis1=1, axis2=2)
        assert np.array_equal(payload["covariances"], covs)
        loaded = gmm.load_model(path)
        assert loaded.family == model.family
        assert np.array_equal(loaded.weights, model.weights)
        for a, b in zip(loaded.components, model.components):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.covariance, b.covariance)
            assert a.log_det == b.log_det

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_binary_model_at_d160_reloads_exactly(self, tmp_path, family):
        model = binary_model(np.random.default_rng(23), family, K=2)
        path, copy = tmp_path / "model.json", tmp_path / "copy.json"
        gmm.save_model(model, path)
        loaded = gmm.load_model(path)
        gmm.save_model(loaded, copy)
        assert path.read_bytes() == copy.read_bytes()
        for a, b in zip(loaded.components, model.components):
            assert np.array_equal(a.covariance, b.covariance)
            assert a.log_det == b.log_det
            assert (a.inv_cholesky is None) == (b.inv_cholesky is None)
            assert a.inv_cholesky is None or np.array_equal(a.inv_cholesky, b.inv_cholesky)
        if family in gmm.DIAGONAL_FAMILIES:
            # 2 x 160 means and at most 2 x 160 variances, not 2 x 160 x 160
            assert path.stat().st_size < 20_000

    @pytest.mark.parametrize("family", gmm.SHARED_FAMILIES)
    def test_shared_covariance_is_built_once_on_load(self, tmp_path, monkeypatch, family):
        rng = np.random.default_rng(24)
        w, means, covs = random_model_arrays(rng, 4, 3, family=family)
        path = tmp_path / "model.json"
        gmm.save_model(mixture(w, means, covs, family), path)
        built = []
        real = gmm.ComponentParams.__post_init__
        monkeypatch.setattr(
            gmm.ComponentParams, "__post_init__", lambda self: built.append(1) or real(self)
        )
        loaded = gmm.load_model(path)
        assert len(built) == 1
        assert all(c.covariance is loaded.components[0].covariance for c in loaded.components)

    def test_unequal_shared_covariances_are_malformed(self, tmp_path):
        rng = np.random.default_rng(25)
        w, means, covs = random_model_arrays(rng, 2, 3, family="EEE")
        path = tmp_path / "model.json"
        gmm.save_model(mixture(w, means, covs, "EEE"), path)
        payload = json.loads(path.read_text())
        payload["covariances"][1][0][0] += 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(DataFormatError, match="one covariance for all components"):
            gmm.load_model(path)

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(DataFormatError):
            gmm.load_model(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(DataFormatError):
            gmm.load_model(path)
