import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fit_dataset, log_density, make_dataset
from mbss import baselines, cem, gmm
from mbss.dataset import is_binary
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
            comp = gmm.ComponentParams(cov)
            sign, logdet = np.linalg.slogdet(cov)
            assert sign > 0
            assert abs(comp.log_det - logdet) <= 1e-10 * abs(logdet)

    def test_rejects_non_positive_definite(self):
        with pytest.raises(SingularCovarianceError):
            gmm.ComponentParams(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            gmm.ComponentParams(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_rejects_dimension_mismatch(self):
        for shape in [(), (2, 3), (2, 2, 2)]:
            with pytest.raises(ValueError, match="vector or a square matrix"):
                gmm.ComponentParams(np.ones(shape))


class TestMakeComponent:
    def test_ridge_is_trace_scaled(self):
        cov = np.diag([4.0, 0.0])
        comp = gmm.make_component(cov)
        t = np.trace(cov) / 2
        assert comp.covariance[0, 0] == pytest.approx(4.0 + 1e-6 * t)
        assert comp.covariance[1, 1] == pytest.approx(1e-6 * t)

    def test_an_indefinite_matrix_raises(self):
        # trace/d = 0.05, so the 5e-8 ridge cannot lift the -0.9
        with pytest.raises(SingularCovarianceError):
            gmm.make_component(np.diag([1.0, -0.9]))

    def test_one_ridge_on_a_variance_vector(self):
        v = np.array([1.0, 1.0, 1e-5])
        comp = gmm.make_component(v)
        assert comp.inv_cholesky is None
        np.testing.assert_array_equal(comp.covariance, v + 1e-6 * v.mean())
        # 1e-6 t falls short of 1e-5, and there is no second, larger ridge
        with pytest.raises(SingularCovarianceError):
            gmm.make_component(np.array([1.0, 1.0, -1e-5]))

    def test_zero_trace_falls_back_to_absolute_ridge(self):
        comp = gmm.make_component(np.zeros((2, 2)))
        assert comp.covariance[0, 0] == pytest.approx(1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["sparse-binary", "duplicated", "far-mixed-scales"]),
    )
    def test_every_family_estimate_is_built_at_the_first_ridge(self, seed, kind):
        # The scatters mbss meets: rank-deficient 0/1 rows, a few distinct
        # rows repeated, and rows near 1e4 with column scales 1e-3..1e3.
        rng = np.random.default_rng(seed)
        K, d = int(rng.integers(2, 4)), int(rng.integers(2, 81))
        n = int(rng.integers(K, 2 * d + 2))
        if kind == "sparse-binary":
            X = (rng.random((n, d)) < rng.uniform(0.0, 0.3, d)).astype(np.float64)
        elif kind == "duplicated":
            distinct = (rng.random((int(rng.integers(1, 5)), d)) < 0.5).astype(np.float64)
            X = distinct[rng.integers(0, len(distinct), n)]
        else:
            X = 1e4 + rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, d)
        y = rng.permutation(np.arange(n) % K) + 1
        for family in gmm.FAMILIES:
            counts, means, scatters = stats = gmm.class_stats(X, y, K, family)
            covs = gmm.estimate_family_covariances(family, scatters, counts)
            for cov, comp in zip(covs, gmm.estimate(stats, family).components):
                t = float(cov.sum() if cov.ndim == 1 else np.trace(cov)) / d
                ridge = gmm.REGULARIZATION * (t if t > 0.0 else 1.0)
                want = cov + (ridge if cov.ndim == 1 else ridge * np.eye(d))
                np.testing.assert_array_equal(comp.covariance, want)


class TestLogDensity:
    def test_standard_normal_at_mode(self):
        comp = gmm.ComponentParams(np.eye(1))
        assert log_density(np.zeros(1), comp, np.zeros(1)) == pytest.approx(
            -0.9189385332046727, abs=1e-12
        )

    def test_isotropic_2d(self):
        comp = gmm.ComponentParams(np.eye(2))
        expected = -math.log(2 * math.pi) - 1.0
        assert log_density(np.zeros(2), comp, np.array([1.0, 1.0])) == pytest.approx(
            expected, abs=1e-12
        )
        assert expected == pytest.approx(-2.8378770664093453, abs=1e-12)

    def test_diagonal_case_against_direct_formula(self):
        mean = np.array([1.0, 2.0])
        cov = np.diag([4.0, 9.0])
        x = np.array([3.0, 5.0])
        got = log_density(mean, gmm.ComponentParams(cov), x)
        assert got == pytest.approx(direct_log_density(mean, cov, x), abs=1e-12)
        assert got == pytest.approx(-4.62963653563740, abs=1e-10)

    def test_variance_vector_against_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            v = rng.uniform(0.1, 5.0, d)
            mean = rng.standard_normal(d)
            x = mean + rng.standard_normal(d)
            comp = gmm.ComponentParams(v)
            assert log_density(mean, comp, x) == pytest.approx(
                direct_log_density(mean, np.diag(v), x), abs=1e-9
            )
            # the same bits as the Cholesky factor of diag(v)
            assert comp.log_det == gmm.ComponentParams(np.diag(v)).log_det

    def test_randomized_against_direct_formula(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            d = int(rng.integers(1, 6))
            cov = random_spd(rng, d)
            mean = rng.standard_normal(d)
            x = mean + rng.standard_normal(d)
            comp = gmm.ComponentParams(cov)
            assert log_density(mean, comp, x) == pytest.approx(
                direct_log_density(mean, cov, x), abs=1e-9
            )

    def test_matrix_input_matches_rowwise(self):
        rng = np.random.default_rng(11)
        mean, comp = rng.standard_normal(3), gmm.ComponentParams(random_spd(rng, 3))
        X = rng.standard_normal((6, 3))
        rows = log_density(mean, comp, X)
        for i in range(6):
            assert rows[i] == pytest.approx(log_density(mean, comp, X[i]), abs=1e-12)

    def test_dimension_mismatch(self):
        comp = gmm.ComponentParams(np.eye(2))
        with pytest.raises(ValueError):
            log_density(np.zeros(2), comp, np.zeros(3))

    def test_rotation_invariance(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            d = 4
            mean = rng.standard_normal(d)
            cov = random_spd(rng, d)
            x = rng.standard_normal(d)
            R = random_orthogonal(rng, d)
            base = log_density(mean, gmm.ComponentParams(cov), x)
            rotated = log_density(R @ mean, gmm.ComponentParams(R @ cov @ R.T), R @ x)
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
            model.weights, model.means,
            [c.covariance for c in model.components], X,
        )
        for k in range(model.K):
            expected = reference[:, k].astype(np.float64)
            np.testing.assert_allclose(got[:, k], expected, rtol=1e-9, atol=0.0)

    def test_no_rows(self):
        model = binary_model(np.random.default_rng(162), "VVI", K=2, d=4)
        assert gmm.log_joint(model, np.empty((0, 4))).shape == (0, 2)

    @pytest.mark.parametrize("family", ["EEE", "VVV"])
    def test_full_factors_are_exactly_lower_triangular(self, family):
        # log_joint skips W's upper-right block, which is exact only if it is zero
        rng = np.random.default_rng(163)
        models = [binary_model(rng, family, K=2) for _ in range(3)]
        for _ in range(3):
            models.append(mixture(*random_model_arrays(rng, 2, 160, family=family), family))
        for model in models:
            for comp in model.components:
                assert not np.triu(comp.inv_cholesky, 1).any()
        B = (rng.random((160, 40)) < 0.3).astype(float)
        ridged = gmm.make_component(np.cov(B))
        assert not np.triu(ridged.inv_cholesky, 1).any()

    @pytest.mark.parametrize("n", [0, 1, 7])
    @pytest.mark.parametrize("d", [1, 2, 3, 161])
    @pytest.mark.parametrize("family", ["EEE", "VVV"])
    def test_full_branch_edge_sizes_match_the_oracle(self, family, d, n):
        # d = 1 leaves W's upper-left block empty; odd d splits W unevenly
        rng = np.random.default_rng(164 + d)
        w, means, covs = random_model_arrays(rng, 3, d, family=family)
        model = mixture(w, means, covs, family)
        X = means[0] + rng.standard_normal((n, d))
        expected = longdouble_log_joint(w, means, covs, X).astype(np.float64)
        got = gmm.log_joint(model, X)
        assert got.shape == (n, 3)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
        one = longdouble_log_joint([1.0], means[1:2], covs[1:2], X)[:, 0].astype(np.float64)
        got = log_density(model.means[1], model.components[1], X)
        np.testing.assert_allclose(got, one, rtol=1e-9, atol=0.0)

    def test_vvv_scoring_copies_no_operand(self):
        # the K x N output and one d x B block of whitened rows are the only
        # large allocations; the slack is a few block-length vectors
        model = binary_model(np.random.default_rng(165), "VVV", K=2)
        X = (np.random.default_rng(166).random((5000, 160)) < 0.3).astype(float)
        B = gmm.ROW_BLOCK // 160
        buffers = (model.K * 5000 + (160 + 16) * B) * X.itemsize
        tracemalloc.start()
        try:
            gmm.log_joint(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers

    def test_vvv_scoring_of_bool_rows_adds_one_row_buffer(self):
        # the float64 bound plus one B x d float64 buffer that the bool rows are read into
        model = binary_model(np.random.default_rng(165), "VVV", K=2)
        X = np.random.default_rng(166).random((5000, 160)) < 0.3
        B = gmm.ROW_BLOCK // 160
        buffers = (model.K * 5000 + (160 + 16) * B + 160 * B) * 8
        tracemalloc.start()
        try:
            gmm.log_joint(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= buffers


_LOG_2PI = np.log(2 * np.pi)


def one_pass_log_joint(model, X):
    """``gmm.log_joint`` on float64 rows, with all N rows in one block."""
    if model.inverse_variances is not None:
        inv, center = model.inverse_variances, model.weights @ model.means
        D, delta = X - center, model.means - center
        scaled = delta * inv
        offset = (delta * scaled).sum(axis=1, keepdims=True)
        quad = inv @ (D * D).T + (-2.0 * scaled) @ D.T + offset
        log_dets = model.log_dets[:, None]
        return (model.log_weights[:, None] - 0.5 * (quad + model.d * _LOG_2PI + log_dets)).T
    out = np.empty((model.K, X.shape[0]))
    Zt = np.empty((model.d, X.shape[0]))
    h = model.d // 2
    W = None
    for k, comp in enumerate(model.components):
        if comp.inv_cholesky is not W:
            W, center = comp.inv_cholesky, model.means[k]
            np.matmul(W[:h, :h], X[:, :h].T, out=Zt[:h])
            np.matmul(W[h:], X.T, out=Zt[h:])
            Zt -= (W @ center)[:, None]
            quad = norms = np.einsum("ij,ij->j", Zt, Zt)
        else:
            wd = W @ (model.means[k] - center)
            quad = norms - 2.0 * (wd @ Zt) + wd @ wd
        out[k] = model.log_weights[k] - 0.5 * (quad + model.d * _LOG_2PI + comp.log_det)
    return out.T


def one_pass_scatters(X, y, means):
    """Full-family scatters from one centered copy of each class's rows.

    Their diagonals are the diagonal families' scatters.
    """
    scatters = np.zeros((len(means), X.shape[1], X.shape[1]))
    for k in range(len(means)):
        rows = X[y == k + 1].astype(np.float64)
        if rows.shape[0]:
            rows -= means[k]
            s = rows.T @ rows
            scatters[k] = 0.5 * (s + s.T)
    return scatters


def moment_scatters(X, y, K):
    """Full-family scatters of 0/1 rows by the moment formula, one pass per class: G - s s^T / n."""
    scatters = np.zeros((K, X.shape[1], X.shape[1]))
    for k in range(K):
        rows = X[y == k + 1]
        if rows.shape[0]:
            s = rows.sum(axis=0)
            scatters[k] = rows.T @ rows - np.outer(s, s) / rows.shape[0]
    return scatters


def assert_one_pass_bits(family, n, d):
    """``bool`` rows in one block give the moment scatters and the one-pass scores bit for bit."""
    X = np.random.default_rng(188).random((n, d)) < 0.3
    y = np.arange(n) % 2 + 1
    stats = gmm.class_stats(X, y, 2, family)
    np.testing.assert_array_equal(stats[2], moment_scatters(X.astype(float), y, 2))
    model = gmm.estimate(stats, family)
    np.testing.assert_array_equal(
        gmm.log_joint(model, X), one_pass_log_joint(model, X.astype(float))
    )


class TestFullRowBlocks:
    """Rows that are not 0/1 are read ``gmm.ROW_BLOCK // d`` at a time, in every family.

    ``ROW_BLOCK`` is cut to a few rows' worth, so the block edges are cheap
    to reach.
    """

    d = 7
    B = 4

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(gmm, "ROW_BLOCK", self.B * self.d + self.d - 1)

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 7])
    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_log_joint_matches_the_oracle_across_block_edges(self, family, n):
        rng = np.random.default_rng(180 + n)
        w, means, covs = random_model_arrays(rng, 3, self.d, family=family)
        model = mixture(w, means, covs, family)
        X = means[1] + rng.standard_normal((n, self.d))
        expected = longdouble_log_joint(w, means, covs, X).astype(np.float64)
        got = gmm.log_joint(model, X)
        assert got.shape == (n, 3)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
        if n <= self.B:
            np.testing.assert_array_equal(got, one_pass_log_joint(model, X))

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_class_stats_match_one_pass_across_block_edges(self, family):
        rng = np.random.default_rng(186)
        n = 2 * self.B + 7
        X = rng.standard_normal((n, self.d)) + 3.0
        # class 2 lies wholly in the second block, class 4 has no rows
        y = np.where(np.arange(n) // self.B == 1, 2, rng.choice([1, 3], size=n))
        counts, means, scatters = gmm.class_stats(X, y, 4, family)
        assert counts.tolist() == [np.sum(y == k) for k in range(1, 5)]
        np.testing.assert_allclose(means[:3], [X[y == k].mean(axis=0) for k in (1, 2, 3)])
        assert not means[3].any()
        assert not scatters[3].any()
        want = one_pass_scatters(X, y, means)
        if family in gmm.DIAGONAL_FAMILIES:
            want = np.diagonal(want, axis1=1, axis2=2)
        else:
            np.testing.assert_array_equal(scatters, scatters.transpose(0, 2, 1))
        np.testing.assert_allclose(scatters, want, rtol=1e-9, atol=1e-12)

    def test_integer_rows_give_the_float_statistics(self):
        rng = np.random.default_rng(187)
        X = rng.integers(0, 5, size=(3 * self.B + 1, self.d))
        y = rng.integers(1, 3, size=X.shape[0])
        got = gmm.class_stats(X, y, 2, "VVV")
        want = gmm.class_stats(X.astype(np.float64), y, 2, "VVV")
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_allclose(
            got[2], one_pass_scatters(X, y, got[1]), rtol=1e-9, atol=1e-12
        )

    @pytest.mark.parametrize("family", ["EEE", "VVV"])
    def test_one_block_is_the_one_pass_formula_bit_for_bit(self, family):
        assert_one_pass_bits(family, self.B, self.d)


@pytest.mark.parametrize("family", ["EEE", "VVV"])
def test_a_labeled_block_is_one_block_at_the_default_size(family):
    # 600 labeled 0/1 rows of d = 160 score and estimate as in one pass
    assert 600 <= gmm.ROW_BLOCK // 160
    assert_one_pass_bits(family, 600, 160)


class TestExactMoments:
    """0/1 rows' class statistics come from exact integer moments, however the rows arrive."""

    @staticmethod
    def binary_rows(n, d, seed):
        return np.random.default_rng(seed).random((n, d)) < 0.3

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_statistics_match_an_exact_fraction_reference(self, family):
        X = self.binary_rows(300, 6, 200)
        y = np.random.default_rng(201).integers(1, 4, size=300)
        counts, means, scatters = gmm.class_stats(X, y, 3, family)
        for k in range(3):
            rows = [[Fraction(int(v)) for v in row] for row in X[y == k + 1]]
            assert counts[k] == len(rows)
            mean = [sum(col) / len(rows) for col in zip(*rows)]
            # a correctly rounded s / n
            assert means[k].tolist() == [float(m) for m in mean]
            exact = np.array([
                [float(sum((r[i] - mean[i]) * (r[j] - mean[j]) for r in rows)) for j in range(6)]
                for i in range(6)
            ])
            want = exact if family in ("EEE", "VVV") else np.diag(exact)
            assert np.max(np.abs(scatters[k] - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("full", [False, True], ids=["diagonal", "full"])
    def test_moving_rows_gives_a_fresh_pass_bit_for_bit(self, monkeypatch, full):
        # blocks of 5 rows, so gathered and sliced runs cross block edges
        monkeypatch.setattr(gmm, "ROW_BLOCK", 5 * 7)
        rng = np.random.default_rng(202)
        X = self.binary_rows(40, 7, 203)
        y = rng.integers(1, 4, size=40)
        few = y.copy()
        few[[3, 17, 18, 39]] = few[[3, 17, 18, 39]] % 3 + 1
        partitions = [y, few, np.where(few == 3, 1, few), rng.integers(1, 4, size=40)]
        moments = gmm.Moments.empty(40, 3, 7, full)
        for labels in partitions:
            got = moments.move(X, labels).stats()
            fresh = gmm.Moments.empty(40, 3, 7, full).move(X, labels).stats()
            stats = gmm.class_stats(X, labels, 3, "VVV" if full else "VVI")
            for a, b, c in zip(got, fresh, stats, strict=True):
                np.testing.assert_array_equal(a, b)
                np.testing.assert_array_equal(a, c)
        assert moments.stats()[0].tolist() == np.bincount(partitions[-1], minlength=4)[1:].tolist()


class TestBinaryRowsInPlace:
    """``bool`` rows take their own path in ``log_joint`` and ``class_stats``; other rows do not."""

    @staticmethod
    def binary_rows(n=400, d=160, seed=170):
        return np.random.default_rng(seed).random((n, d)) < 0.3

    def test_binary_rows_are_not_copied(self):
        # one product per block, read into one B x d float64 buffer; the output is K x N
        X = self.binary_rows(n=5000)
        B = gmm.ROW_BLOCK // 160
        for family in gmm.DIAGONAL_FAMILIES:
            model = binary_model(np.random.default_rng(174), family)
            tracemalloc.start()
            try:
                gmm.log_joint(model, X)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= (model.K * 5000 + (160 + 16) * B) * 8

    @pytest.mark.parametrize(
        "cell", [-0.0, 2.0, np.nan, "float32", "int64"],
        ids=["negative-zero", "two", "nan", "float32", "int64"],
    )
    def test_other_rows_take_the_mean_shift(self, cell):
        X = self.binary_rows(n=50, d=6).astype(float)
        if isinstance(cell, str):
            X = X.astype(cell)
        else:
            X[7, 2] = cell
        for family in gmm.DIAGONAL_FAMILIES:
            model = binary_model(np.random.default_rng(175), family, d=6)
            np.testing.assert_array_equal(
                gmm.log_joint(model, X), one_pass_log_joint(model, X.astype(np.float64))
            )

    @pytest.mark.parametrize("dtype", ["float32", "int64"])
    def test_other_dtypes_take_the_float_path_in_both_kernels(self, monkeypatch, dtype):
        # 0/1 rows that are not bool are read as float64 by class_stats and log_joint alike
        X = self.binary_rows(n=50, d=6)
        y = np.arange(50) % 3 + 1
        moved = []
        monkeypatch.setattr(gmm.Moments, "move", lambda *args: moved.append(args))
        for family in gmm.FAMILIES:
            got = gmm.class_stats(X.astype(dtype), y, 3, family)
            want = gmm.class_stats(X.astype(np.float64), y, 3, family)
            for a, b in zip(got, want, strict=True):
                np.testing.assert_array_equal(a, b)
            model = gmm.estimate(want, family)
            np.testing.assert_array_equal(
                gmm.log_joint(model, X.astype(dtype)), one_pass_log_joint(model, X.astype(float))
            )
        assert moved == []

    @pytest.mark.parametrize("family", gmm.DIAGONAL_FAMILIES)
    def test_kernels_agree_with_the_mean_shifted_block(self, family):
        rng = np.random.default_rng(171)
        model = binary_model(rng, family)
        X = self.binary_rows()
        y = rng.integers(1, model.K + 1, size=X.shape[0])
        np.testing.assert_allclose(
            gmm.log_joint(model, X), gmm.log_joint(model, X.astype(float)), rtol=1e-9, atol=0.0
        )
        # float64 0/1 rows, a -0.0 cell among them, are centered, not summed as moments
        other = X.astype(float)
        other.flat[np.flatnonzero(~X)[5]] = -0.0
        assert not is_binary(other)
        got = gmm.class_stats(X, y, model.K, family)
        want = gmm.class_stats(other, y, model.K, family)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_allclose(got[1], want[1], rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-9, atol=0.0)

    def test_vvi_fit_allocates_less_than_one_copy_of_the_rows(self):
        # a mean-shifted block would hold two more copies of X for the whole fit;
        # the bound is an eighth of the rows' float64 copy
        X = self.binary_rows(n=20000, seed=172)
        labeled = self.binary_rows(n=200, seed=173)
        config = cem.CemConfig(family="VVI", max_iterations=3)
        start = cem.initialize(labeled, np.arange(200) % 2 + 1, 2, config)
        tracemalloc.start()
        try:
            cem.fit(start, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.size * np.dtype(np.float64).itemsize / 8

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_a_fit_on_other_rows_holds_no_copy_of_them(self, family):
        # Gaussian rows are scored and summed a row block at a time
        rng = np.random.default_rng(176)
        X = rng.standard_normal((20000, 160))
        labeled = rng.standard_normal((200, 160))
        labeled[100:] += 1.0
        config = cem.CemConfig(family=family, max_iterations=3)
        start = cem.initialize(labeled, np.repeat([1, 2], 100), 2, config)
        tracemalloc.start()
        try:
            cem.fit(start, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.nbytes / 4

    @pytest.mark.parametrize("family", ["EEE", "VVV"])
    def test_full_fit_holds_no_copy_of_the_rows(self, family):
        # whitening and scatters work on blocks of ROW_BLOCK cells, not N x d
        # buffers; the bound is a quarter of the rows' float64 copy
        X = self.binary_rows(n=20000, seed=172)
        labeled = self.binary_rows(n=200, seed=173)
        config = cem.CemConfig(family=family, max_iterations=3)
        start = cem.initialize(labeled, np.arange(200) % 2 + 1, 2, config)
        tracemalloc.start()
        try:
            cem.fit(start, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < X.size * np.dtype(np.float64).itemsize / 4


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
        mean, comp = model.means[0], model.components[0]
        expected = log_density(mean, comp, [0.5, 0.5]) + log_density(mean, comp, [1.0, -1.0])
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
    return model.weights, model.means, covs


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

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_integer_rows_give_the_statistics_of_their_floats(self, family):
        X = np.array([[0, 1], [1, 0], [1, 1], [0, 0], [1, 1]])
        y = np.array([1, 1, 1, 2, 2])
        want = gmm.class_stats(X.astype(np.float64), y, 3, family)
        for got, expected in zip(gmm.class_stats(X, y, 3, family), want):
            np.testing.assert_array_equal(got, expected)

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

    The diagonal kernels expand about the weighted mean of the model's
    means; expanded about the origin instead, these rows agree with the
    oracles to only about 1e-8.
    The full kernel centers the whitened rows on the first mean that shares
    their factor, and ``class_stats`` centers each class's rows on its mean
    before taking their scatter. With two components 1e3 sd apart, EEE
    scores the second about the first's mean.
    """

    @staticmethod
    def far_rows(family, seed=190, d=40, K=3, separation=0.0):
        rng = np.random.default_rng(seed)
        means = 1e4 + rng.standard_normal((K, d))
        # consecutive means ``separation`` unit-noise sd further apart
        means += separation / np.sqrt(d) * np.arange(K)[:, None]
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

    def check_class_stats(self, family, **inputs):
        model, (w, means, covs), X, y = self.far_rows(family, **inputs)
        K = len(w)
        counts, got_means, got_scatters = gmm.class_stats(X, y, K, family)
        full = family not in gmm.DIAGONAL_FAMILIES
        want_counts, want_means, want_scatters = direct_class_moments(X, y, K, full)
        np.testing.assert_array_equal(counts, want_counts)
        np.testing.assert_allclose(got_means, want_means, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(got_scatters, want_scatters, rtol=1e-9, atol=0.0)
        if full:
            np.testing.assert_array_equal(got_scatters, got_scatters.transpose(0, 2, 1))
        for other in gmm.FAMILIES:
            np.testing.assert_array_equal(gmm.class_stats(X, y, K, other)[1], got_means)
        expected = direct_complete_ll(w, means, covs, X, y, np.empty((0, X.shape[1])), [])
        got = gmm.labeled_log_likelihood(model, (counts, got_means, got_scatters))
        assert got == pytest.approx(expected, rel=1e-9)

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
                np.log(w[k]) + log_density(means[k], comp, X), expected[:, k], rtol=1e-9, atol=0.0
            )

    def test_vvv_components_sharing_one_factor_match_the_oracle(self):
        _, (w, means, covs), X, _ = self.far_rows("EEE")
        model = gmm.MixtureModel(w, means, [gmm.ComponentParams(covs[0])] * len(w), "VVV")
        expected = self.oracle_joint(w, means, covs, X)
        np.testing.assert_allclose(gmm.log_joint(model, X), expected, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_class_stats_and_labeled_likelihood_match_the_oracles(self, family):
        self.check_class_stats(family)

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_two_components_1e3_sd_apart_match_the_oracles(self, family):
        model, (w, means, covs), X, _ = self.far_rows(family, K=2, separation=1e3)
        expected = self.oracle_joint(w, means, covs, X)
        np.testing.assert_allclose(gmm.log_joint(model, X), expected, rtol=1e-9, atol=0.0)
        self.check_class_stats(family, K=2, separation=1e3)


class TestEstimate:
    """``gmm.estimate`` is the one path from class statistics to a model."""

    def test_weights_and_means(self):
        X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [5.0, 5.0], [7.0, 5.0]])
        stats = gmm.class_stats(X, np.array([1, 1, 1, 2, 2]), 2, "VII")
        model = gmm.estimate(stats, "VII")
        np.testing.assert_allclose(model.weights, [0.6, 0.4], rtol=1e-15)
        np.testing.assert_array_equal(model.means[0], X[:3].mean(axis=0))
        np.testing.assert_array_equal(model.means[1], X[3:].mean(axis=0))

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_a_class_without_rows_is_named_in_a_value_error(self, family):
        X = np.arange(10.0).reshape(5, 2) ** 2
        stats = gmm.class_stats(X, np.array([1, 1, 3, 3, 3]), 4, family)
        with pytest.raises(ValueError, match=r"classes \[2, 4\] have no rows"):
            gmm.estimate(stats, family)

    @pytest.mark.parametrize("family", gmm.SHARED_FAMILIES)
    def test_shared_family_builds_one_component(self, monkeypatch, family):
        rng = np.random.default_rng(180)
        stats = gmm.class_stats(rng.standard_normal((12, 3)), np.repeat([1, 2, 3], 4), 3, family)
        built = []
        real = gmm.ComponentParams.__post_init__
        monkeypatch.setattr(
            gmm.ComponentParams, "__post_init__", lambda self: built.append(1) or real(self)
        )
        model = gmm.estimate(stats, family)
        assert len(built) == 1
        assert model.K == 3
        assert all(c is model.components[0] for c in model.components)

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
            model = cem.cm_step(start, X[:4], np.ones(4, dtype=np.int64))
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
        comps = [gmm.ComponentParams(random_spd(rng, 2)) for _ in range(2)]
        with pytest.raises(ValueError):
            gmm.MixtureModel(np.array([0.5, 0.5]), np.zeros((2, 2)), comps, "EII")
        gmm.MixtureModel(np.array([0.5, 0.5]), np.zeros((2, 2)), comps, "VVV")

    @pytest.mark.parametrize("shape", [(2,), (1, 2), (3, 2), (2, 3)])
    def test_means_must_be_k_by_d(self, shape):
        comps = [gmm.ComponentParams(np.eye(2))] * 2
        with pytest.raises(ValueError, match="means have shape"):
            gmm.MixtureModel(np.array([0.5, 0.5]), np.zeros(shape), comps, "EEE")

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
        comps = [gmm.ComponentParams(c) for c in covariances]
        with pytest.raises(ValueError, match=family):
            gmm.MixtureModel(np.array([0.5, 0.5]), np.zeros((2, 2)), comps, family)

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
        assert np.array_equal(loaded.means, model.means)
        assert np.array_equal(payload["means"], means)
        for a, b in zip(loaded.components, model.components):
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
        assert loaded.K == 4
        assert all(c is loaded.components[0] for c in loaded.components)

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
