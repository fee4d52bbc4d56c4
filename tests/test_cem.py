import dataclasses

import numpy as np
import pytest

from conftest import fit_dataset, make_dataset, start_for
from mbss import cem, gmm, model_select, synth
from oracles import mixture, pooled_class_scatter, reference_fit


def two_blob_dataset(seed=0, separation=10.0, d=2, n=200, label_fraction=0.5):
    spec = synth.two_class_spec(
        d=d, separation=separation, n_samples=n, label_fraction=label_fraction, seed=seed
    )
    return synth.sample_mixture(spec), spec


def binary_blobs(seed=9, n=300, d=10, per_class=4):
    """0/1 rows of two Bernoulli profiles, ``per_class`` labeled rows per class.

    At seed 9 every family's fit moves labels for several iterations before
    it reaches a fixed partition.
    """
    rng = np.random.default_rng(seed)
    profiles = rng.uniform(0.2, 0.8, size=(2, d))
    y = np.arange(n) % 2 + 1
    X = (rng.random((n, d)) < profiles[y - 1]).astype(float)
    labeled = np.concatenate([np.flatnonzero(y == k)[:per_class] for k in (1, 2)])
    return make_dataset(X[labeled], y[labeled], np.delete(X, labeled, axis=0))


def assert_same_model(got, want):
    """Two mixtures agree bit for bit: weights, means and every factored covariance."""
    np.testing.assert_array_equal(got.weights, want.weights)
    np.testing.assert_array_equal(got.means, want.means)
    assert got.family == want.family
    for a, b in zip(got.components, want.components, strict=True):
        np.testing.assert_array_equal(a.covariance, b.covariance)
        if a.inv_cholesky is not None:
            np.testing.assert_array_equal(a.inv_cholesky, b.inv_cholesky)
        assert a.log_det == b.log_det


class TestInitialize:
    def test_proportions_and_means(self):
        ds = make_dataset(
            [[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [0.0, 6.0]],
            [1, 1, 2, 2],
            np.empty((0, 2)),
        )
        model = start_for(ds, cem.CemConfig(family="EII")).model
        assert np.allclose(model.weights, [0.5, 0.5])
        assert np.allclose(model.means[0], [1.0, 0.0])
        assert np.allclose(model.means[1], [0.0, 5.0])

    def test_single_class_reduces_to_one_gaussian(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3)) + 4.0
        ds = make_dataset(X, np.ones(20, dtype=int), np.empty((0, 3)), K=1)
        model = start_for(ds, cem.CemConfig(family="VVV")).model
        assert model.K == 1
        assert np.allclose(model.weights, [1.0])
        assert np.allclose(model.means[0], X.mean(axis=0))

    def test_eii_volume_matches_pooled_scatter_oracle(self):
        X = np.array(
            [[0.0, 0.0], [2.0, 0.0], [1.0, 3.0], [5.0, 5.0], [7.0, 5.0], [6.0, 8.0]]
        )
        y = np.array([1, 1, 1, 2, 2, 2])
        ds = make_dataset(X, y, np.empty((0, 2)))
        model = start_for(ds, cem.CemConfig(family="EII")).model
        lam = np.trace(pooled_class_scatter(X, y, 2)) / (2 * 6)
        got = model.components[0].covariance[0]
        assert got == pytest.approx(lam * (1 + 1e-6), rel=1e-12)
        # spherical and identical across components, stored as variances
        for comp in model.components:
            assert np.array_equal(comp.covariance, [got, got])

    @pytest.mark.parametrize("labels", [[0, 1, 2, 2], [1, 1, 2, 3]])
    def test_labels_must_lie_in_one_to_k(self, labels):
        X = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match=r"labels must lie in 1\.\.2"):
            cem.initialize(X, np.array(labels), 2, cem.CemConfig(family="EII"))

    def test_requires_two_labeled_per_class(self):
        ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1, 1, 2], np.empty((0, 2)))
        with pytest.raises(ValueError, match=r"classes \[2\] have fewer than 2 labeled samples"):
            start_for(ds, cem.CemConfig(family="EII"))


class TestEStep:
    def test_identical_components_uniform(self):
        model = mixture(
            [0.5, 0.5], np.zeros((2, 2)), np.stack([np.eye(2)] * 2), "EII"
        )
        P = cem.e_step(model, np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(P, 0.5, atol=1e-12)

    def test_point_at_mean_of_separated_component(self):
        means = np.array([[0.0, 0.0], [12.0, 0.0]])
        model = mixture(
            [0.5, 0.5], means, np.stack([np.eye(2)] * 2), "EII"
        )
        P = cem.e_step(model, means[:1])
        assert P[0, 0] > 0.99

    def test_empty_unlabeled_block(self):
        model = mixture(
            [1.0], np.zeros((1, 2)), np.eye(2)[None], "EII"
        )
        P = cem.e_step(model, np.empty((0, 2)))
        assert P.shape == (0, 1)


def cm_step(ds, hard_labels, family):
    """``cem.cm_step`` on a dataset: a start of its labeled statistics, and its unlabeled block.

    The start is built directly, so a class may lack labeled rows; the
    CM-step does not read its model.
    """
    labeled = gmm.class_stats(ds.labeled_features, ds.labels, ds.K, family)
    start = cem.Start(labeled, None, cem.CemConfig(family=family))
    return cem.cm_step(start, ds.unlabeled_features, hard_labels)


class TestCmStep:
    def test_reduces_to_labeled_estimates_without_unlabeled(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 2))
        y = np.array([1] * 5 + [2] * 5)
        ds = make_dataset(X, y, np.empty((0, 2)))
        model = cm_step(ds, [], "VVV")
        assert np.allclose(model.weights, [0.5, 0.5])
        assert np.allclose(model.means[0], X[:5].mean(axis=0))
        assert np.allclose(model.means[1], X[5:].mean(axis=0))

    def test_four_point_instance_hand_evaluated(self):
        ds = make_dataset(
            [[0.0, 0.0], [4.0, 0.0]], [1, 2], [[1.0, 0.0], [3.0, 0.0]]
        )
        model = cm_step(ds, [1, 2], "EII")
        # each class holds one labeled + one unlabeled point
        assert np.allclose(model.weights, [0.5, 0.5])
        assert np.allclose(model.means[0], [0.5, 0.0])
        assert np.allclose(model.means[1], [3.5, 0.0])

    def test_tie_goes_to_lower_class_index(self):
        assert cem.hard_assign(np.array([[0.5, 0.5]])).tolist() == [1]
        assert cem.hard_assign(np.array([[0.2, 0.4, 0.4]])).tolist() == [2]

    @pytest.mark.parametrize(
        "hard, message",
        [([], "must hold 1 labels"), ([1, 2], "must hold 1 labels"), ([[1]], "must hold 1"),
         ([0], r"lie in 1\.\.2"), ([3], r"lie in 1\.\.2")],
        ids=["none", "two", "column", "zero", "above-k"],
    )
    def test_rejects_hard_labels_of_wrong_length_or_range(self, hard, message):
        ds = make_dataset([[0.0], [1.0]], [1, 2], [[0.5]])
        with pytest.raises(ValueError, match=message):
            cm_step(ds, hard, "EII")

    def test_label_retention_under_posterior_perturbation(self):
        rng = np.random.default_rng(7)
        Xl = rng.standard_normal((8, 2))
        yl = np.array([1, 1, 1, 1, 2, 2, 2, 2])
        Xu = rng.standard_normal((4, 2)) + 8.0  # far away, always class 2-ish
        ds = make_dataset(Xl, yl, Xu)
        P1 = np.array([[0.1, 0.9]] * 4)
        P2 = np.array([[0.4, 0.6]] * 4)  # different posteriors, same argmax
        m1 = cm_step(ds, cem.hard_assign(P1), "VVV")
        m2 = cm_step(ds, cem.hard_assign(P2), "VVV")
        # class 1 statistics come from the labeled rows only
        assert np.array_equal(m1.means[0], m2.means[0])
        assert np.allclose(m1.means[0], Xl[:4].mean(axis=0))


class TestFit:
    def test_separated_spherical_recovers_assignments(self):
        (ds, truth), spec = two_blob_dataset(seed=1, separation=10.0)
        result = fit_dataset(ds, cem.CemConfig(family="EII"))
        assert result.converged
        assert np.array_equal(result.hard_labels, truth)

    def test_iteration_cap_respected(self):
        (ds, _), _ = two_blob_dataset(seed=2, separation=2.0)
        result = fit_dataset(ds, cem.CemConfig(family="EII", max_iterations=1))
        assert result.iterations == 1
        assert result.loglik_trace and len(result.loglik_trace) == 1

    def test_deterministic_rerun_is_bit_identical(self):
        (ds, _), _ = two_blob_dataset(seed=3, separation=3.0)
        cfg = cem.CemConfig(family="VVI")
        a = fit_dataset(ds, cfg)
        b = fit_dataset(ds, cfg)
        assert a.loglik_trace == b.loglik_trace
        assert np.array_equal(a.posteriors, b.posteriors)
        assert np.array_equal(a.hard_labels, b.hard_labels)
        assert np.array_equal(a.model.means, b.model.means)
        for ca, cb in zip(a.model.components, b.model.components):
            assert np.array_equal(ca.covariance, cb.covariance)

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_covariances_are_stored_in_the_family_shape(self, family):
        (ds, _), _ = two_blob_dataset(seed=9, separation=3.0, d=4)
        result = fit_dataset(ds, cem.CemConfig(family=family))
        diagonal = family in gmm.DIAGONAL_FAMILIES
        for comp in result.model.components:
            assert comp.covariance.shape == ((4,) if diagonal else (4, 4))
            assert (comp.inv_cholesky is None) == diagonal

    def test_no_unlabeled_equals_discriminant_analysis_exactly(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 3))
        y = np.array([1] * 15 + [2] * 15)
        ds = make_dataset(X, y, np.empty((0, 3)))
        for family in gmm.FAMILIES:
            cfg = cem.CemConfig(family=family)
            init = start_for(ds, cfg).model
            result = fit_dataset(ds, cfg)
            assert result.converged
            assert np.array_equal(result.model.weights, init.weights)
            assert np.array_equal(result.model.means, init.means)
            for ca, cb in zip(result.model.components, init.components):
                assert np.array_equal(ca.covariance, cb.covariance)

    def test_trace_is_nondecreasing(self):
        for seed in range(5):
            (ds, _), _ = two_blob_dataset(seed=seed, separation=2.0, n=160)
            result = fit_dataset(ds, cem.CemConfig(family="VVV"))
            diffs = np.diff(result.loglik_trace)
            assert diffs.size == 0 or diffs.min() >= -1e-8

    def test_posteriors_consistent_with_hard_labels(self):
        (ds, _), _ = two_blob_dataset(seed=4, separation=2.5)
        result = fit_dataset(ds, cem.CemConfig(family="EEE"))
        assert np.array_equal(result.hard_labels, np.argmax(result.posteriors, axis=1) + 1)
        labels, posteriors = cem.predict(result.model, ds.unlabeled_features)
        assert np.array_equal(labels, result.hard_labels)
        assert np.array_equal(posteriors, result.posteriors)

    def test_permutation_equivariance(self):
        (ds, _), _ = two_blob_dataset(seed=5, separation=3.0)
        rng = np.random.default_rng(0)
        perm = rng.permutation(ds.m)
        permuted = make_dataset(ds.labeled_features, ds.labels, ds.unlabeled_features[perm])
        cfg = cem.CemConfig(family="EEI")
        a = fit_dataset(ds, cfg)
        b = fit_dataset(permuted, cfg)
        assert np.array_equal(a.hard_labels[perm], b.hard_labels)
        assert np.allclose(a.model.means, b.model.means, atol=1e-9)
        for ca, cb in zip(a.model.components, b.model.components):
            assert np.allclose(ca.covariance, cb.covariance, atol=1e-9)

    @pytest.mark.parametrize("family", ["EII", "VVV"])
    def test_per_iteration_record_is_a_prefix_of_longer_fits(self, family):
        (ds, _), _ = two_blob_dataset(seed=7, separation=2.0, label_fraction=0.3)
        full = fit_dataset(ds, cem.CemConfig(family=family))
        assert full.iterations >= 3
        record = (full.loglik_trace, full.observed_trace, full.changed_labels)
        assert all(len(trace) == full.iterations for trace in record)
        assert full.changed_labels[0] == ds.m
        assert full.observed_trace[-1] == full.observed_loglik
        for k in range(1, full.iterations + 1):
            capped = fit_dataset(ds, cem.CemConfig(family=family, max_iterations=k))
            assert capped.iterations == k
            assert (capped.loglik_trace, capped.observed_trace, capped.changed_labels) == tuple(
                trace[:k] for trace in record
            )
            assert capped.observed_trace[-1] == gmm.observed_log_likelihood(capped.model, ds)

    def test_changed_labels_count_the_c_step_moves(self):
        (ds, _), _ = two_blob_dataset(seed=8, separation=1.5, label_fraction=0.3)
        config = cem.CemConfig(family="EII")
        start = start_for(ds, config)
        result = cem.fit(start, ds.unlabeled_features)
        # replay the fit: the C-step of iteration i commits to the argmax of model i-1
        model, labels = start.model, []
        for _ in range(result.iterations):
            labels.append(cem.predict(model, ds.unlabeled_features)[0])
            model = cem.cm_step(start, ds.unlabeled_features, labels[-1])
        moves = [ds.m] + [int(np.sum(a != b)) for a, b in zip(labels, labels[1:])]
        assert result.changed_labels == tuple(moves)
        assert any(moves[1:])

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_final_logliks_equal_the_gmm_functions_exactly(self, family):
        (ds, _), _ = two_blob_dataset(seed=9, separation=2.5, d=3)
        result = fit_dataset(ds, cem.CemConfig(family=family))
        assert result.complete_loglik == gmm.complete_log_likelihood(
            result.model, ds, result.hard_labels
        )
        assert result.observed_loglik == gmm.observed_log_likelihood(result.model, ds)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            cem.CemConfig(family="EII", tolerance=0.0)
        with pytest.raises(ValueError):
            cem.CemConfig(family="EII", max_iterations=0)
        with pytest.raises(ValueError):
            cem.CemConfig(family="XXX")

    def test_config_settings_are_family_tolerance_and_cap(self):
        names = [f.name for f in dataclasses.fields(cem.CemConfig)]
        assert names == ["family", "tolerance", "max_iterations"]

    def test_predict_empty_input(self):
        model = mixture(
            [0.5, 0.5], np.zeros((2, 2)), np.stack([np.eye(2)] * 2), "EII"
        )
        labels, posteriors = cem.predict(model, np.empty((0, 2)))
        assert labels.shape == (0,)
        assert posteriors.shape == (0, 2)


def _count_unlabeled_log_joints(monkeypatch, ds):
    """Patch gmm.log_joint to count the calls that evaluate ds's unlabeled block."""
    calls = []
    real = gmm.log_joint

    def counting(model, X, *block):
        if X is ds.unlabeled_features:
            calls.append(model)
        return real(model, X, *block)

    monkeypatch.setattr(gmm, "log_joint", counting)
    return calls


def models_built(result):
    """The starting model plus one per CM-step: iterations + 1, less a final repeat.

    A last iteration with no changed label repeats the partition that built
    the model before it, and ``fit`` records it without a CM-step.
    """
    return result.iterations + 1 - int(result.changed_labels[-1] == 0)


class TestLogJointReuse:
    """The unlabeled block is scored once per model: once per CM-step and once for the start."""

    @pytest.mark.parametrize("family", ["EII", "VVI", "EEE", "VVV"])
    def test_fit_scores_unlabeled_block_once_per_model(self, monkeypatch, family):
        (ds, _), _ = two_blob_dataset(seed=11, separation=2.0, label_fraction=0.3)
        calls = _count_unlabeled_log_joints(monkeypatch, ds)
        assigned = []
        real_assign = cem.hard_assign
        monkeypatch.setattr(cem, "hard_assign", lambda P: assigned.append(P) or real_assign(P))
        result = fit_dataset(ds, cem.CemConfig(family=family))
        assert result.iterations >= 2
        assert result.changed_labels[-1] == 0  # the fit ends on a skipped repeat
        assert len(calls) == models_built(result)
        assert len({id(model) for model in calls}) == len(calls)
        # the partition is taken once per model, and the last one is returned
        assert len(assigned) == models_built(result)
        assert np.array_equal(real_assign(assigned[-1]), result.hard_labels)

    def test_selection_does_not_rescore(self, monkeypatch):
        (ds, _), _ = two_blob_dataset(seed=12, separation=2.0, label_fraction=0.3)
        calls = _count_unlabeled_log_joints(monkeypatch, ds)
        best, _ = model_select.select_model(ds, ["VVI"], cem.CemConfig())
        assert len(calls) == models_built(best.fit)


class TestLabeledBlockOnce:
    """The labeled block is summarized by ``initialize``; iterations read unlabeled rows only."""

    @pytest.mark.parametrize("family", ["EII", "VVI", "EEE", "VVV"])
    def test_iterations_never_read_the_labeled_block(self, monkeypatch, family):
        (ds, _), _ = two_blob_dataset(seed=13, separation=2.0, label_fraction=0.3)
        config = cem.CemConfig(family=family)
        start = start_for(ds, config)
        blocks = []
        real_joint, real_stats = gmm.log_joint, gmm.class_stats
        monkeypatch.setattr(
            gmm, "log_joint", lambda m, X, *a: blocks.append(X) or real_joint(m, X, *a)
        )
        monkeypatch.setattr(gmm, "class_stats", lambda X, *a: blocks.append(X) or real_stats(X, *a))
        shared = cem.fit(start, ds.unlabeled_features)
        assert shared.iterations >= 2
        assert blocks and all(X is ds.unlabeled_features for X in blocks)
        blocks.clear()
        alone = fit_dataset(ds, config)
        assert sum(X is ds.labeled_features for X in blocks) == 1
        assert shared.loglik_trace == alone.loglik_trace
        assert np.array_equal(shared.posteriors, alone.posteriors)

    @pytest.mark.parametrize("family", gmm.SHARED_FAMILIES)
    def test_shared_families_factor_their_covariance_once_per_step(self, monkeypatch, family):
        (ds, _), _ = two_blob_dataset(seed=15, separation=2.0, d=3)
        made = []
        real = gmm.make_component
        monkeypatch.setattr(gmm, "make_component", lambda *a: made.append(a) or real(*a))
        result = fit_dataset(ds, cem.CemConfig(family=family))
        assert len(made) == models_built(result)
        covs = [c.covariance for c in result.model.components]
        assert covs[0] is covs[1]
        assert not np.array_equal(result.model.means[0], result.model.means[1])


class TestFixedPartitionStop:
    """A fit that reaches the partition that built its model records the repeat without a CM-step."""

    @staticmethod
    def assert_same_fit(got, want):
        for name in ("iterations", "loglik_trace", "observed_trace", "changed_labels",
                     "converged", "complete_loglik", "observed_loglik"):
            assert getattr(got, name) == getattr(want, name), name
        np.testing.assert_array_equal(got.posteriors, want.posteriors)
        np.testing.assert_array_equal(got.hard_labels, want.hard_labels)
        assert_same_model(got.model, want.model)

    # each id names the family and the stopping rule, Aitken, that every fit uses
    @pytest.mark.parametrize("family", gmm.FAMILIES, ids=lambda family: f"{family}-aitken")
    def test_fit_equals_the_reference_loop_bit_for_bit(self, family):
        (ds, _), _ = two_blob_dataset(seed=17, separation=2.0, d=4, label_fraction=0.3)
        config = cem.CemConfig(family=family)
        want = reference_fit(start_for(ds, config), ds.unlabeled_features)
        assert want.converged and want.changed_labels[-1] == 0  # ends on a repeat
        self.assert_same_fit(fit_dataset(ds, config), want)
        # a cap on the repeat iteration still records it; one less leaves it out
        for cap, converged in ((want.iterations, True), (want.iterations - 1, False)):
            capped = cem.CemConfig(family=family, max_iterations=cap)
            want_capped = reference_fit(start_for(ds, capped), ds.unlabeled_features)
            assert want_capped.converged == converged
            self.assert_same_fit(fit_dataset(ds, capped), want_capped)

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_binary_fit_equals_the_reference_loop_bit_for_bit(self, family):
        # fit moves one set of exact moments by the changed bool rows; the
        # reference loop's CM-steps take each partition's moments afresh
        ds = binary_blobs()
        assert ds.labeled_features.dtype == ds.unlabeled_features.dtype == bool
        config = cem.CemConfig(family=family)
        want = reference_fit(start_for(ds, config), ds.unlabeled_features)
        assert want.converged and want.changed_labels[-1] == 0
        assert sum(moved > 0 for moved in want.changed_labels[1:]) >= 2
        self.assert_same_fit(fit_dataset(ds, config), want)
        for cap, converged in ((want.iterations, True), (want.iterations - 1, False)):
            capped = cem.CemConfig(family=family, max_iterations=cap)
            want_capped = reference_fit(start_for(ds, capped), ds.unlabeled_features)
            assert want_capped.converged == converged
            self.assert_same_fit(fit_dataset(ds, capped), want_capped)

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_float_binary_fit_equals_the_reference_loop_bit_for_bit(self, family):
        # the same 0/1 rows as float64, which no Dataset holds: centered
        # statistics and the mean-shifted scores, capped or not
        ds = binary_blobs()
        labeled, unlabeled = ds.labeled_features.astype(float), ds.unlabeled_features.astype(float)
        config = cem.CemConfig(family=family)
        start = cem.initialize(labeled, ds.labels, ds.K, config)
        want = reference_fit(start, unlabeled)
        assert want.converged and want.changed_labels[-1] == 0
        self.assert_same_fit(cem.fit(start, unlabeled), want)
        capped = dataclasses.replace(config, max_iterations=2)
        capped = cem.initialize(labeled, ds.labels, ds.K, capped)
        self.assert_same_fit(cem.fit(capped, unlabeled), reference_fit(capped, unlabeled))


class TestBinaryMoments:
    """On 0/1 rows a fit's CM-steps read exact integer moments, updated by the rows that move."""

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_permuting_unlabeled_rows_gives_the_same_model_bit_for_bit(self, family):
        ds = binary_blobs()
        start = start_for(ds, cem.CemConfig(family=family))
        perm = np.random.default_rng(19).permutation(ds.m)
        a = cem.fit(start, ds.unlabeled_features)
        b = cem.fit(start, ds.unlabeled_features[perm])
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.hard_labels[perm], b.hard_labels)
        assert_same_model(b.model, a.model)

    def test_no_fitting_module_binds_the_check(self):
        # "0/1" is the rows' dtype there
        assert not any(hasattr(module, "is_binary") for module in (cem, gmm, model_select))

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_the_rows_are_checked_for_0_1_cells_once_per_fit(self, is_binary_calls, family):
        # once, when the Dataset is built from float rows; the fit reads the dtype
        ds = binary_blobs()
        assert len(is_binary_calls) == 1 and ds.unlabeled_features.dtype == bool
        start = start_for(ds, cem.CemConfig(family=family))
        result = cem.fit(start, ds.unlabeled_features)
        hard = result.hard_labels % 2 + 1
        cem.cm_step(start, ds.unlabeled_features, hard)
        cem.cm_step(start, ds.unlabeled_features.astype(float), hard)
        assert result.iterations >= 3
        assert len(is_binary_calls) == 1

    def test_a_six_family_selection_checks_no_rows(self, is_binary_calls):
        ds = binary_blobs()
        assert len(is_binary_calls) == 1
        best, scores = model_select.select_model(ds, gmm.FAMILIES, cem.CemConfig())
        assert [s.family for s in scores] == list(gmm.FAMILIES)
        assert len(is_binary_calls) == 1

    @pytest.mark.parametrize("family", gmm.FAMILIES)
    def test_a_cm_step_reads_only_the_rows_that_moved(self, monkeypatch, family):
        ds = binary_blobs()
        start = start_for(ds, cem.CemConfig(family=family))
        moved = []
        real = gmm.Moments.move

        def counting(self, X, labels):
            moved.append(np.count_nonzero(labels != self.labels))
            return real(self, X, labels)

        monkeypatch.setattr(gmm.Moments, "move", counting)
        result = cem.fit(start, ds.unlabeled_features)
        assert moved == [c for c in result.changed_labels if c > 0]
        assert moved[0] == ds.m and len(moved) >= 3


class TestAitkenStopping:
    def test_needs_two_values(self):
        assert not cem._stop_reached([1.0], 1e-5)

    def test_plain_difference_on_two_values(self):
        assert cem._stop_reached([1.0, 1.0 + 1e-7], 1e-5)
        assert not cem._stop_reached([1.0, 2.0], 1e-5)

    def test_geometric_sequence_extrapolation(self):
        # l_g = 10 - 2 * 0.5^g converges to 10; with a = 0.5 the rule fires
        # once the remaining gap (l_inf - l1 = 2 * increment) is small.
        trace = [10.0 - 2.0 * 0.5**g for g in range(1, 30)]
        hits = [g for g in range(2, len(trace)) if cem._stop_reached(trace[: g + 1], 1e-5)]
        first = hits[0]
        gap = trace[-1] - trace[first - 1]
        assert gap < 1e-5  # remaining true distance below tolerance at the stop
        assert not cem._stop_reached(trace[: first], 1e-5)

    def test_degenerate_ratio_falls_back(self):
        # flat then jump: a >= 1 territory
        assert not cem._stop_reached([1.0, 2.0, 4.0], 1e-5)
        assert cem._stop_reached([1.0, 1.0, 1.0], 1e-5)
