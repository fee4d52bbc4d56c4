import numpy as np
import pytest

from conftest import fit_dataset, make_dataset, start_for
from mbss import cem, gmm, model_select, synth
from oracles import mixture, pooled_class_scatter


def two_blob_dataset(seed=0, separation=10.0, d=2, n=200, label_fraction=0.5):
    spec = synth.two_class_spec(
        d=d, separation=separation, n_samples=n, label_fraction=label_fraction, seed=seed
    )
    return synth.sample_mixture(spec), spec


class TestInitialize:
    def test_proportions_and_means(self):
        ds = make_dataset(
            [[0.0, 0.0], [2.0, 0.0], [0.0, 4.0], [0.0, 6.0]],
            [1, 1, 2, 2],
            np.empty((0, 2)),
        )
        model = start_for(ds, cem.CemConfig(family="EII")).model
        assert np.allclose(model.weights, [0.5, 0.5])
        assert np.allclose(model.components[0].mean, [1.0, 0.0])
        assert np.allclose(model.components[1].mean, [0.0, 5.0])

    def test_single_class_reduces_to_one_gaussian(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((20, 3)) + 4.0
        ds = make_dataset(X, np.ones(20, dtype=int), np.empty((0, 3)), K=1)
        model = start_for(ds, cem.CemConfig(family="VVV")).model
        assert model.K == 1
        assert np.allclose(model.weights, [1.0])
        assert np.allclose(model.components[0].mean, X.mean(axis=0))

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


def cm_step(ds, hard_labels, family, prev_model=None):
    """``cem.cm_step`` on a dataset: a start of its labeled statistics, and its unlabeled block.

    The start is built directly, so a class may lack labeled rows; the
    CM-step does not read its model.
    """
    labeled = gmm.class_stats(ds.labeled_features, ds.labels, ds.K, family)
    start = cem.Start(labeled, None, cem.CemConfig(family=family))
    return cem.cm_step(start, ds.unlabeled_features, hard_labels, prev_model)


class TestCmStep:
    def test_reduces_to_labeled_estimates_without_unlabeled(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((10, 2))
        y = np.array([1] * 5 + [2] * 5)
        ds = make_dataset(X, y, np.empty((0, 2)))
        model = cm_step(ds, [], "VVV")
        assert np.allclose(model.weights, [0.5, 0.5])
        assert np.allclose(model.components[0].mean, X[:5].mean(axis=0))
        assert np.allclose(model.components[1].mean, X[5:].mean(axis=0))

    def test_four_point_instance_hand_evaluated(self):
        ds = make_dataset(
            [[0.0, 0.0], [4.0, 0.0]], [1, 2], [[1.0, 0.0], [3.0, 0.0]]
        )
        model = cm_step(ds, [1, 2], "EII")
        # each class holds one labeled + one unlabeled point
        assert np.allclose(model.weights, [0.5, 0.5])
        assert np.allclose(model.components[0].mean, [0.5, 0.0])
        assert np.allclose(model.components[1].mean, [3.5, 0.0])

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

    def test_starved_class_keeps_previous_parameters(self):
        # class 2 has no labeled rows (relaxed container) and wins no posteriors
        ds = make_dataset([[0.0, 0.0], [0.5, 0.0]], [1, 1], [[0.2, 0.1]], K=2)
        prev = mixture(
            [0.5, 0.5],
            np.array([[0.0, 0.0], [9.0, 9.0]]),
            np.stack([np.eye(2), 2.0 * np.eye(2)]),
            "VII",
        )
        model = cm_step(ds, [1], "VII", prev_model=prev)
        assert np.allclose(model.components[1].mean, [9.0, 9.0])
        assert np.array_equal(model.components[1].covariance, prev.components[1].covariance)
        # counts (3, 0) -> raw (1, 0), floored (1, 1/3), renormalized (3/4, 1/4)
        assert model.weights[1] == pytest.approx(0.25, abs=1e-12)
        assert model.weights.sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            cm_step(ds, [1], "VII")

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
        assert np.array_equal(m1.components[0].mean, m2.components[0].mean)
        assert np.allclose(m1.components[0].mean, Xl[:4].mean(axis=0))


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
        for ca, cb in zip(a.model.components, b.model.components):
            assert np.array_equal(ca.mean, cb.mean)
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
            for ca, cb in zip(result.model.components, init.components):
                assert np.array_equal(ca.mean, cb.mean)
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
        for ca, cb in zip(a.model.components, b.model.components):
            assert np.allclose(ca.mean, cb.mean, atol=1e-9)
            assert np.allclose(ca.covariance, cb.covariance, atol=1e-9)

    def test_delta_stopping_also_converges(self):
        (ds, _), _ = two_blob_dataset(seed=6, separation=4.0)
        result = fit_dataset(ds, cem.CemConfig(family="EII", stopping="delta"))
        assert result.converged

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
            model = cem.cm_step(start, ds.unlabeled_features, labels[-1], model)
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
        with pytest.raises(ValueError):
            cem.CemConfig(family="EII", stopping="nope")

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

    def counting(model, X):
        if X is ds.unlabeled_features:
            calls.append(model)
        return real(model, X)

    monkeypatch.setattr(gmm, "log_joint", counting)
    return calls


class TestLogJointReuse:
    """The unlabeled block is scored once per model: iterations + 1 times per fit."""

    @pytest.mark.parametrize("family", ["EII", "VVI", "EEE", "VVV"])
    def test_fit_scores_unlabeled_block_once_per_model(self, monkeypatch, family):
        (ds, _), _ = two_blob_dataset(seed=11, separation=2.0, label_fraction=0.3)
        calls = _count_unlabeled_log_joints(monkeypatch, ds)
        assigned = []
        real_assign = cem.hard_assign
        monkeypatch.setattr(cem, "hard_assign", lambda P: assigned.append(P) or real_assign(P))
        result = fit_dataset(ds, cem.CemConfig(family=family))
        assert result.iterations >= 2
        assert len(calls) == result.iterations + 1
        assert len({id(model) for model in calls}) == len(calls)
        # the partition is taken once per model, and the last one is returned
        assert len(assigned) == result.iterations + 1
        assert np.array_equal(real_assign(assigned[-1]), result.hard_labels)

    def test_selection_does_not_rescore(self, monkeypatch):
        (ds, _), _ = two_blob_dataset(seed=12, separation=2.0, label_fraction=0.3)
        calls = _count_unlabeled_log_joints(monkeypatch, ds)
        best, _ = model_select.select_model(ds, ["VVI"], cem.CemConfig())
        assert len(calls) == best.fit.iterations + 1


class TestLabeledBlockOnce:
    """The labeled block is summarized by ``initialize``; iterations read unlabeled rows only."""

    @pytest.mark.parametrize("family", ["EII", "VVI", "EEE", "VVV"])
    def test_iterations_never_read_the_labeled_block(self, monkeypatch, family):
        (ds, _), _ = two_blob_dataset(seed=13, separation=2.0, label_fraction=0.3)
        config = cem.CemConfig(family=family)
        start = start_for(ds, config)
        blocks = []
        real_joint, real_stats = gmm.log_joint, gmm.class_stats
        monkeypatch.setattr(gmm, "log_joint", lambda m, X: blocks.append(X) or real_joint(m, X))
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
        assert len(made) == result.iterations + 1
        covs = [c.covariance for c in result.model.components]
        assert covs[0] is covs[1]
        assert not np.array_equal(result.model.components[0].mean, result.model.components[1].mean)


class TestAitkenStopping:
    def test_needs_two_values(self):
        assert not cem._stop_reached([1.0], 1e-5, "aitken")

    def test_plain_difference_on_two_values(self):
        assert cem._stop_reached([1.0, 1.0 + 1e-7], 1e-5, "aitken")
        assert not cem._stop_reached([1.0, 2.0], 1e-5, "aitken")

    def test_geometric_sequence_extrapolation(self):
        # l_g = 10 - 2 * 0.5^g converges to 10; with a = 0.5 the rule fires
        # once the remaining gap (l_inf - l1 = 2 * increment) is small.
        trace = [10.0 - 2.0 * 0.5**g for g in range(1, 30)]
        hits = [g for g in range(2, len(trace)) if cem._stop_reached(trace[: g + 1], 1e-5, "aitken")]
        first = hits[0]
        gap = trace[-1] - trace[first - 1]
        assert gap < 1e-5  # remaining true distance below tolerance at the stop
        assert not cem._stop_reached(trace[: first], 1e-5, "aitken")

    def test_degenerate_ratio_falls_back(self):
        # flat then jump: a >= 1 territory
        assert not cem._stop_reached([1.0, 2.0, 4.0], 1e-5, "aitken")
        assert cem._stop_reached([1.0, 1.0, 1.0], 1e-5, "aitken")
