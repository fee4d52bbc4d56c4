import numpy as np
import pytest

from mbss import synth
from mbss.synth import SynthSpec, binarize, sample_mixture, two_class_spec


def basic_spec(seed=0, weights=(0.5, 0.5), n=400, label_fraction=0.5):
    return two_class_spec(
        d=3, separation=4.0, n_samples=n, label_fraction=label_fraction, seed=seed,
        weights=weights,
    )


class TestSampleMixture:
    def test_same_seed_identical_datasets(self):
        a_ds, a_truth = sample_mixture(basic_spec(seed=42))
        b_ds, b_truth = sample_mixture(basic_spec(seed=42))
        assert np.array_equal(a_ds.labeled_features, b_ds.labeled_features)
        assert np.array_equal(a_ds.unlabeled_features, b_ds.unlabeled_features)
        assert np.array_equal(a_ds.labels, b_ds.labels)
        assert np.array_equal(a_truth, b_truth)

    def test_different_seed_differs(self):
        a_ds, _ = sample_mixture(basic_spec(seed=1))
        b_ds, _ = sample_mixture(basic_spec(seed=2))
        assert not np.array_equal(a_ds.labeled_features, b_ds.labeled_features)

    def test_degenerate_weights_draw_single_component(self):
        ds, truth = sample_mixture(basic_spec(seed=3, weights=(1.0, 0.0)))
        assert np.all(ds.labels == 1)
        assert np.all(truth == 1)

    def test_single_component_mean_obeys_law_of_large_numbers(self):
        spec = SynthSpec(
            weights=np.array([1.0]),
            means=np.array([[2.0, -1.0]]),
            covariances=np.eye(2)[None],
            n_samples=10000,
            label_fraction=1.0,
            seed=4,
        )
        ds, _ = sample_mixture(spec)
        bound = 3.0 / np.sqrt(10000)
        assert np.all(np.abs(ds.labeled_features.mean(axis=0) - spec.means[0]) < bound)

    def test_proportions_converge_to_weights(self):
        spec = basic_spec(seed=5, weights=(0.7, 0.3), n=4000)
        ds, truth = sample_mixture(spec)
        all_labels = np.concatenate([ds.labels, truth])
        share = np.mean(all_labels == 1)
        sd = np.sqrt(0.7 * 0.3 / 4000)
        assert abs(share - 0.7) < 3 * sd

    def test_label_fraction_one_gives_no_unlabeled(self):
        ds, truth = sample_mixture(basic_spec(seed=6, label_fraction=1.0))
        assert ds.m == 0
        assert truth.size == 0

    def test_small_fraction_keeps_two_labeled_per_class(self):
        ds, _ = sample_mixture(basic_spec(seed=7, n=100, label_fraction=0.01))
        counts = ds.class_counts()
        assert counts.min() >= 2

    def test_separated_components_are_nearest_mean_clusterable(self):
        spec = two_class_spec(d=2, separation=10.0, n_samples=500, label_fraction=0.5, seed=8)
        ds, truth = sample_mixture(spec)
        X = ds.unlabeled_features
        d0 = np.linalg.norm(X - spec.means[0], axis=1)
        d1 = np.linalg.norm(X - spec.means[1], axis=1)
        nearest = np.where(d0 <= d1, 1, 2)
        assert np.array_equal(nearest, truth)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            basic_spec(seed=0, weights=(0.5, 0.6))
        with pytest.raises(ValueError):
            two_class_spec(d=2, separation=1.0, n_samples=10, label_fraction=0.0, seed=0)
        with pytest.raises((ValueError, np.linalg.LinAlgError)):
            SynthSpec(
                weights=np.array([1.0]),
                means=np.zeros((1, 2)),
                covariances=np.array([[[1.0, 2.0], [2.0, 1.0]]]),
                n_samples=5,
                label_fraction=1.0,
                seed=0,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("part", ["weights", "means", "covariances"])
    def test_non_finite_parameters_are_rejected(self, part, bad):
        params = {
            "weights": np.array([0.5, 0.5]),
            "means": np.zeros((2, 2)),
            "covariances": np.stack([np.eye(2)] * 2),
        }
        params[part].flat[-1] = bad
        with pytest.raises(ValueError, match="must be finite"):
            SynthSpec(**params, n_samples=10, label_fraction=0.5, seed=0)

    @pytest.mark.parametrize("name", ["separation", "scale", "rho"])
    def test_two_class_spec_rejects_non_finite_geometry(self, name):
        geometry = {"separation": 1.0, "scale": 1.0, "rho": 0.0, name: np.inf}
        with pytest.raises(ValueError, match="must be finite"):
            two_class_spec(d=2, n_samples=10, label_fraction=0.5, seed=0, **geometry)


class TestBinarize:
    def test_minus_infinity_threshold_gives_all_ones(self):
        X = np.random.default_rng(0).standard_normal((5, 4))
        assert np.all(binarize(X, float("-inf")) == 1.0)

    def test_plus_infinity_threshold_gives_all_zeros(self):
        X = np.random.default_rng(1).standard_normal((5, 4))
        assert np.all(binarize(X, float("inf")) == 0.0)

    def test_symmetric_data_splits_about_evenly_at_zero(self):
        X = np.random.default_rng(2).standard_normal((100, 100))
        share = binarize(X, 0.0).mean()
        sd = np.sqrt(0.25 / X.size)
        assert abs(share - 0.5) < 3 * sd

    def test_strictly_exceeding(self):
        assert binarize(np.array([[0.0, 0.5]]), 0.0).tolist() == [[0.0, 1.0]]
