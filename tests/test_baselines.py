import numpy as np
import pytest

from conftest import make_dataset, start_for
from mbss import baselines, cem, gmm
from mbss.baselines import TIE_LABEL, KnnModel, knn_predict_all
from oracles import direct_log_density, mixture


def knn_one(model, x):
    """The vote for one query row."""
    return knn_predict_all(model, x)[0]


class TestKnn:
    def test_k1_returns_exact_match_label(self):
        model = KnnModel(np.array([[0.0, 0.0], [1.0, 1.0]]), [1, 2], k=1)
        assert knn_one(model, np.array([1.0, 1.0])) == 2

    def test_majority_vote(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        model = KnnModel(X, [1, 1, 2], k=3)
        assert knn_one(model, np.array([0.0, 0.2])) == 1

    def test_balanced_equidistant_neighbors_tie(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = KnnModel(X, [1, 1, 2, 2], k=3)
        # all four are equidistant from the origin; distance tie at the k-th
        # neighbor pulls in every point and the vote is 2-2
        assert knn_one(model, np.zeros(2)) == TIE_LABEL

    def test_distance_tie_includes_all_equidistant(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [3.0, 0.0]])
        model = KnnModel(X, [2, 2, 2, 1], k=3)
        assert knn_one(model, np.zeros(2)) == 2

    def test_k_equals_n_is_global_majority(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((9, 3))
        y = np.array([1] * 5 + [2] * 4)
        model = KnnModel(X, y, k=9)
        assert knn_one(model, rng.standard_normal(3)) == 1

    def test_k_equals_n_balanced_labels_tie(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        model = KnnModel(X, [1, 1, 2, 2], k=4)
        assert knn_one(model, np.array([1.5, 0.0])) == TIE_LABEL

    def test_batch_matches_single(self):
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, (20, 5)).astype(float)
        y = rng.integers(1, 3, 20)
        model = KnnModel(X, y, k=3)
        Q = rng.integers(0, 2, (7, 5)).astype(float)
        batch = knn_predict_all(model, Q)
        assert batch.dtype == np.int64
        for i in range(7):
            assert knn_one(model, Q[i]) == batch[i]

    def test_validation(self):
        with pytest.raises(ValueError):
            KnnModel(np.empty((0, 2)), [], k=1)
        with pytest.raises(ValueError):
            KnnModel(np.zeros((3, 2)), [1, 2, 1], k=4)


def lda_model(means, covariance, priors):
    """An LDA model from its class means, pooled covariance and priors."""
    covs = np.stack([covariance] * len(priors))
    return baselines.LdaModel(mixture(priors, means, covs, "EEE"))


class TestLda:
    def test_perpendicular_bisector_geometry(self):
        model = lda_model(np.array([[0.0, 0.0], [2.0, 0.0]]), np.eye(2), [0.5, 0.5])
        labels, _ = baselines.lda_predict_all(model, np.array([[0.9, 5.0], [1.1, -7.0]]))
        assert labels[0] == 1
        assert labels[1] == 2

    def test_equal_means_prior_dominates(self):
        rng = np.random.default_rng(2)
        Q = rng.standard_normal((20, 3))
        for priors, winner in (([0.9, 0.1], 1), ([0.1, 0.9], 2)):
            labels, _ = baselines.lda_predict_all(lda_model(np.zeros((2, 3)), np.eye(3), priors), Q)
            assert np.all(labels == winner)

    def test_agrees_with_plugin_bayes_oracle(self):
        rng = np.random.default_rng(3)
        X = np.vstack(
            [rng.standard_normal((100, 4)), rng.standard_normal((100, 4)) + 1.0]
        )
        y = np.array([1] * 100 + [2] * 100)
        model = baselines.lda_fit(X, y)
        Q = rng.standard_normal((50, 4)) + 0.5
        labels, _ = baselines.lda_predict_all(model, Q)
        prior = np.log([0.5, 0.5])
        comps = model.mixture.components
        for i, x in enumerate(Q):
            joint = [
                prior[k] + direct_log_density(comps[k].mean, comps[k].covariance, x)
                for k in range(2)
            ]
            assert labels[i] == int(np.argmax(joint)) + 1

    def test_affine_shift_invariance(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((60, 3))
        y = rng.integers(1, 3, 60)
        while min(np.sum(y == 1), np.sum(y == 2)) < 2:
            y = rng.integers(1, 3, 60)
        Q = rng.standard_normal((25, 3))
        shift = np.array([100.0, -40.0, 7.5])
        base, _ = baselines.lda_predict_all(baselines.lda_fit(X, y), Q)
        moved, _ = baselines.lda_predict_all(baselines.lda_fit(X + shift, y), Q + shift)
        assert np.array_equal(base, moved)

    def test_matches_shared_covariance_mixture_initialization(self):
        rng = np.random.default_rng(5)
        for trial in range(5):
            X = np.vstack(
                [rng.standard_normal((40, 3)), rng.standard_normal((40, 3)) + 1.5]
            )
            y = np.array([1] * 40 + [2] * 40)
            ds = make_dataset(X, y, np.empty((0, 3)))
            mixture = start_for(ds, cem.CemConfig(family="EEE")).model
            lda = baselines.lda_fit(X, y)
            Q = rng.standard_normal((60, 3)) + 0.75
            lda_labels, _ = baselines.lda_predict_all(lda, Q)
            mix_labels, _ = cem.predict(mixture, Q)
            assert np.array_equal(lda_labels, mix_labels)

    def test_fit_builds_and_factors_one_component(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = (rng.random((100, 160)) < 0.3).astype(float)
        y = np.repeat([1, 2], 50)
        built = []
        real = gmm.ComponentParams.__post_init__
        monkeypatch.setattr(
            gmm.ComponentParams, "__post_init__", lambda self: built.append(1) or real(self)
        )
        model = baselines.lda_fit(X, y)
        assert len(built) == 1
        assert model.mixture.components[1].inv_cholesky is model.mixture.components[0].inv_cholesky

    def test_fit_requires_two_per_class(self):
        with pytest.raises(ValueError):
            baselines.lda_fit(np.zeros((3, 2)), [1, 1, 2])

    def test_singular_pooled_covariance_is_regularized(self):
        # all rows identical per class: zero scatter, ridge must rescue it
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
        model = baselines.lda_fit(X, [1, 1, 2, 2])
        labels, _ = baselines.lda_predict_all(model, X)
        assert labels.tolist() == [1, 1, 2, 2]
