import warnings

import numpy as np
import pytest

from conftest import make_dataset
from mbss import baselines, cem, evaluation, synth
from mbss.baselines import TIE_LABEL
from mbss.dataset import Dataset, stratified_folds
from mbss.evaluation import (
    DEFAULT_FRACTIONS,
    DEFAULT_REPLICATES,
    confusion,
    cross_validate,
    detection_rate,
    external,
    mbss,
    pca_project,
    roc_auc,
)
from oracles import pairwise_auc, roc_points


def labeled_synthetic(seed=0, n=300, separation=8.0, d=3):
    spec = synth.two_class_spec(
        d=d, separation=separation, n_samples=n, label_fraction=1.0, seed=seed
    )
    ds, _ = synth.sample_mixture(spec)
    return ds


def constant(label):
    """Always predicts one class; used for the chance-accuracy checks."""
    return lambda train_X, train_y, pool: lambda idx: (
        np.full(len(idx), label, dtype=np.int64), None
    )


def rule(fn):
    """Labels each requested test-pool row with ``fn`` of its features."""
    return lambda train_X, train_y, pool: lambda idx: (fn(pool[idx]), None)


def sweep(classifier, X, *args, **kwargs):
    """Detection rate of a classifier that ignores its training rows."""
    return detection_rate(classifier, X[:0], np.zeros(0, dtype=np.int64), X, *args, **kwargs)


class TestConfusion:
    def test_counts_conserve_total(self):
        truth = np.array([1, 1, 2, 2, 2])
        preds = [1, 2, 2, 1, TIE_LABEL]
        counts, ties = confusion(truth, preds, positive_label=2)
        assert counts.total == 5
        assert ties == 1
        assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 1, 1, 2)
        assert counts.accuracy == pytest.approx(2 / 5)
        assert counts.fpr == pytest.approx(1 / 2)

    def test_tie_counts_as_incorrect_on_both_sides(self):
        truth = np.array([2, 1])
        counts, ties = confusion(truth, [TIE_LABEL, TIE_LABEL], 2)
        assert ties == 2
        assert counts.fn == 1 and counts.fp == 1


class TestCrossValidate:
    def test_perfect_classifier_on_separable_data(self):
        ds = labeled_synthetic(seed=1)
        report = cross_validate(ds, "mbss", mbss(cem.CemConfig(family="EII")), folds=10, seed=0)
        assert report.acc_mean == 1.0
        assert report.acc_sd == 0.0
        assert report.fpr_mean == 0.0
        assert report.auc == 1.0

    def test_constant_classifier_hits_chance_accuracy(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((100, 3))
        labels = rng.permutation(np.array([2] * 57 + [1] * 43))
        ds = make_dataset(X, labels, np.empty((0, 3)))
        report = cross_validate(ds, "constant", constant(2), folds=10, seed=0)
        assert report.acc_mean == pytest.approx(0.57, abs=1e-12)
        assert report.fpr_mean == 1.0

    def test_accuracy_plus_error_is_one_per_fold(self):
        ds = labeled_synthetic(seed=3, separation=1.0)
        report = cross_validate(
            ds, "mbss", mbss(cem.CemConfig(family="VVI")), folds=5, seed=1
        )
        for acc in report.fold_accuracy:
            assert 0.0 <= acc <= 1.0
        assert report.fold_accuracy.shape == (5,)
        assert np.isfinite(report.acc_sd)

    def test_mean_sd_recomputable(self):
        ds = labeled_synthetic(seed=4, separation=2.0)
        report = cross_validate(ds, "mbss", mbss(cem.CemConfig(family="EII")), folds=4, seed=2)
        assert report.acc_mean == pytest.approx(report.fold_accuracy.mean(), abs=1e-12)
        assert report.acc_sd == pytest.approx(np.std(report.fold_accuracy, ddof=1), abs=1e-12)


class TestDetectionRate:
    def test_flag_everything_gives_unit_rate(self):
        X = np.random.default_rng(0).standard_normal((2000, 2))
        rows = sweep(constant(2), X, DEFAULT_FRACTIONS, DEFAULT_REPLICATES, seed=0)
        assert all(r.dr_mean == 1.0 for r in rows)
        assert [r.fraction_pct for r in rows] == list(DEFAULT_FRACTIONS)
        assert [r.replicates for r in rows] == list(DEFAULT_REPLICATES)

    def test_full_fraction_single_replicate_is_exact(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((40, 2))
        fixed = rng.integers(1, 3, 40)
        rows = sweep(external(fixed), X, (100.0,), (1,), seed=9)
        assert rows[0].dr_mean == pytest.approx(np.mean(fixed == 2), abs=1e-15)
        assert np.isnan(rows[0].dr_sd)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((200, 2))
        fn = rule(lambda sub: np.where(sub[:, 0] > 0, 2, 1))
        a = sweep(fn, X, (10.0, 50.0), (5, 3), seed=7)
        b = sweep(fn, X, (10.0, 50.0), (5, 3), seed=7)
        assert [(r.dr_mean, r.replicates) for r in a] == [(r.dr_mean, r.replicates) for r in b]

    def test_zero_sample_fraction_skipped_with_warning(self):
        X = np.zeros((50, 2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = sweep(constant(2), X, (0.1, 100.0), (3, 1), seed=0)
        assert len(rows) == 1
        assert any("zero rows" in str(w.message) for w in caught)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sweep(constant(2), np.zeros((10, 1)), (1.0, 2.0), (1,), seed=0)

    def test_ties_count_as_not_detected(self):
        X = np.zeros((10, 2))
        fn = rule(lambda sub: np.full(sub.shape[0], TIE_LABEL))
        rows = sweep(fn, X, (100.0,), (1,), seed=0)
        assert rows[0].dr_mean == 0.0


class TestClassifierProtocol:
    def test_one_classifier_drives_both_protocols(self):
        ds = labeled_synthetic(seed=5, n=200, separation=2.0)
        X, y = ds.labeled_features, ds.labels
        oos = X[y == 2] + 0.25
        lda = evaluation.lda()
        pools = []

        def counted(train_X, train_y, pool):
            pools.append(len(pool))
            return lda(train_X, train_y, pool)

        report = cross_validate(ds, "lda", counted, folds=5, seed=3)
        rows = detection_rate(counted, X, y, oos, (50.0, 100.0), (4, 1), seed=4)
        assert pools == [len(X)] * 5 + [len(oos)]  # once per fold, once per sweep
        for acc, (train, test) in zip(report.fold_accuracy, stratified_folds(ds, 5, 3)):
            model = baselines.lda_fit(X[train], y[train])
            assert acc == np.mean(baselines.lda_predict_all(model, X[test])[0] == y[test])
        model = baselines.lda_fit(X, y)
        assert rows[-1].dr_mean == np.mean(baselines.lda_predict_all(model, oos)[0] == 2)

    def test_knn_predicts_each_pool_row_once_under_the_sweep(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(41)
        X = (rng.random((60, 8)) < 0.4).astype(float)
        y = np.repeat([1, 2], 30)
        pool = (rng.random((1000, 8)) < 0.5).astype(float)
        real = baselines.knn_predict_all
        queries = []
        monkeypatch.setattr(
            baselines, "knn_predict_all", lambda model, Q: queries.append(len(Q)) or real(model, Q)
        )
        rows = detection_rate(evaluation.knn(3), X, y, pool, seed=6)
        assert 0 < sum(queries) <= len(pool)

        def every_subsample_anew(train_X, train_y, test_pool):
            model = baselines.KnnModel(train_X, train_y, k=3)
            return lambda idx: (real(model, test_pool[idx]), None)

        expected = detection_rate(every_subsample_anew, X, y, pool, seed=6)
        evaluation.write_dr_csv(tmp_path / "cached.csv", {"3nn": rows})
        evaluation.write_dr_csv(tmp_path / "anew.csv", {"3nn": expected})
        assert (tmp_path / "cached.csv").read_bytes() == (tmp_path / "anew.csv").read_bytes()

    def test_lda_predicts_the_pool_once_per_sweep(self, monkeypatch, tmp_path):
        ds = labeled_synthetic(seed=7, n=120, separation=1.0)
        X, y = ds.labeled_features, ds.labels
        pool = X[y == 2] + 0.4
        real = baselines.lda_predict_all
        calls = []
        monkeypatch.setattr(
            baselines, "lda_predict_all", lambda model, Q: calls.append(len(Q)) or real(model, Q)
        )
        ladder = (2.0, 10.0, 50.0, 100.0), (20, 10, 5, 1)
        rows = detection_rate(evaluation.lda(), X, y, pool, *ladder, seed=6)
        assert calls == [len(pool)]

        def every_subsample_anew(train_X, train_y, test_pool):
            model = baselines.lda_fit(train_X, train_y)
            return lambda idx: (real(model, test_pool[idx])[0], None)

        expected = detection_rate(every_subsample_anew, X, y, pool, *ladder, seed=6)
        evaluation.write_dr_csv(tmp_path / "once.csv", {"lda": rows})
        evaluation.write_dr_csv(tmp_path / "anew.csv", {"lda": expected})
        assert (tmp_path / "once.csv").read_bytes() == (tmp_path / "anew.csv").read_bytes()

    def test_mbss_initializes_once_per_sweep(self, monkeypatch):
        ds = labeled_synthetic(seed=6, n=120, separation=3.0)
        X, y = ds.labeled_features, ds.labels
        pool = X[y == 2][:30] + 0.5
        config = cem.CemConfig(family="VVI")
        starts, fits = [], []
        real_initialize, real_fit = cem.initialize, cem.fit
        monkeypatch.setattr(cem, "initialize", lambda *a: starts.append(a) or real_initialize(*a))
        monkeypatch.setattr(cem, "fit", lambda *a, **kw: fits.append(a) or real_fit(*a, **kw))
        detection_rate(evaluation.mbss(config), X, y, pool, (20.0, 100.0), (3, 1), seed=2)
        assert len(starts) == 1 and len(fits) == 4
        # a refit from the shared start is the fit from scratch, bit for bit
        predict = evaluation.mbss(config)(X, y, pool)
        idx = np.array([0, 3, 7, 8, 20])
        labels, scores = predict(idx)
        alone = real_fit(real_initialize(X, y, 2, config), pool[idx])
        assert np.array_equal(labels, alone.hard_labels)
        assert np.array_equal(scores, alone.posteriors[:, 1])

    def test_mbss_sweep_builds_no_dataset(self, monkeypatch):
        ds = labeled_synthetic(seed=7, n=120, separation=3.0)
        X, y = ds.labeled_features, ds.labels
        built = []
        real = Dataset.__post_init__
        monkeypatch.setattr(Dataset, "__post_init__", lambda self: built.append(1) or real(self))
        rows = detection_rate(
            evaluation.mbss(cem.CemConfig(family="EII")), X, y, X[y == 2][:30] + 0.5,
            (20.0, 100.0), (3, 1), seed=3,
        )
        assert [row.replicates for row in rows] == [3, 1]
        assert built == []

    def test_external_predictions_must_cover_the_pool(self):
        with pytest.raises(ValueError, match="3 predictions for 4 test rows"):
            sweep(external(np.array([2, 2, 2])), np.zeros((4, 2)), (100.0,), (1,))


class TestRocAuc:
    def test_perfect_separation(self):
        points, auc = roc_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
        assert auc == 1.0
        assert points[0].tolist() == [float("inf"), 0.0, 0.0]
        assert points[-1][1:].tolist() == [1.0, 1.0]

    def test_all_tied_scores_give_half(self):
        _, auc = roc_auc([0.5] * 8, [1, 0, 1, 0, 1, 0, 1, 0])
        assert auc == 0.5

    def test_six_point_instance_matches_pair_counting(self):
        scores = np.array([0.9, 0.7, 0.65, 0.6, 0.3, 0.1])
        truth = np.array([1, 1, 0, 1, 0, 0])  # one inversion at 0.65
        _, auc = roc_auc(scores, truth)
        assert auc == pytest.approx(pairwise_auc(scores, truth), abs=1e-12)

    def test_randomized_against_pair_counting(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(4, 30))
            truth = rng.integers(0, 2, n)
            if truth.sum() in (0, n):
                truth[0] = 1 - truth[0]
            scores = np.round(rng.standard_normal(n), 1)  # induce ties
            _, auc = roc_auc(scores, truth)
            assert auc == pytest.approx(pairwise_auc(scores, truth), abs=1e-9)

    def test_points_equal_a_loop_over_distinct_scores(self):
        rng = np.random.default_rng(34)
        for i in range(200):
            n = int(rng.integers(1, 30))
            scores = rng.choice([-0.0, 0.0, 0.25, 0.5, 1.0, -1.0], n)
            truth = rng.integers(0, 2, n) if i % 5 else np.full(n, i % 2)
            points, _ = roc_auc(scores, truth)
            assert points.tobytes() == roc_points(scores, truth).tobytes()

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(4)
        scores = rng.standard_normal(40)
        truth = rng.integers(0, 2, 40)
        truth[0], truth[1] = 0, 1
        _, base = roc_auc(scores, truth)
        for transform in (np.exp, lambda s: 3 * s - 7, np.arctan):
            _, got = roc_auc(transform(scores), truth)
            assert got == pytest.approx(base, abs=1e-12)

    def test_roc_monotone_in_both_axes(self):
        rng = np.random.default_rng(5)
        scores = rng.standard_normal(30)
        truth = rng.integers(0, 2, 30)
        truth[0], truth[1] = 0, 1
        points, _ = roc_auc(scores, truth)
        assert np.all(np.diff(points[:, 1]) >= 0)
        assert np.all(np.diff(points[:, 2]) >= 0)

    def test_single_class_truth_flags_undefined_auc(self):
        points, auc = roc_auc([0.3, 0.2], [1, 1])
        assert auc is None
        assert points.shape[0] >= 1

    def test_nonfinite_scores_rejected(self):
        with pytest.raises(ValueError):
            roc_auc([np.nan, 0.5], [1, 0])

    def test_works_without_np_trapezoid(self, monkeypatch):
        # numpy 1.x (the declared floor is 1.24) has no np.trapezoid.
        rng = np.random.default_rng(33)
        scores = np.round(rng.standard_normal(60), 1)
        truth = rng.integers(0, 2, 60)
        expected = pairwise_auc(scores, truth)
        monkeypatch.delattr(np, "trapezoid", raising=False)
        _, auc = roc_auc(scores, truth)
        assert auc == pytest.approx(expected, abs=1e-12)


class TestPca:
    def test_axis_aligned_variances_set_component_order(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4000, 3)) * np.sqrt([9.0, 4.0, 1.0])
        labels = np.ones(4000, dtype=int)
        proj = pca_project(X, labels, np.empty((0, 3)), n_components=3, positive_label=2)
        order = np.argsort(proj.explained_variance)[::-1]
        assert np.array_equal(order, [0, 1, 2])
        # each principal direction is (close to) a coordinate axis
        for i in range(3):
            assert np.abs(proj.components[i, i]) > 0.99
        centered = X - X.mean(axis=0)
        for i in range(3):
            sign = np.sign(proj.components[i, i])
            assert np.allclose(proj.in_projection[:, i], sign * centered[:, i], atol=0.25)

    def test_duplicated_rows_leave_directions_unchanged(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((50, 4)) @ rng.standard_normal((4, 4))
        labels = np.ones(50, dtype=int)
        a = pca_project(X, labels, np.empty((0, 4)), n_components=4, positive_label=2)
        b = pca_project(
            np.vstack([X, X]), np.ones(100, dtype=int), np.empty((0, 4)), 4, 2
        )
        assert np.allclose(a.components, b.components, atol=1e-9)

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 5)) @ rng.standard_normal((5, 5))
        proj = pca_project(X, np.ones(30, dtype=int), np.empty((0, 5)), n_components=5, positive_label=2)
        reconstructed = proj.in_projection @ proj.components + proj.mean
        assert np.allclose(reconstructed, X, atol=1e-9)

    def test_in_sample_projection_centered_and_uncorrelated(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((200, 6)) @ rng.standard_normal((6, 6))
        proj = pca_project(X, np.ones(200, dtype=int), rng.standard_normal((20, 6)), 4, 2)
        assert np.max(np.abs(proj.in_projection.mean(axis=0))) < 1e-10
        cov = np.cov(proj.in_projection.T)
        off = cov - np.diag(np.diag(cov))
        assert np.max(np.abs(off)) < 1e-9 * cov[0, 0]

    def test_cohort_assignment(self):
        X = np.vstack([np.zeros((3, 2)), np.ones((2, 2))]) + np.arange(5)[:, None]
        proj = pca_project(X, [1, 1, 1, 2, 2], np.zeros((2, 2)), n_components=1, positive_label=2)
        assert proj.in_cohorts == ["benign-in"] * 3 + ["malicious-in"] * 2
        assert proj.oos_projection.shape == (2, 1)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            pca_project(np.ones((10, 3)), np.ones(10, dtype=int), np.empty((0, 3)), 2, 2)

    def test_too_many_components_rejected(self):
        with pytest.raises(ValueError):
            pca_project(np.zeros((5, 3)), np.ones(5, dtype=int), np.empty((0, 3)), 4, 2)


class TestWriters:
    def test_pca_csv(self, tmp_path):
        rng = np.random.default_rng(10)
        proj = pca_project(
            rng.standard_normal((8, 5)), [1, 1, 1, 1, 2, 2, 2, 2], rng.standard_normal((3, 5)), 4, 2
        )
        path = tmp_path / "pca.csv"
        evaluation.write_pca_csv(path, proj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "PC1,PC2,PC3,PC4,cohort"
        assert len(lines) == 12
        assert sum(line.endswith("oos") for line in lines) == 3

    def test_dr_csv_blank_sd_for_single_replicate(self, tmp_path):
        rows = {"mbss": [evaluation.DrRow(100.0, 1, 40, 0.9, float("nan"))]}
        path = tmp_path / "dr.csv"
        evaluation.write_dr_csv(path, rows)
        body = path.read_text().strip().splitlines()[1]
        assert body == "mbss,100.0,1,40,0.9,"

    def test_cv_table_formatting(self):
        ds = labeled_synthetic(seed=11, n=100)
        report = cross_validate(ds, "constant", constant(2), folds=5, seed=0)
        table = evaluation.format_cv_table([report])
        assert "constant" in table
        assert "mean ACC" in table
