import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mbss import cem, gmm, model_select, synth
from mbss.dataset import ApiVocabulary, Dataset
from mbss.errors import MbssError


def spherical_dataset(seed=0, n=600):
    spec = synth.two_class_spec(d=3, separation=3.0, n_samples=n, label_fraction=0.5, seed=seed)
    ds, _ = synth.sample_mixture(spec)
    return ds


class TestBic:
    def test_single_observation_penalty_vanishes(self):
        assert model_select.bic(0.0, 1, 5) == 0.0

    def test_direct_arithmetic(self):
        got = model_select.bic(-100.0, 7, 3)
        assert got == pytest.approx(2 * -100.0 - 3 * math.log(7), abs=1e-12)
        assert got == pytest.approx(-205.83773044716594, abs=1e-10)

    def test_penalty_monotone_in_parameters(self):
        assert model_select.bic(-50.0, 100, 5) > model_select.bic(-50.0, 100, 10)

    def test_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            model_select.bic(0.0, 0, 1)


class TestSelectModel:
    def test_single_candidate_wins_trivially(self):
        ds = spherical_dataset()
        best, scores = model_select.select_model(ds, ["EII"], cem.CemConfig())
        assert best.family == "EII"
        assert [s.family for s in scores] == ["EII"]

    def test_score_recomputable_from_parts(self):
        ds = spherical_dataset(seed=1)
        _, scores = model_select.select_model(
            ds, ["EII", "VVI", "VVV"], cem.CemConfig()
        )
        n_obs = ds.n + ds.m
        for s in scores:
            assert s.bic == pytest.approx(
                2 * s.fit.complete_loglik - math.log(n_obs) * s.param_count, abs=1e-9
            )
            assert s.observed_bic == pytest.approx(
                2 * s.fit.observed_loglik - math.log(n_obs) * s.param_count, abs=1e-9
            )

    def test_adding_worse_family_never_changes_winner(self):
        ds = spherical_dataset(seed=2, n=1200)
        best_small, _ = model_select.select_model(ds, ["EII", "VII"], cem.CemConfig())
        best_full, scores = model_select.select_model(
            ds, ["EII", "VII", "EEI", "VVI", "EEE", "VVV"], cem.CemConfig()
        )
        worse = [s.family for s in scores if s.bic < best_small.bic]
        assert set(worse) >= {"EEE", "VVV"}  # heavier families lose on spherical data
        assert best_full.family == best_small.family

    def test_failed_family_excluded(self, monkeypatch):
        ds = spherical_dataset(seed=3)
        real_fit = cem.fit

        def flaky_fit(start, X_u):
            if start.config.family == "VVV":
                raise MbssError("synthetic failure")
            return real_fit(start, X_u)

        monkeypatch.setattr(model_select.cem, "fit", flaky_fit)
        best, scores = model_select.select_model(ds, ["VVV", "EII"], cem.CemConfig())
        assert [s.family for s in scores] == ["EII"]
        assert best.family == "EII"

    def test_all_failing_is_an_error(self, monkeypatch):
        ds = spherical_dataset(seed=4)

        def broken_fit(start, X_u):
            raise MbssError("nope")

        monkeypatch.setattr(model_select.cem, "fit", broken_fit)
        with pytest.raises(MbssError):
            model_select.select_model(ds, ["EII", "VII"], cem.CemConfig())

    def test_ties_break_toward_fewer_parameters_then_order(self, monkeypatch):
        ds = spherical_dataset(seed=5)
        real_fit = cem.fit
        fixed = {}

        def pinned_fit(start, X_u):
            return replace(real_fit(start, X_u), complete_loglik=-100.0)

        monkeypatch.setattr(model_select.cem, "fit", pinned_fit)
        monkeypatch.setattr(
            model_select.gmm, "parameter_count", lambda family, K, d: fixed[family]
        )
        fixed.update({"VVI": 7, "EEI": 5, "VII": 5})
        best, _ = model_select.select_model(ds, ["VVI", "EEI", "VII"], cem.CemConfig())
        assert best.family == "EEI"  # fewest params tie resolved by list order

    def test_empty_candidate_list_rejected(self):
        with pytest.raises(ValueError):
            model_select.select_model(spherical_dataset(), [], cem.CemConfig())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            model_select.select_model(spherical_dataset(), ["ABC"], cem.CemConfig())


def test_a_six_family_fit_of_a_0_1_file_peaks_below_a_float64_copy_of_its_rows(tmp_path):
    # the rows are held as bool from the file to the fit, which reads blocks of them
    rng = np.random.default_rng(41)
    n, d = 20_000, 160
    y = np.arange(n) % 2 + 1
    X = rng.random((n, d)) < rng.uniform(0.1, 0.5, size=(2, d))[y - 1]
    vocab = ApiVocabulary(tuple(f"c{j}.m" for j in range(d)))
    Dataset(X[:2_000], y[:2_000], X[2_000:], vocab, 2).save_csv(tmp_path / "d.csv")
    tracemalloc.start()
    try:
        ds = Dataset.load_csv(tmp_path / "d.csv")
        _, scores = model_select.select_model(ds, gmm.FAMILIES, cem.CemConfig(max_iterations=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.family for s in scores] == list(gmm.FAMILIES)
    assert peak < n * d * np.dtype(np.float64).itemsize


class TestReport:
    def test_report_csv_shape(self, tmp_path):
        ds = spherical_dataset(seed=6)
        best, scores = model_select.select_model(ds, ["EII", "VVV"], cem.CemConfig())
        path = tmp_path / "report.csv"
        model_select.write_selection_report(path, scores, best)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("family,converged,iterations,loglik,params,bic,selected")
        assert len(lines) == 3
        selected = [line for line in lines[1:] if line.split(",")[6] == "1"]
        assert len(selected) == 1
        assert selected[0].startswith(best.family)

    def test_report_exact_bytes(self, tmp_path):
        def score(family, fit, bic, params, observed_bic):
            return model_select.ModelScore(family, bic, params, SimpleNamespace(**fit), observed_bic)

        best = score("EII", dict(converged=True, iterations=12, complete_loglik=-1234.5,
                                 observed_loglik=-1200.25), -2500.123, 7, -2431.625)
        other = score("VVV", dict(converged=False, iterations=200, complete_loglik=-0.1,
                                  observed_loglik=-1e-05), -1e16, 19, 1 / 3)
        path = tmp_path / "report.csv"
        model_select.write_selection_report(path, [best, other], best)
        assert path.read_bytes() == (
            b"family,converged,iterations,loglik,params,bic,selected,observed_loglik,observed_bic\n"
            b"EII,1,12,-1234.5,7,-2500.123,1,-1200.25,-2431.625\n"
            b"VVV,0,200,-0.1,19,-1e+16,0,-1e-05,0.3333333333333333\n"
        )
