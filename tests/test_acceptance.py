"""Acceptance suite: one test per criterion, each printing a PASS line.

The criteria exercise the package end to end on synthetic ground truth;
every expected value comes from an independent oracle (direct formulas,
term-by-term sums, all-pairs counting, known generating mixtures), never
from the code paths under test.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from conftest import fit_dataset, make_dataset, start_for
from mbss import baselines, cem, cli, gmm, model_select, synth
from mbss.dataset import Dataset
from mbss.evaluation import CLASSIFIERS, detection_rate, roc_auc, write_dr_csv
from oracles import (
    direct_complete_ll,
    direct_log_density,
    direct_observed_ll,
    direct_responsibilities,
    mixture,
    pairwise_auc,
    random_model_arrays,
    random_spd,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
TOY_CORPUS = REPO_ROOT / "data" / "toy_corpus"


def _report(criterion: int, description: str) -> None:
    print(f"ACCEPTANCE criterion {criterion} PASS: {description}")


def test_criterion_1_cem_monotonicity():
    """100+ seeded fits across dimensions and families; trace never drops."""
    start = time.monotonic()
    fits = 0
    worst_drop = 0.0
    for d in (2, 5, 10):
        for family in gmm.FAMILIES:
            for seed in range(6):
                spec = synth.two_class_spec(
                    d=d, separation=2.0, n_samples=160, label_fraction=0.5,
                    seed=1000 * d + seed,
                )
                ds, _ = synth.sample_mixture(spec)
                result = fit_dataset(ds, cem.CemConfig(family=family))
                trace = np.asarray(result.loglik_trace)
                if trace.size > 1:
                    worst_drop = min(worst_drop, float(np.diff(trace).min()))
                assert trace.size == 0 or np.all(np.diff(trace) >= -1e-8), (
                    f"non-monotone trace for {family}, d={d}, seed={seed}"
                )
                fits += 1
    elapsed = time.monotonic() - start
    assert fits >= 100
    assert elapsed < 120.0
    _report(1, f"{fits} fits monotone within 1e-8 (worst step {worst_drop:.2e}) in {elapsed:.1f}s")


def test_criterion_2_recovery_at_strong_separation():
    """6-sigma spherical classes: near-perfect labels, means recovered.

    Mean recovery is measured per component as the root-mean-square
    coordinate error ||mu_hat - mu|| / sqrt(d), in units of the generating
    sigma; at n_k ~ 500 its sampling distribution sits far below the 0.1
    threshold.
    """
    start = time.monotonic()
    accs, mean_errors = [], []
    for seed in range(10):
        spec = synth.two_class_spec(
            d=5, separation=6.0, n_samples=1000, label_fraction=0.5, seed=seed
        )
        ds, truth = synth.sample_mixture(spec)
        result = fit_dataset(ds, cem.CemConfig(family="EII"))
        acc = float(np.mean(result.hard_labels == truth))
        err = max(
            float(np.linalg.norm(result.model.components[k].mean - spec.means[k]))
            / np.sqrt(spec.d)
            for k in range(2)
        )
        accs.append(acc)
        mean_errors.append(err)
        assert acc >= 0.95, f"seed {seed}: accuracy {acc}"
        assert err <= 0.1, f"seed {seed}: mean error {err} sigma"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(
        2,
        f"10/10 seeds: accuracy >= {min(accs):.3f}, worst mean RMS error "
        f"{max(mean_errors):.3f} sigma in {elapsed:.1f}s",
    )


def test_criterion_3_semi_supervised_gain():
    """5% labels, 2.5-sigma separation: CEM beats its own initialization."""
    wins = 0
    details = []
    for seed in range(10):
        spec = synth.two_class_spec(
            d=5, separation=2.5, n_samples=1000, label_fraction=0.05, seed=seed
        )
        ds, truth = synth.sample_mixture(spec)
        config = cem.CemConfig(family="EII")
        init_labels, _ = cem.predict(start_for(ds, config).model, ds.unlabeled_features)
        init_acc = float(np.mean(init_labels == truth))
        cem_acc = float(np.mean(fit_dataset(ds, config).hard_labels == truth))
        wins += cem_acc >= init_acc
        details.append((init_acc, cem_acc))
    assert wins >= 8, f"only {wins}/10 seeds improved: {details}"
    _report(3, f"converged fit >= labeled-only initialization in {wins}/10 seeds")


def test_criterion_4_bic_family_recovery():
    """BIC picks a spherical family on spherical data, full on correlated."""
    start = time.monotonic()
    config = cem.CemConfig()
    spherical_hits = 0
    for seed in range(10):
        spec = synth.two_class_spec(
            d=3, separation=3.0, n_samples=2000, label_fraction=0.5, seed=100 + seed
        )
        ds, _ = synth.sample_mixture(spec)
        best, _ = model_select.select_model(ds, list(gmm.FAMILIES), config)
        spherical_hits += best.family in ("EII", "VII")
    full_hits = 0
    diag_never_beats_full = True
    for seed in range(10):
        spec = synth.two_class_spec(
            d=3, separation=3.0, n_samples=2000, label_fraction=0.5,
            seed=200 + seed, rho=0.8,
        )
        ds, _ = synth.sample_mixture(spec)
        best, scores = model_select.select_model(ds, list(gmm.FAMILIES), config)
        full_hits += best.family in ("EEE", "VVV")
        by_family = {s.family: s.bic for s in scores}
        if max(by_family[f] for f in ("EII", "VII", "EEI", "VVI")) > by_family["VVV"]:
            diag_never_beats_full = False
    elapsed = time.monotonic() - start
    assert spherical_hits >= 8, f"spherical recovered {spherical_hits}/10"
    assert full_hits >= 8, f"full-covariance recovered {full_hits}/10"
    assert diag_never_beats_full
    assert elapsed < 120.0
    _report(
        4,
        f"spherical {spherical_hits}/10 -> EII/VII, correlated {full_hits}/10 -> "
        f"EEE/VVV in {elapsed:.1f}s",
    )


def test_criterion_5_oracle_equivalence():
    """Core numerics match independent brute-force oracles within 1e-9.

    The mixture checks run for every covariance family, with covariances
    shaped to it, so each of the family-specific density kernels is held
    to the oracles.
    """
    rng = np.random.default_rng(5150)
    checks = {k: 0 for k in ("density", "joint", "resp", "complete", "observed", "bic", "auc")}
    for _ in range(50):
        d = int(rng.integers(1, 5))
        K = int(rng.integers(1, 4))

        mean = rng.standard_normal(d)
        cov = random_spd(rng, d)
        x = mean + rng.standard_normal(d)
        got = gmm.log_density(gmm.ComponentParams(mean, cov), x)
        assert got == pytest.approx(direct_log_density(mean, cov, x), abs=1e-9)
        checks["density"] += 1

        for family in gmm.FAMILIES:
            w, means, covs = random_model_arrays(rng, K, d, family=family)
            model = mixture(w, means, covs, family)

            X = means[rng.integers(0, K, 4)] + 0.5 * rng.standard_normal((4, d))
            expected = np.array(
                [
                    [np.log(w[k]) + direct_log_density(means[k], covs[k], row) for k in range(K)]
                    for row in X
                ]
            )
            assert np.allclose(gmm.log_joint(model, X), expected, rtol=0.0, atol=1e-9), family
            checks["joint"] += 1
            W = np.exp(gmm.log_responsibilities(model, X))
            assert np.allclose(W, direct_responsibilities(w, means, covs, X), atol=1e-9), family
            checks["resp"] += 1

            Xl = rng.standard_normal((3, d))
            yl = rng.integers(1, K + 1, 3)
            yl[0] = 1  # keep label range valid for any K
            Xu = rng.standard_normal((2, d))
            yu = rng.integers(1, K + 1, 2)
            ds = make_dataset(Xl, yl, Xu, K=K)
            assert gmm.complete_log_likelihood(model, ds, yu) == pytest.approx(
                direct_complete_ll(w, means, covs, Xl, yl, Xu, yu), abs=1e-9
            ), family
            checks["complete"] += 1
            assert gmm.observed_log_likelihood(model, ds) == pytest.approx(
                direct_observed_ll(w, means, covs, Xl, yl, Xu), abs=1e-9
            ), family
            checks["observed"] += 1

        ll = float(-200.0 * rng.random())
        n_obs = int(rng.integers(1, 5000))
        n_params = int(rng.integers(1, 50))
        assert model_select.bic(ll, n_obs, n_params) == pytest.approx(
            2 * ll - np.log(n_obs) * n_params, abs=1e-9
        )
        checks["bic"] += 1

        n = int(rng.integers(4, 25))
        truth = rng.integers(0, 2, n)
        if truth.sum() in (0, n):
            truth[0] = 1 - truth[0]
        scores = np.round(rng.standard_normal(n), 1)
        _, auc = roc_auc(scores, truth)
        assert auc == pytest.approx(pairwise_auc(scores, truth), abs=1e-9)
        checks["auc"] += 1
    assert all(v >= 50 for v in checks.values())
    assert checks["joint"] == 50 * len(gmm.FAMILIES)
    _report(
        5,
        f"{sum(checks.values())} oracle comparisons within 1e-9 "
        f"({len(gmm.FAMILIES)} covariance families)",
    )


def test_criterion_6_lda_equals_shared_covariance_initialization():
    """LDA and the EEE discriminant initialization decide identically."""
    rng = np.random.default_rng(616)
    for trial in range(20):
        d = int(rng.integers(2, 6))
        n_per = int(rng.integers(10, 40))
        X = np.vstack(
            [
                rng.standard_normal((n_per, d)),
                rng.standard_normal((n_per, d)) + rng.uniform(0.5, 2.0),
            ]
        )
        y = np.array([1] * n_per + [2] * n_per)
        ds = make_dataset(X, y, np.empty((0, d)))
        mixture = start_for(ds, cem.CemConfig(family="EEE")).model
        lda = baselines.lda_fit(X, y)
        Q = rng.standard_normal((50, d)) + rng.uniform(0.0, 1.5)
        lda_labels, _ = baselines.lda_predict_all(lda, Q)
        mix_labels, _ = cem.predict(mixture, Q)
        assert np.array_equal(lda_labels, mix_labels), f"trial {trial} diverged"
    _report(6, "identical labels on 20 random instances (50 points each)")


def test_criterion_7_detection_rate_protocol(tmp_path):
    """Full fraction/replicate sweep on a shifted out-of-sample mixture.

    The out-of-sample malicious cluster is moved 2 sigma off its training
    position; the transductive mixture fit adapts to it while the fixed
    LDA boundary does not, reproducing the qualitative ordering.
    """
    start = time.monotonic()
    train_spec = synth.two_class_spec(
        d=5, separation=2.5, n_samples=400, label_fraction=1.0, seed=7
    )
    train_ds, _ = synth.sample_mixture(train_spec)
    shift = np.zeros(5)
    shift[0], shift[1] = -1.0, np.sqrt(3.0)  # 2-sigma displacement
    oos_rng = np.random.default_rng(77)
    oos_X = (train_spec.means[1] + shift) + oos_rng.standard_normal((2000, 5))

    config = cem.CemConfig(family="EII")
    train = (train_ds.labeled_features, train_ds.labels)
    fractions = (0.1, 1.0, 20.0, 50.0, 90.0, 100.0)
    replicates = (50, 30, 20, 10, 5, 1)
    rows = {}
    for key in ("mbss", "lda"):
        name, classifier = CLASSIFIERS[key](config, 3, 2)
        rows[name] = detection_rate(classifier, *train, oos_X, fractions, replicates, seed=1)
    mbss_rows, lda_rows = rows["mbss"], rows["lda"]
    assert [r.fraction_pct for r in mbss_rows] == list(fractions)
    assert [r.replicates for r in mbss_rows] == list(replicates)

    out = tmp_path / "detection_rates.csv"
    write_dr_csv(out, {"mbss": mbss_rows, "lda": lda_rows})
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 2 * len(fractions)

    mbss_full = mbss_rows[-1].dr_mean
    lda_full = lda_rows[-1].dr_mean
    assert mbss_full >= lda_full, f"mbss {mbss_full} < lda {lda_full}"
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    _report(
        7,
        f"sweep emitted {len(lines) - 1} DR rows; full-set DR mbss {mbss_full:.3f} "
        f">= lda {lda_full:.3f} in {elapsed:.1f}s",
    )


def test_criterion_8_pipeline_end_to_end(tmp_path):
    """extract -> fit -> classify on the bundled corpus, byte-identical reruns."""
    logs = TOY_CORPUS / "logs"
    vocab = TOY_CORPUS / "api_vocabulary.txt"
    labels = TOY_CORPUS / "labels.csv"
    assert len(list(logs.glob("*.log"))) == 50
    assert sum(1 for line in vocab.read_text().splitlines() if line and not line.startswith("#")) == 160

    def run(outdir: Path) -> dict[str, bytes]:
        outdir.mkdir(exist_ok=True)
        data = outdir / "toy.csv"
        model = outdir / "model.json"
        preds = outdir / "predictions.csv"
        assert cli.main(
            [
                "extract", "--logs", str(logs), "--vocabulary", str(vocab),
                "--labels", str(labels), "--out", str(data),
            ]
        ) == 0
        assert cli.main(["fit", "--data", str(data), "--out", str(model)]) == 0
        assert cli.main(
            ["classify", "--model", str(model), "--data", str(data), "--out", str(preds)]
        ) == 0
        ds = Dataset.load_csv(data)
        assert ds.n == 30 and ds.m == 20 and ds.d == 160
        assert len(preds.read_text().strip().splitlines()) == 21
        return {p.name: p.read_bytes() for p in sorted(outdir.iterdir())}

    outdir = tmp_path / "run"
    first = run(outdir)
    second = run(outdir)  # same paths: manifests must also reproduce
    assert first == second
    assert any(name.endswith(".manifest.json") for name in first)
    _report(8, f"50-log corpus classified; {len(first)} artifacts byte-identical on rerun")
