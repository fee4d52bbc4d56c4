"""Tests of the benchmark's own machinery: span arithmetic, tracing, generators."""

import filecmp
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402
from spans import Span, Tracer, install, percentile, round_metrics, self_times  # noqa: E402


def test_self_time_subtracts_children_on_a_hand_built_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, None),
        Span("cem.fit", 1.0, 4.0, 0),
        Span("gmm.log_joint", 2.0, 3.0, 1),
        Span("dataset.save_csv", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("a", 1.0, 5.0, 0),
        Span("b", 3.0, 7.0, 0),  # overlaps a: union is 1..7
        Span("c", 9.0, 12.0, 0),  # runs past the parent: only 9..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_tracer_records_parents_errors_and_attributes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def leaf(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    traced_leaf = tracer.wrap(leaf, "leaf", attrs=lambda a, k, r: {"out": r})
    outer = tracer.wrap(lambda: traced_leaf(1) + traced_leaf(2), "outer")
    assert outer() == 6
    with pytest.raises(ValueError):
        traced_leaf(-1)
    names = [(s.name, s.parent, s.error) for s in tracer.spans]
    assert names == [("outer", None, False), ("leaf", 0, False), ("leaf", 0, False),
                     ("leaf", None, True)]
    assert [s.attrs for s in tracer.spans[1:3]] == [{"out": 2}, {"out": 4}]
    assert all(s.end > s.start for s in tracer.spans)


def test_round_metrics_count_ridge_escalations_and_self_time():
    spans = [
        Span("cli.main", 0.0, 10.0, None),
        Span("gmm.make_component", 1.0, 4.0, 0),
        Span("gmm.ComponentParams", 1.0, 2.0, 1, error=True),
        Span("gmm.ComponentParams", 2.0, 3.0, 1),
        Span("gmm.log_joint", 5.0, 6.0, 0, attrs={"row_components": 40}),
        Span("cem.fit", 6.0, 8.0, 0, attrs={"iterations": 4, "converged": True}),
    ]
    m = round_metrics(spans)
    assert m["gmm.make_component.ridge_escalations"] == 1
    assert m["gmm.make_component.s"] == pytest.approx(3.0)
    assert m["gmm.log_joint.row_components"] == 40
    assert m["cem.ms_per_iteration"] == pytest.approx(500.0)
    assert m["cem.converged_ratio"] == 1.0
    assert m["cli.self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 2.0)
    assert m["dataset.parse_log.calls"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {metric["name"] for metric in spec["per_layer"]}
    assert set(m) == listed - {"trace.overhead_s", "trace.overhead_ratio"}


def test_traced_wrappers_leave_outputs_byte_identical(tmp_path, monkeypatch):
    import mbss.cli as cli
    import mbss.gmm as gmm

    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    data = str(out / "corpus.csv")
    commands = run.toy_commands(out) + [
        run.Command("cv", ["evaluate", "--data", data, "--protocol", "cv", "--folds", "3",
                           "--classifiers", "mbss,knn,lda", "--seed", "0",
                           "--roc-out", str(out / "roc.csv"), "--out", str(out / "cv.csv")],
                    [str(out / "cv.csv"), str(out / "roc.csv")]),
        run.Command("oos", ["evaluate", "--data", data, "--protocol", "oos",
                            "--oos-data", data, "--classifiers", "mbss,lda",
                            "--fractions", "50,100", "--replicates", "2,1", "--seed", "0",
                            "--pca-out", str(out / "pca.csv"), "--out", str(out / "dr.csv")],
                    [str(out / "dr.csv"), str(out / "pca.csv")]),
    ]
    original = gmm.log_joint
    plain = run.run_round(cli, commands)
    tracer = Tracer()
    traced = run.run_round(cli, commands, tracer)
    assert gmm.log_joint is original
    assert plain.codes == traced.codes == {c.stage: 0 for c in commands}
    assert "missing" not in plain.digests.values()
    assert traced.digests == plain.digests
    names = {s.name for s in tracer.spans}
    for layer in ("dataset.parse_log", "cem.fit", "gmm.log_joint", "model_select.select_model",
                  "evaluation.detection_rate", "baselines.knn_predict_all", "cli.main"):
        assert layer in names
    assert run.manifests_consistent(commands, plain.digests)


def test_failures_count_exit_codes_and_digests_unlike_the_first_round():
    cmds = [run.Command("fit", [], ["m.json"]), run.Command("classify", [], ["p.csv"])]
    first = run.Round(False, 1.0, {}, {"fit": 0, "classify": 0}, {"m.json": "a", "p.csv": "b"})
    drifted = run.Round(True, 1.0, {}, {"fit": 0, "classify": 0}, {"m.json": "a", "p.csv": "c"})
    crashed = run.Round(False, 1.0, {}, {"fit": 2, "classify": 0}, {"m.json": "a", "p.csv": "b"})
    rounds = [first, drifted, crashed]
    assert run.count_failures(cmds, rounds, rounds[0].digests) == 2
    assert run.combined_digest(first.digests) != run.combined_digest(drifted.digests)


def test_install_restores_originals_after_an_error():
    import mbss.dataset as dataset

    before = dataset.Dataset.__dict__["load_csv"]
    with pytest.raises(RuntimeError):
        with install(Tracer()):
            assert dataset.Dataset.__dict__["load_csv"] is not before
            raise RuntimeError("boom")
    assert dataset.Dataset.__dict__["load_csv"] is before


def _same_tree(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    return files_a == files_b and all(
        filecmp.cmp(a / f, b / f, shallow=False) for f in files_a
    )


def test_corpus_generator_is_deterministic_per_seed(tmp_path):
    vocab = ROOT / "src" / "mbss" / "data" / "default_api_vocabulary.txt"
    for name, seed in (("a", 7), ("b", 7), ("c", 8)):
        gen.make_corpus(seed, tmp_path / name, vocab, n_logs=40)
    assert _same_tree(tmp_path / "a", tmp_path / "b")
    assert not _same_tree(tmp_path / "a", tmp_path / "c")
    labels = (tmp_path / "a" / "labels.csv").read_text().splitlines()[1:]
    assert {line.split(",")[1] for line in labels} == {"1", "2"}


def test_oos_generator_is_deterministic_per_seed(tmp_path):
    for name, seed in (("a", 3), ("b", 3), ("c", 4)):
        gen.make_oos(seed, tmp_path / f"{name}.csv", n=50)
    a, b, c = ((tmp_path / f"{n}.csv").read_bytes() for n in "abc")
    assert a == b
    assert a != c
    rows = a.decode().splitlines()[1:]
    assert len(rows) == 50
    assert all(row.endswith(",2") for row in rows)


def test_percentile_matches_numpy():
    import numpy as np

    values = [5.0, 1.0, 4.0, 2.5, 9.0, 3.0]
    for q in (0, 10, 50, 90, 100):
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)))
    assert percentile([7.0], 90) == 7.0
