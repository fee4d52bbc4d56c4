import csv
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import fit_dataset
from mbss import cem, cli, evaluation, gmm, synth
from mbss.dataset import ApiVocabulary, Dataset
from mbss.evaluation import detection_rate
from oracles import direct_parse_log

VOCAB = "\n".join(
    [
        "android.telephony.TelephonyManager.getDeviceId",
        "java.net.URL.openConnection",
        "javax.crypto.Cipher.doFinal",
    ]
)


def write_logs(root: Path, contents: dict[str, str]) -> Path:
    logs = root / "logs"
    logs.mkdir()
    for name, text in contents.items():
        (logs / name).write_text(text)
    return logs


def synth_csv(tmp_path: Path, name="train.csv", n=240, seed=11, extra=()) -> Path:
    out = tmp_path / name
    rc = cli.main(
        [
            "synth", "--n", str(n), "--d", "3", "--separation", "6",
            "--label-fraction", "0.5", "--seed", str(seed), "--out", str(out), *extra,
        ]
    )
    assert rc == 0
    return out


class TestExtract:
    def test_three_valid_logs(self, tmp_path, capsys):
        logs = write_logs(
            tmp_path,
            {
                "a.log": "java.net.URL.openConnection 1\n",
                "b.log": "javax.crypto.Cipher.doFinal 2\njava.net.URL.openConnection 3\n",
                "c.log": "android.telephony.TelephonyManager.getDeviceId 4\n",
            },
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        out = tmp_path / "data.csv"
        rc = cli.main(
            ["extract", "--logs", str(logs), "--vocabulary", str(vocab), "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 rows
        ds = Dataset.load_csv(out)
        assert ds.m == 3 and ds.n == 0

    def test_empty_log_gives_partial_failure(self, tmp_path, capsys):
        logs = write_logs(
            tmp_path,
            {
                "bad.log": "\n",
                "good1.log": "java.net.URL.openConnection 1\n",
                "good2.log": "javax.crypto.Cipher.doFinal 2\n",
            },
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        out = tmp_path / "data.csv"
        rc = cli.main(
            ["extract", "--logs", str(logs), "--vocabulary", str(vocab), "--out", str(out)]
        )
        assert rc == 2
        assert len(out.read_text().strip().splitlines()) == 3  # header + 2 rows
        assert "bad.log" in capsys.readouterr().err

    def test_labels_file_routes_rows_to_labeled_block(self, tmp_path):
        logs = write_logs(
            tmp_path,
            {
                "m1.log": "javax.crypto.Cipher.doFinal 1\n",
                "m2.log": "javax.crypto.Cipher.doFinal 1\njava.net.URL.openConnection 9\n",
                "b1.log": "java.net.URL.openConnection 2\n",
                "b2.log": "android.telephony.TelephonyManager.getDeviceId 3\n",
                "u1.log": "java.net.URL.openConnection 4\n",
            },
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\nm1.log,2\nm2.log,2\nb1.log,1\nb2.log,1\n")
        out = tmp_path / "data.csv"
        rc = cli.main(
            [
                "extract", "--logs", str(logs), "--vocabulary", str(vocab),
                "--labels", str(labels), "--out", str(out),
            ]
        )
        assert rc == 0
        ds = Dataset.load_csv(out)
        assert ds.n == 4 and ds.m == 1 and ds.K == 2
        sources = (tmp_path / "data.csv.sources.csv").read_text()
        assert "u1.log,unlabeled" in sources

    def test_nested_logs_are_read_in_path_order(self, tmp_path):
        # Path order puts a/ before a-b/; string order ('-' < '/') and name
        # order would both put one.log first.
        logs = tmp_path / "logs"
        for sub, name in (("a-b", "one.log"), ("a", "two.log")):
            (logs / sub).mkdir(parents=True)
            (logs / sub / name).write_text("java.net.URL.openConnection 1\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        out = tmp_path / "data.csv"
        rc = cli.main(
            [
                "extract", "--logs", str(logs), "--pattern", "*/*.log",
                "--vocabulary", str(vocab), "--out", str(out),
            ]
        )
        assert rc == 0
        with open(tmp_path / "data.csv.sources.csv", newline="") as fh:
            assert [row["filename"] for row in csv.DictReader(fh)] == ["two.log", "one.log"]
        manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
        assert {str(logs / "a" / "two.log"), str(logs / "a-b" / "one.log")} <= set(
            manifest["inputs"]
        )

    @pytest.mark.parametrize("with_labels", [False, True])
    def test_logs_sharing_a_file_name_are_a_data_error(self, tmp_path, capsys, with_labels):
        # sources rows and labels-file rows are keyed by file name alone
        logs = tmp_path / "logs"
        for sub in ("a", "b"):
            (logs / sub).mkdir(parents=True)
            (logs / sub / "x.log").write_text("java.net.URL.openConnection 1\n")
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        labels = tmp_path / "labels.csv"
        labels.write_text("x.log,2\n")
        out = tmp_path / "data.csv"
        argv = ["extract", "--logs", str(logs), "--pattern", "**/*.log",
                "--vocabulary", str(vocab), "--out", str(out)]
        rc = cli.main(argv + (["--labels", str(labels)] if with_labels else []))
        assert rc == 65
        err = capsys.readouterr().err
        assert str(logs / "a" / "x.log") in err and str(logs / "b" / "x.log") in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["labels.csv", "logs", "vocab.txt"]

    def test_sources_table_quotes_file_names(self, tmp_path):
        logs = write_logs(
            tmp_path,
            {"a,b.log": "java.net.URL.openConnection 1\n", 'q"c.log': "javax.crypto.Cipher.doFinal 1\n"},
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        out = tmp_path / "data.csv"
        rc = cli.main(["extract", "--logs", str(logs), "--vocabulary", str(vocab), "--out", str(out)])
        assert rc == 0
        with open(tmp_path / "data.csv.sources.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["filename", "block", "row_in_block", "label", "parsed_lines", "skipped_lines"]
        assert rows[1:] == [
            ["a,b.log", "unlabeled", "0", "", "1", "0"],
            ['q"c.log', "unlabeled", "1", "", "1", "0"],
        ]

    def test_labels_file_quotes_file_names(self, tmp_path):
        logs = write_logs(
            tmp_path,
            {"a,b.log": "java.net.URL.openConnection 1\n", "c.log": "javax.crypto.Cipher.doFinal 1\n"},
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        labels = tmp_path / "labels.csv"
        labels.write_text('filename,label\n# comment, with a comma\n\n "a,b.log" , 2\nc.log,1\n')
        out = tmp_path / "data.csv"
        rc = cli.main(
            [
                "extract", "--logs", str(logs), "--vocabulary", str(vocab),
                "--labels", str(labels), "--out", str(out),
            ]
        )
        assert rc == 0
        ds = Dataset.load_csv(out)
        assert ds.labels.tolist() == [2, 1] and ds.m == 0

    @pytest.mark.parametrize(
        "row, message", [("a.log,1,2", "expected 'filename,label'"), ("a.log,x", "bad label 'x'")]
    )
    def test_bad_labels_row_is_data_error(self, tmp_path, capsys, row, message):
        logs = write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n"})
        labels = tmp_path / "labels.csv"
        labels.write_text(f"filename,label\n{row}\n")
        rc = cli.main(
            ["extract", "--logs", str(logs), "--labels", str(labels), "--out", str(tmp_path / "d.csv")]
        )
        assert rc == 65
        assert f"labels.csv:2: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, where",
        [("a.log,0", "2: label 0"), ("a.log,-3", "2: label -3"), ("b.log,2\na.log,0", "3: label 0")],
    )
    def test_label_below_one_is_data_error(self, tmp_path, capsys, rows, where):
        logs = write_logs(
            tmp_path,
            {"a.log": "java.net.URL.openConnection 1\n", "b.log": "javax.crypto.Cipher.doFinal 1\n"},
        )
        labels = tmp_path / "labels.csv"
        labels.write_text(f"filename,label\n{rows}\n")
        rc = cli.main(
            ["extract", "--logs", str(logs), "--labels", str(labels), "--out", str(tmp_path / "d.csv")]
        )
        assert rc == 65
        err = capsys.readouterr().err
        assert f"labels.csv:{where} is not a class index >= 1" in err
        assert "Traceback" not in err

    def test_file_named_twice_is_data_error(self, tmp_path, capsys):
        logs = write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n"})
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\na.log,1\n# comment\na.log,2\n")
        out = tmp_path / "d.csv"
        rc = cli.main(["extract", "--logs", str(logs), "--labels", str(labels), "--out", str(out)])
        assert rc == 65
        err = capsys.readouterr().err
        assert "labels.csv:4: filename a.log given twice (first on line 2)" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_row_naming_no_log_is_data_error(self, tmp_path, capsys):
        logs = write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n"})
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\na.log,1\nmissing.log,2\n")
        out = tmp_path / "d.csv"
        rc = cli.main(["extract", "--logs", str(logs), "--labels", str(labels), "--out", str(out)])
        assert rc == 65
        err = capsys.readouterr().err
        assert "labels.csv:3: filename missing.log matches no log file" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("d.csv*"))

    def test_labeled_log_that_fails_to_parse_is_partial_failure(self, tmp_path, capsys):
        logs = write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n", "bad.log": "\n"})
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\na.log,1\nbad.log,2\n")
        out = tmp_path / "d.csv"
        rc = cli.main(["extract", "--logs", str(logs), "--labels", str(labels), "--out", str(out)])
        assert rc == 2
        assert "failed: bad.log" in capsys.readouterr().err
        assert Dataset.load_csv(out).n == 1

    @pytest.mark.parametrize(
        "rows, message",
        [("a1.log,1\na2.log,3\n", "label 3 is outside 1..2"),
         ("a1.log,2\nbad.log,1\n", "label 2 is outside 1..1")],
        ids=["label-gap", "labeled-log-fails-to-parse"],
    )
    def test_label_above_the_labeled_logs_written_is_data_error(
        self, tmp_path, capsys, rows, message
    ):
        # load_csv reads a label as a class among the labeled rows, so
        # extract must not write a file that fit, classify and evaluate refuse
        logs = write_logs(
            tmp_path,
            {**{f"{n}.log": "java.net.URL.openConnection 1\n" for n in ("a1", "a2", "u1")},
             "bad.log": "\n"},
        )
        labels = tmp_path / "labels.csv"
        labels.write_text(rows)
        out = tmp_path / "c.csv"
        rc = cli.main(["extract", "--logs", str(logs), "--labels", str(labels), "--out", str(out)])
        assert rc == 65
        err = capsys.readouterr().err
        assert f"{labels}: {message}" in err
        assert "extract: failed: bad.log" in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("c.csv*"))

    def test_every_log_unparseable_is_data_error_and_writes_nothing(self, tmp_path, capsys):
        logs = write_logs(tmp_path, {"a.log": "\n", "b.log": "no record here\n"})
        out = tmp_path / "d.csv"
        assert cli.main(["extract", "--logs", str(logs), "--out", str(out)]) == 65
        assert "every log file failed to parse" in capsys.readouterr().err
        assert not list(tmp_path.glob("d.csv*"))

    def test_manifest_lists_the_config_file(self, tmp_path):
        logs = write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n"})
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        out = tmp_path / "d.csv"
        assert cli.main(["extract", "--logs", str(logs), "--config", str(cfg), "--out", str(out)]) == 0
        inputs = json.loads((tmp_path / "d.csv.manifest.json").read_text())["inputs"]
        assert inputs[str(cfg)] == cli._sha256(cfg)

    def test_rerun_is_byte_identical(self, tmp_path):
        logs = write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n"})
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        out = tmp_path / "data.csv"
        argv = ["extract", "--logs", str(logs), "--vocabulary", str(vocab), "--out", str(out)]
        assert cli.main(argv) == 0
        first = {p.name: p.read_bytes() for p in tmp_path.glob("data.csv*")}
        assert cli.main(argv) == 0
        second = {p.name: p.read_bytes() for p in tmp_path.glob("data.csv*")}
        assert first == second
        assert "data.csv.manifest.json" in first

    def test_line_endings_bom_and_invalid_utf8_vectorize_as_text_mode_open(self, tmp_path):
        # CRLF, lone CRs, a BOM, bytes that are not UTF-8, and separators
        # (U+2028, \x85, \v, \f, \x1c-\x1e) that str.splitlines() would
        # break at but universal newlines do not
        logs = {
            "a.log": "\ufeffjava.net.URL.openConnection 1\r\n".encode()
            + b"javax.crypto.Cipher.doFinal 2\rnot a record\r\n"
            + b"android.telephony.TelephonyManager.getDevice\xffId 3\n"
            + "javax.crypto.Cipher.doFinal\u2028java.net.URL.openConnection 4".encode(),
            "b.log": "java.net.URL.openConnection\x85javax.crypto.Cipher.doFinal\r\r\n".encode()
            + b"x\x0bandroid.telephony.TelephonyManager.getDeviceId\r",
            "c.log": b"\r\n\r\njavax.crypto.Cipher.doFinal\x0cjava.net.URL.openConnection\r"
            + b"bad\x1candroid.telephony.TelephonyManager.getDeviceId\r\xff\n"
            + b"\x1dx.y\x1ejavax.crypto.Cipher.doFinal",
            "d.log": b"\xef\xbb\xbf\r\xc3java.net.URL.openConnection\n\xe2\x80",
        }
        (tmp_path / "logs").mkdir()
        for name, raw in logs.items():
            (tmp_path / "logs" / name).write_bytes(raw)
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        out = tmp_path / "data.csv"
        argv = ["extract", "--logs", str(tmp_path / "logs"), "--vocabulary", str(vocab),
                "--out", str(out)]
        assert cli.main(argv) == 0
        with open(str(out) + ".sources.csv", newline="") as fh:
            sources = list(csv.DictReader(fh))
        assert [row["filename"] for row in sources] == sorted(logs)
        vocabulary = ApiVocabulary.from_file(vocab)
        expected = []
        for name, row in zip(sorted(logs), sources):
            with open(tmp_path / "logs" / name, "r", encoding="utf-8", errors="replace") as fh:
                result = direct_parse_log(fh, vocabulary)
            expected.append(result.bits)
            assert (int(row["parsed_lines"]), int(row["skipped_lines"])) == (
                result.n_parsed, result.n_skipped,
            )
        np.testing.assert_array_equal(Dataset.load_csv(out).unlabeled_features, expected)

    def test_each_log_is_opened_once_and_hashed_in_the_manifest(self, tmp_path, monkeypatch):
        logs = write_logs(
            tmp_path,
            {"a.log": "java.net.URL.openConnection 1\n", "b.log": "no record here\n"},
        )
        vocab = tmp_path / "vocab.txt"
        vocab.write_text(VOCAB)
        out = tmp_path / "data.csv"
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        argv = ["extract", "--logs", str(logs), "--vocabulary", str(vocab), "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_PARTIAL
        monkeypatch.undo()
        for log in (logs / "a.log", logs / "b.log"):
            assert opened.count(str(log)) == 1
        inputs = json.loads((tmp_path / "data.csv.manifest.json").read_text())["inputs"]
        assert inputs[str(logs / "a.log")] == cli._sha256(logs / "a.log")
        assert inputs[str(logs / "b.log")] == cli._sha256(logs / "b.log")

    def test_manifest_keys_the_bundled_vocabulary_by_name(self, tmp_path):
        logs = write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n"})
        out = tmp_path / "data.csv"
        assert cli.main(["extract", "--logs", str(logs), "--out", str(out)]) == 0
        text = (tmp_path / "data.csv.manifest.json").read_text()
        assert str(cli.DEFAULT_VOCABULARY) not in text
        inputs = json.loads(text)["inputs"]
        assert inputs[cli.BUNDLED_VOCABULARY_KEY] == cli._sha256(cli.DEFAULT_VOCABULARY)

    def test_missing_directory_is_usage_error(self, tmp_path):
        rc = cli.main(
            ["extract", "--logs", str(tmp_path / "nope"), "--out", str(tmp_path / "x.csv")]
        )
        assert rc == 64


class TestFit:
    def test_single_family_report(self, tmp_path):
        data = synth_csv(tmp_path)
        model_path = tmp_path / "model.json"
        rc = cli.main(
            ["fit", "--data", str(data), "--families", "EII", "--out", str(model_path)]
        )
        assert rc == 0
        report = (tmp_path / "model.json.selection.csv").read_text().strip().splitlines()
        assert len(report) == 2
        assert report[1].startswith("EII")
        model = gmm.load_model(model_path)
        assert model.family == "EII"

    def test_model_round_trips_losslessly(self, tmp_path):
        data = synth_csv(tmp_path, seed=12)
        model_path = tmp_path / "model.json"
        assert cli.main(["fit", "--data", str(data), "--out", str(model_path)]) == 0
        loaded = gmm.load_model(model_path)
        copy_path = tmp_path / "copy.json"
        gmm.save_model(loaded, copy_path)
        assert model_path.read_bytes() == copy_path.read_bytes()

    def test_invalid_tolerance_is_usage_error(self, tmp_path):
        data = synth_csv(tmp_path, seed=13)
        rc = cli.main(
            ["fit", "--data", str(data), "--tolerance", "0", "--out", str(tmp_path / "m.json")]
        )
        assert rc == 64

    def test_missing_data_is_usage_error(self, tmp_path):
        rc = cli.main(
            ["fit", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 64


class TestClassify:
    def test_predictions_match_library_fit(self, tmp_path):
        data = synth_csv(tmp_path, seed=14)
        model_path = tmp_path / "model.json"
        assert cli.main(
            ["fit", "--data", str(data), "--families", "EII", "--out", str(model_path)]
        ) == 0
        preds_path = tmp_path / "preds.csv"
        assert cli.main(
            ["classify", "--model", str(model_path), "--data", str(data), "--out", str(preds_path)]
        ) == 0
        ds = Dataset.load_csv(data)
        result = fit_dataset(ds, cem.CemConfig(family="EII"))
        lines = preds_path.read_text().strip().splitlines()[1:]
        got = np.array([int(line.split(",")[1]) for line in lines])
        assert np.array_equal(got, result.hard_labels)

    def test_empty_unlabeled_block_gives_header_only(self, tmp_path):
        data = synth_csv(tmp_path, seed=15, extra=("--label-fraction", "1.0"))
        model_path = tmp_path / "model.json"
        assert cli.main(
            ["fit", "--data", str(data), "--families", "VII", "--out", str(model_path)]
        ) == 0
        preds_path = tmp_path / "preds.csv"
        assert cli.main(
            ["classify", "--model", str(model_path), "--data", str(data), "--out", str(preds_path)]
        ) == 0
        assert preds_path.read_text() == "sample_id,predicted_label,score\n"

    def test_predictions_exact_bytes(self, tmp_path):
        model_path = tmp_path / "model.json"
        # Components 40 apart in each coordinate: each row's posteriors are exactly 0 and 1.
        model_path.write_text(json.dumps(model_payload("EII", means=((0.0,) * 3, (40.0,) * 3))))
        data = tmp_path / "data.csv"
        rows = [[0.0, 0.0, 0.0], [40.0, 40.0, 40.0]]
        Dataset(np.empty((0, 3)), [], rows, synth.feature_names(3), 2).save_csv(data)
        preds_path = tmp_path / "preds.csv"
        assert cli.main(
            ["classify", "--model", str(model_path), "--data", str(data), "--out", str(preds_path)]
        ) == 0
        assert preds_path.read_bytes() == b"sample_id,predicted_label,score\n0,1,0.0\n1,2,1.0\n"

    def test_dimension_mismatch_is_data_error(self, tmp_path, capsys):
        data3 = synth_csv(tmp_path, "d3.csv", seed=16)
        model_path = tmp_path / "model.json"
        assert cli.main(
            ["fit", "--data", str(data3), "--families", "EII", "--out", str(model_path)]
        ) == 0
        data5 = tmp_path / "d5.csv"
        assert cli.main(
            ["synth", "--n", "80", "--d", "5", "--seed", "1", "--out", str(data5)]
        ) == 0
        rc = cli.main(
            ["classify", "--model", str(model_path), "--data", str(data5), "--out", str(tmp_path / "p.csv")]
        )
        assert rc == 65
        err = capsys.readouterr().err
        assert "d=3" in err and "d=5" in err

    def test_positive_label_above_k_is_usage_error(self, tmp_path, capsys):
        data = synth_csv(tmp_path, seed=17)
        model_path = tmp_path / "model.json"
        assert cli.main(
            ["fit", "--data", str(data), "--families", "EII", "--out", str(model_path)]
        ) == 0
        preds_path = tmp_path / "preds.csv"
        rc = cli.main(
            [
                "classify", "--model", str(model_path), "--data", str(data),
                "--positive-label", "3", "--out", str(preds_path),
            ]
        )
        assert rc == 64
        assert "--positive-label 3" in capsys.readouterr().err
        assert not preds_path.exists()


def model_payload(family, means=((0.0, 0.0, 0.0), (4.0, 4.0, 4.0)), covariance=None):
    """A two-component d=3 model file body, as save_model writes it.

    Both components get ``covariance``, by default the identity in the
    family's shape: 3 variances or a 3 x 3 matrix.
    """
    if covariance is None:
        covariance = [1.0] * 3 if family in gmm.DIAGONAL_FAMILIES else np.eye(3).tolist()
    return {
        "format": "mbss-model", "version": 2, "family": family,
        "weights": [0.5, 0.5], "means": [list(m) for m in means] if means else means,
        "covariances": [covariance, covariance],
    }


@pytest.mark.parametrize(
    "payload",
    [
        model_payload("VVI", means=((0.0, float("nan"), 0.0), (4.0, 4.0, 4.0))),
        model_payload("VVV", means=((0.0, float("nan"), 0.0), (4.0, 4.0, 4.0))),
        model_payload("VVV", covariance=[[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        model_payload("VVI", covariance=[1.0, -1.0, 1.0]),
        model_payload("EEI", covariance=[1.0, float("inf"), 1.0]),
        model_payload("EII", means=None),
        dict(model_payload("EII"), weights=[float("nan"), 0.5]),
        dict(model_payload("EII"), covariances=[[1.0] * 3]),
        model_payload("VVI", covariance=np.eye(3).tolist()),
        model_payload("EEE", covariance=[1.0] * 3),
        model_payload("EII", covariance=[1.0, 2.0, 1.0]),
        dict(model_payload("EEE"), covariances=[np.eye(3).tolist(), (2.0 * np.eye(3)).tolist()]),
        dict(model_payload("VVV"), weights=[0.25, 0.25, 0.5],
             means=[[0.0] * 3, [4.0] * 3, [8.0] * 3]),
        model_payload("VVI", means=((0.0, 0.0), (4.0, 4.0))),
        model_payload("EEE", means=((0.0, 0.0, 0.0), (4.0, 4.0))),
    ],
    ids=["vvi-nan-mean", "vvv-nan-mean", "not-pd", "negative-variance", "inf-variance",
         "null-means", "nan-weight", "one-covariance", "matrix-in-vvi", "vector-in-eee",
         "unequal-eii-variances", "unequal-eee-covariances", "three-means-two-covariances",
         "means-of-d-2", "ragged-means"],
)
def test_bad_model_file_is_data_error(tmp_path, capsys, payload):
    data = synth_csv(tmp_path, seed=19)
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(payload))
    rc = cli.main(
        ["classify", "--model", str(model_path), "--data", str(data),
         "--out", str(tmp_path / "p.csv")]
    )
    assert rc == 65
    assert "malformed model file" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def test_version_1_model_file_asks_for_a_refit(tmp_path, capsys):
    data = synth_csv(tmp_path, seed=19)
    model_path = tmp_path / "model.json"
    payload = dict(model_payload("VVV"), version=1)
    model_path.write_text(json.dumps(payload))
    rc = cli.main(
        ["classify", "--model", str(model_path), "--data", str(data),
         "--out", str(tmp_path / "p.csv")]
    )
    assert rc == 65
    assert "version 1 is not 2; refit the model" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


class TestEvaluate:
    def test_cv_protocol_emits_fold_rows(self, tmp_path):
        data = synth_csv(tmp_path, n=300, seed=17)
        out = tmp_path / "cv.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv",
                "--classifiers", "mbss,lda", "--family", "EII",
                "--seed", "3", "--out", str(out), "--roc-out", str(tmp_path / "roc.csv"),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        mbss_folds = [l for l in lines if l.startswith("mbss,") and l.split(",")[1].isdigit()]
        lda_folds = [l for l in lines if l.startswith("lda,") and l.split(",")[1].isdigit()]
        assert len(mbss_folds) == 10 and len(lda_folds) == 10
        roc = (tmp_path / "roc.csv").read_text().splitlines()
        assert roc[0] == "threshold,fpr,tpr"

    def test_oos_protocol_matches_library_detection_rate(self, tmp_path):
        train = synth_csv(tmp_path, "train.csv", n=200, seed=18)
        oos = synth_csv(tmp_path, "oos.csv", n=400, seed=19)
        out = tmp_path / "dr.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(train), "--protocol", "oos",
                "--oos-data", str(oos), "--classifiers", "lda",
                "--fractions", "50,100", "--replicates", "4,1",
                "--seed", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        from mbss import baselines

        train_ds = Dataset.load_csv(train)
        oos_ds = Dataset.load_csv(oos)
        oos_X = np.vstack([oos_ds.labeled_features, oos_ds.unlabeled_features])
        model = baselines.lda_fit(train_ds.labeled_features, train_ds.labels)
        rows = detection_rate(
            lambda train_X, train_y, pool: lambda idx: (
                baselines.lda_predict_all(model, pool[idx])[0], None
            ),
            train_ds.labeled_features, train_ds.labels, oos_X, (50.0, 100.0), (4, 1), seed=5,
        )
        lines = out.read_text().strip().splitlines()[1:]
        assert len(lines) == 2
        for line, row in zip(lines, rows):
            cells = line.split(",")
            assert float(cells[1]) == row.fraction_pct
            assert float(cells[4]) == pytest.approx(row.dr_mean, abs=1e-15)

    def test_external_predictions_merge_into_cv_table(self, tmp_path):
        data = synth_csv(tmp_path, n=120, seed=20)
        ds = Dataset.load_csv(data)
        ext = tmp_path / "external.csv"
        with open(ext, "w") as fh:
            fh.write("sample_id,predicted_label,score\n")
            for i, lab in enumerate(ds.labels):
                fh.write(f"{i},{int(lab)},{float(lab)}\n")  # oracle predictions
        out = tmp_path / "cv.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv",
                "--classifiers", "lda", "--external-predictions", str(ext),
                "--seed", "2", "--out", str(out),
            ]
        )
        assert rc == 0
        text = out.read_text()
        assert "external,mean,1.0," in text  # perfect oracle accuracy

    def test_knn_is_named_by_k_in_the_dr_table(self, tmp_path):
        train = synth_csv(tmp_path, "train.csv", n=200, seed=18)
        oos = synth_csv(tmp_path, "oos.csv", n=100, seed=19)
        out = tmp_path / "dr.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(train), "--protocol", "oos",
                "--oos-data", str(oos), "--classifiers", "knn", "--knn-k", "5",
                "--fractions", "100", "--replicates", "1", "--seed", "5", "--out", str(out),
            ]
        )
        assert rc == 0
        assert out.read_text().splitlines()[1].startswith("5nn,100.0,1,100,")

    def test_one_fold_is_usage_error(self, tmp_path, capsys):
        data = synth_csv(tmp_path, n=40, seed=23)
        out = tmp_path / "o.csv"
        rc = cli.main(
            ["evaluate", "--data", str(data), "--protocol", "cv", "--classifiers", "lda",
             "--folds", "1", "--seed", "1", "--out", str(out)]
        )
        assert rc == 64
        assert "--folds must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    def test_folds_above_smallest_class_is_usage_error(self, tmp_path, capsys):
        data = synth_csv(tmp_path, n=40, seed=23)
        smallest = int(Dataset.load_csv(data).class_counts().min())
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv", "--classifiers", "lda",
                "--folds", str(smallest + 1), "--seed", "1", "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 64
        assert "--folds" in capsys.readouterr().err

    @pytest.mark.parametrize("c", [2, 3])
    @pytest.mark.parametrize("classifiers", ["mbss", "lda", "knn"])
    def test_two_folds_leaving_a_class_one_training_row_is_usage_error(
        self, tmp_path, capsys, monkeypatch, c, classifiers
    ):
        # a test fold of 2 holds ceil(c / 2) of class 2's c rows: 1 training row is left
        rng = np.random.default_rng(c)
        X = rng.standard_normal((20 + c, 3)) + np.repeat([0.0, 4.0], [20, c])[:, None]
        data, out = tmp_path / "data.csv", tmp_path / "cv.csv"
        labels = np.repeat([1, 2], [20, c])
        Dataset(X, labels, np.empty((0, 3)), synth.feature_names(3), 2).save_csv(data)
        if classifiers != "knn":
            monkeypatch.setattr(cem, "fit", lambda *a, **k: pytest.fail("fit before the check"))
        rc = cli.main(
            ["evaluate", "--data", str(data), "--protocol", "cv", "--folds", "2",
             "--classifiers", classifiers, "--knn-k", "1", "--seed", "1", "--out", str(out)]
        )
        if classifiers == "knn":
            assert rc == 0
            return
        assert rc == 64
        err = capsys.readouterr().err
        assert "--folds 2" in err and "[2]" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "protocol, flags",
        [
            ("oos", ["--folds", "4"]),
            ("cv", ["--oos-data", "{data}", "--fractions", "50", "--replicates", "2",
                    "--pca-out", "pca.csv"]),
            ("cv10", ["--fractions", "50", "--replicates", "2", "--oos-data", "{data}"]),
        ],
    )
    def test_another_protocols_flag_is_usage_error_before_any_fit(
        self, tmp_path, capsys, monkeypatch, protocol, flags
    ):
        data = synth_csv(tmp_path, seed=38)
        monkeypatch.setattr(cem, "fit", lambda *a, **k: pytest.fail("fit before the check"))
        oos = ["--oos-data", str(data)] if protocol == "oos" else []
        out = tmp_path / "o.csv"
        rc = cli.main(
            ["evaluate", "--data", str(data), "--protocol", protocol, *oos,
             *(f.format(data=data) for f in flags), "--seed", "1", "--out", str(out)]
        )
        assert rc == 64
        err = capsys.readouterr().err
        assert all(flag in err for flag in flags if flag.startswith("--"))
        assert not out.exists()

    def test_another_protocols_flag_from_config_is_usage_error(self, tmp_path, capsys):
        data = synth_csv(tmp_path, seed=39)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": 3}))
        rc = cli.main(
            ["evaluate", "--data", str(data), "--config", str(cfg), "--protocol", "oos",
             "--oos-data", str(data), "--classifiers", "lda", "--seed", "1",
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 64
        assert "--folds" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol", ["cv", "oos"])
    @pytest.mark.parametrize("classifier", ["mbss", "lda", "knn"])
    def test_positive_label_above_k_is_usage_error(self, tmp_path, capsys, protocol, classifier):
        data = synth_csv(tmp_path, n=200, seed=29)
        assert Dataset.load_csv(data).K == 2
        oos = ["--oos-data", str(data)] if protocol == "oos" else []
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", protocol, *oos,
                "--classifiers", classifier, "--positive-label", "3",
                "--seed", "1", "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 64
        assert "--positive-label 3" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("protocol", ["cv", "oos"])
    def test_knn_k_above_training_rows_is_usage_error(self, tmp_path, capsys, protocol):
        data = synth_csv(tmp_path, n=40, seed=24)
        n = Dataset.load_csv(data).n
        assert n == 20
        # each of the 4 training folds of the 20 labeled rows has 15
        k = 16 if protocol == "cv" else n + 1
        own = ["--folds", "4"] if protocol == "cv" else ["--oos-data", str(data)]
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", protocol, *own,
                "--classifiers", "lda,knn", "--knn-k", str(k),
                "--seed", "1", "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 64
        assert "--knn-k" in capsys.readouterr().err

    def test_largest_knn_k_runs(self, tmp_path):
        data = synth_csv(tmp_path, n=40, seed=24)
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv", "--folds", "4",
                "--classifiers", "knn", "--knn-k", "15",
                "--seed", "1", "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize("command, flag", [("evaluate", "--classifiers"), ("fit", "--families")])
    def test_empty_name_list_is_usage_error(self, tmp_path, capsys, command, flag):
        data = synth_csv(tmp_path, seed=25)
        extra = ["--protocol", "oos", "--oos-data", str(data), "--seed", "1"]
        rc = cli.main(
            [command, "--data", str(data), flag, ",", *(extra if command == "evaluate" else []),
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 64
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, names",
        [("evaluate", "--classifiers", "lda,mbss,LDA"), ("fit", "--families", "EII,VVI,eii")],
    )
    def test_repeated_name_is_usage_error_before_any_fit(
        self, tmp_path, capsys, monkeypatch, command, flag, names
    ):
        data = synth_csv(tmp_path, seed=27)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the name list was checked")

        monkeypatch.setattr(cem, "fit", no_fit)
        extra = ["--protocol", "oos", "--oos-data", str(data), "--seed", "1"]
        rc = cli.main(
            [command, "--data", str(data), flag, names, *(extra if command == "evaluate" else []),
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 64
        err = capsys.readouterr().err
        assert flag in err and "more than once" in err

    def test_unknown_classifier_rejected_before_any_fit(self, tmp_path, capsys, monkeypatch):
        data = synth_csv(tmp_path, seed=26)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the classifier list was checked")

        monkeypatch.setattr(cem, "fit", no_fit)
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "oos", "--oos-data", str(data),
                "--classifiers", "mbss,svm", "--seed", "1", "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 64
        err = capsys.readouterr().err
        assert "--classifiers" in err and "svm" in err

    @pytest.mark.parametrize(
        "protocol, flag",
        [("oos", "--roc-out"), ("cv", "--pca-out"), ("cv10", "--pca-out")],
    )
    def test_output_flag_outside_its_protocol_is_usage_error_before_any_fit(
        self, tmp_path, capsys, monkeypatch, protocol, flag
    ):
        data = synth_csv(tmp_path, seed=36)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit before the output flags were checked")

        monkeypatch.setattr(cem, "fit", no_fit)
        out = tmp_path / "o.csv"
        oos = ["--oos-data", str(data)] if protocol == "oos" else []
        rc = cli.main(
            ["evaluate", "--data", str(data), "--protocol", protocol, *oos,
             "--seed", "1", "--out", str(out), flag, str(tmp_path / "extra.csv")]
        )
        assert rc == 64
        assert flag in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["train.csv", "train.csv.manifest.json", "train.csv.truth.csv"]
        )

    @pytest.mark.parametrize("external", [None, "sample_id,predicted_label\n"])
    def test_roc_out_without_a_scoring_classifier_is_usage_error_before_any_fit(
        self, tmp_path, capsys, monkeypatch, external
    ):
        data = synth_csv(tmp_path, seed=37)
        flags = []
        if external is not None:
            ext = tmp_path / "ext.csv"
            labels = Dataset.load_csv(data).labels
            ext.write_text(external + "".join(f"{i},{lab}\n" for i, lab in enumerate(labels)))
            flags = ["--external-predictions", str(ext)]

        def no_run(*args, **kwargs):
            raise AssertionError("a fold ran before --roc-out was checked")

        monkeypatch.setattr(evaluation, "cross_validate", no_run)
        out, roc = tmp_path / "cv.csv", tmp_path / "roc.csv"
        rc = cli.main(
            ["evaluate", "--data", str(data), "--protocol", "cv", "--classifiers", "knn",
             *flags, "--seed", "1", "--out", str(out), "--roc-out", str(roc)]
        )
        assert rc == 64
        assert "score-producing" in capsys.readouterr().err
        assert not out.exists() and not roc.exists()

    def test_roc_out_takes_the_scores_of_an_external_file(self, tmp_path):
        data = synth_csv(tmp_path, seed=37)
        ext = tmp_path / "ext.csv"
        labels = Dataset.load_csv(data).labels
        ext.write_text("".join(f"{i},{lab},{lab - 1.0}\n" for i, lab in enumerate(labels)))
        roc = tmp_path / "roc.csv"
        rc = cli.main(
            ["evaluate", "--data", str(data), "--protocol", "cv", "--classifiers", "knn",
             "--external-predictions", str(ext), "--seed", "1",
             "--out", str(tmp_path / "cv.csv"), "--roc-out", str(roc)]
        )
        assert rc == 0
        assert roc.read_text().splitlines()[0] == "threshold,fpr,tpr"

    def test_missing_seed_is_usage_error(self, tmp_path):
        data = synth_csv(tmp_path, seed=21)
        rc = cli.main(
            ["evaluate", "--data", str(data), "--protocol", "cv", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 64

    def test_oos_requires_oos_data(self, tmp_path):
        data = synth_csv(tmp_path, seed=22)
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "oos",
                "--seed", "1", "--out", str(tmp_path / "o.csv"),
            ]
        )
        assert rc == 64


@pytest.mark.parametrize(
    "command, extra",
    [
        ("fit", []),
        ("evaluate", ["--protocol", "oos", "--oos-data", "{data}", "--classifiers", "mbss,lda,knn",
                      "--seed", "1"]),
        ("evaluate", ["--protocol", "cv", "--folds", "2", "--classifiers", "lda", "--seed", "1"]),
    ],
    ids=["fit", "evaluate-oos", "evaluate-cv"],
)
def test_class_with_one_labeled_row_is_data_error(tmp_path, capsys, command, extra):
    ds = Dataset.load_csv(synth_csv(tmp_path, n=40, seed=28))
    keep = np.concatenate([np.flatnonzero(ds.labels == 1), np.flatnonzero(ds.labels == 2)[:1]])
    data = tmp_path / "thin.csv"
    Dataset(
        ds.labeled_features[keep], ds.labels[keep], ds.unlabeled_features, ds.vocabulary, 2
    ).save_csv(data)
    argv = [command, "--data", str(data), *extra, "--out", str(tmp_path / "o.csv")]
    rc = cli.main([arg.format(data=data) for arg in argv])
    assert rc == 65
    assert "classes [2] have fewer than 2 labeled samples" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, flag",
    [("fit", "--data"), ("classify", "--data"), ("evaluate", "--data"), ("evaluate", "--oos-data")],
)
def test_non_finite_feature_cell_is_data_error(tmp_path, capsys, command, flag, cell):
    data = synth_csv(tmp_path, n=40, seed=30)
    model_path = tmp_path / "model.json"
    assert cli.main(["fit", "--data", str(data), "--families", "EII", "--out", str(model_path)]) == 0
    # The last row is unlabeled: classify and evaluate read it too.
    bad = tmp_path / "bad.csv"
    lines = data.read_text().splitlines(keepends=True)
    bad.write_text("".join(lines[:-1]) + cell + lines[-1][lines[-1].index(","):])
    data_path, oos_path = (data, bad) if flag == "--oos-data" else (bad, data)
    extra = {
        "fit": [],
        "classify": ["--model", str(model_path)],
        "evaluate": ["--protocol", "oos", "--oos-data", str(oos_path), "--seed", "1"],
    }[command]
    rc = cli.main([command, "--data", str(data_path), *extra, "--out", str(tmp_path / "o.csv")])
    assert rc == 65
    err = capsys.readouterr().err
    assert f"{bad}: feature cells must be finite" in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("a.b,c.d,label\n0,1,1\n1,0,1000000000000\n1,1,\n", "label 1000000000000 is outside 1..2"),
        ("a.b,a.b,label\n0,1,1\n1,0,2\n1,1,\n", "entries must be unique"),
        ("label\n1\n2\n\n", "must not be empty"),
        ("", "empty file"),
    ],
    ids=["huge-label", "repeated-identity", "no-identity", "empty-file"],
)
@pytest.mark.parametrize("command", ["fit", "classify", "evaluate"])
def test_bad_label_or_header_is_data_error(tmp_path, capsys, command, text, message):
    model_path = tmp_path / "model.json"
    good = synth_csv(tmp_path, n=40, seed=31)
    assert cli.main(["fit", "--data", str(good), "--families", "EII", "--out", str(model_path)]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    extra = {
        "fit": [],
        "classify": ["--model", str(model_path)],
        "evaluate": ["--protocol", "cv", "--folds", "2", "--classifiers", "lda", "--seed", "1"],
    }[command]
    rc = cli.main([command, "--data", str(bad), *extra, "--out", str(tmp_path / "o.csv")])
    assert rc == 65
    err = capsys.readouterr().err
    assert str(bad) in err and message in err
    assert not (tmp_path / "o.csv").exists()


def _spoil(path: Path, at: int) -> Path:
    """A copy of ``path`` with byte ``at`` (negative counts from the end) made 0xff."""
    data = bytearray(path.read_bytes())
    data[at] = 0xFF
    bad = path.with_name("bad-" + path.name)
    bad.write_bytes(bytes(data))
    return bad


@pytest.mark.parametrize(
    "spoiled, at, argv",
    [
        ("floats", 2, ["fit", "--data", "{bad}"]),
        ("binary", -3, ["fit", "--data", "{bad}"]),
        ("floats", -3, ["fit", "--data", "{bad}"]),
        ("vocab", 3, ["extract", "--logs", "{logs}", "--vocabulary", "{bad}"]),
        ("labels", -3, ["extract", "--logs", "{logs}", "--labels", "{bad}"]),
        ("model", 3, ["classify", "--model", "{bad}", "--data", "{floats}"]),
        ("predictions", 0, ["evaluate", "--data", "{floats}", "--protocol", "cv", "--classifiers",
                            "lda", "--seed", "1", "--external-predictions", "{bad}"]),
        ("config", 2, ["fit", "--data", "{floats}", "--config", "{bad}"]),
    ],
    ids=["header", "binary-body", "float-body", "vocabulary", "labels", "model", "predictions",
         "config"],
)
def test_invalid_utf8_input_is_data_error(tmp_path, capsys, spoiled, at, argv):
    paths = {
        "floats": synth_csv(tmp_path, n=40, seed=32),
        "binary": synth_csv(tmp_path, "binary.csv", n=40, seed=32, extra=["--binarize-at", "0"]),
        "model": tmp_path / "model.json",
        "logs": write_logs(tmp_path, {"a.log": "java.net.URL.openConnection 1\n"}),
        "vocab": tmp_path / "vocab.txt",
        "labels": tmp_path / "labels.csv",
        "predictions": tmp_path / "predictions.csv",
        "config": tmp_path / "config.json",
    }
    fit = ["fit", "--data", str(paths["floats"]), "--families", "EII", "--out", str(paths["model"])]
    assert cli.main(fit) == 0
    paths["vocab"].write_text(VOCAB)
    paths["labels"].write_text("filename,label\na.log,1\n")
    n = Dataset.load_csv(paths["floats"]).n
    paths["predictions"].write_text("".join(f"{i},1\n" for i in range(n)))
    paths["config"].write_text('{"families": "EII"}')
    bad = _spoil(paths[spoiled], at)
    out = tmp_path / "out.csv"
    capsys.readouterr()
    rc = cli.main([arg.format(bad=bad, **paths) for arg in argv] + ["--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 65, err
    assert err.startswith("data error: ") and str(bad) in err
    assert "Traceback" not in err
    assert not out.exists()


class TestSynth:
    def test_rerun_byte_identical_and_truth_emitted(self, tmp_path):
        out = tmp_path / "s.csv"
        argv = ["synth", "--n", "60", "--d", "2", "--seed", "9", "--out", str(out)]
        assert cli.main(argv) == 0
        first = out.read_bytes()
        truth_first = (tmp_path / "s.csv.truth.csv").read_bytes()
        assert cli.main(argv) == 0
        assert out.read_bytes() == first
        assert (tmp_path / "s.csv.truth.csv").read_bytes() == truth_first

    def test_truth_exact_bytes(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["synth", "--n", "60", "--d", "2", "--seed", "9", "--out", str(out)]) == 0
        text = (tmp_path / "s.csv.truth.csv").read_bytes().decode()
        truth = [int(line.split(",")[1]) for line in text.splitlines()[1:]]
        assert len(truth) == Dataset.load_csv(out).m and set(truth) <= {1, 2}
        assert text == "sample_id,true_label\n" + "".join(f"{i},{t}\n" for i, t in enumerate(truth))

    def test_binarize_flag_yields_binary_cells(self, tmp_path):
        out = tmp_path / "b.csv"
        rc = cli.main(
            [
                "synth", "--n", "40", "--d", "2", "--separation", "2",
                "--binarize-at", "1.0", "--seed", "3", "--out", str(out),
            ]
        )
        assert rc == 0
        body = out.read_text().strip().splitlines()[1:]
        cells = {c for line in body for c in line.split(",")[:-1]}
        assert cells <= {"0", "1"}

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["synth", "--n", "30", "--d", "2", "--seed", "4", "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["command"] == "synth"
        assert str(out) in manifest["outputs"]

    def test_bad_label_fraction_is_usage_error(self, tmp_path):
        rc = cli.main(
            [
                "synth", "--n", "30", "--d", "2", "--label-fraction", "0",
                "--seed", "4", "--out", str(tmp_path / "s.csv"),
            ]
        )
        assert rc == 64

    def test_one_weight_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = cli.main(
            ["synth", "--n", "20", "--d", "2", "--weights", "0.5", "--seed", "0", "--out", str(out)]
        )
        assert rc == 64
        assert "--weights takes exactly two values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--separation", "nan"), ("--separation", "inf"), ("--rho", "nan"),
         ("--scale", "inf"), ("--scale", "1e200"), ("--weights", "0.5,nan")],
    )
    def test_non_finite_parameter_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "out" / "s.csv"
        rc = cli.main(
            ["synth", "--n", "20", "--d", "2", "--seed", "0", "--out", str(out), flag, value]
        )
        assert rc == 64
        assert "must be finite" in capsys.readouterr().err
        assert not out.parent.exists()


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "extract" in capsys.readouterr().out

    def test_unknown_flag_is_usage_error(self):
        assert cli.main(["synth", "--definitely-not-a-flag"]) == 64


class TestConfigFile:
    def test_config_supplies_defaults_flags_still_win(self, tmp_path):
        data = synth_csv(tmp_path, seed=30)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"families": ["VII"], "max_iterations": 7}))
        model_path = tmp_path / "m.json"
        rc = cli.main(
            ["fit", "--data", str(data), "--config", str(cfg), "--out", str(model_path)]
        )
        assert rc == 0
        report = (tmp_path / "m.json.selection.csv").read_text().splitlines()
        assert len(report) == 2 and report[1].startswith("VII")
        # explicit flag overrides the config value
        rc = cli.main(
            [
                "fit", "--data", str(data), "--config", str(cfg),
                "--families", "EII", "--out", str(model_path),
            ]
        )
        assert rc == 0
        report = (tmp_path / "m.json.selection.csv").read_text().splitlines()
        assert report[1].startswith("EII")

    @pytest.mark.parametrize(
        "command, values",
        [("fit", {"families": ["EII", "EII"]}), ("evaluate", {"classifiers": ["lda", "svm"]})],
    )
    def test_config_lists_pass_the_flag_checks(self, tmp_path, capsys, command, values):
        data = synth_csv(tmp_path, seed=32)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        extra = ["--protocol", "cv", "--seed", "1"] if command == "evaluate" else []
        rc = cli.main(
            [command, "--data", str(data), "--config", str(cfg), *extra,
             "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 64
        assert f"--{next(iter(values))}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, flag",
        [({"knn_k": 0}, "--knn-k"), ({"knn_k": 2.5}, "--knn-k"), ({"folds": True}, "--folds")],
    )
    def test_config_scalars_pass_the_flag_type(self, tmp_path, capsys, values, flag):
        data = synth_csv(tmp_path, seed=34)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(values))
        rc = cli.main(
            ["evaluate", "--data", str(data), "--config", str(cfg), "--protocol", "cv",
             "--classifiers", "knn", "--seed", "1", "--out", str(tmp_path / "o.csv")]
        )
        assert rc == 64
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"], ["--con={}"]]
    )
    def test_every_spelling_of_the_flag_applies_the_file(self, tmp_path, capsys, spelling):
        data = synth_csv(tmp_path, seed=35)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_iterations": 0}))
        flag = [token.format(cfg) for token in spelling]
        rc = cli.main(["fit", "--data", str(data), *flag, "--out", str(tmp_path / "m.json")])
        assert rc == 64
        assert "--max-iterations" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, path, rc, message",
        [
            ('{"family": "XYZ"}', "cfg.json", 64, "unknown covariance family 'XYZ'"),
            ("[1, 2]", "cfg.json", 65, "config must be a JSON object"),
            (None, "missing.json", 64, "config file does not exist"),
            (None, "", 64, "--config requires a path"),
        ],
        ids=["unknown-family", "json-list", "missing-file", "empty-path"],
    )
    def test_bad_evaluate_config_exits_before_any_output(
        self, tmp_path, capsys, text, path, rc, message
    ):
        # argparse does not check a config default against the flag's choices
        data = synth_csv(tmp_path, seed=36)
        if text is not None:
            (tmp_path / path).write_text(text)
        out = tmp_path / "o.csv"
        got = cli.main(
            ["evaluate", "--data", str(data), "--config", str(tmp_path / path) if path else "",
             "--protocol", "cv", "--classifiers", "lda", "--seed", "1", "--out", str(out)]
        )
        assert got == rc
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        data = synth_csv(tmp_path, seed=31)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        rc = cli.main(
            ["fit", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 64

    def test_invalid_config_value_still_validated(self, tmp_path):
        data = synth_csv(tmp_path, seed=32)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerance": 0}))
        rc = cli.main(
            ["fit", "--data", str(data), "--config", str(cfg), "--out", str(tmp_path / "m.json")]
        )
        assert rc == 64


@pytest.mark.parametrize(
    "command, flags, config",
    [
        ("fit", ["--regularization", "1e-3"], None),
        ("evaluate", ["--stopping", "delta"], None),
        ("fit", [], {"regularization": 1e-3}),
        ("evaluate", [], {"stopping": "delta"}),
    ],
    ids=["fit-flag", "evaluate-flag", "fit-config", "evaluate-config"],
)
def test_ridge_and_stopping_rule_are_not_options(tmp_path, capsys, command, flags, config):
    data = synth_csv(tmp_path, seed=33)
    name = flags[0][2:] if flags else next(iter(config))
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = ["--config", str(cfg)]
    extra = ["--protocol", "cv", "--seed", "1"] if command == "evaluate" else []
    out = tmp_path / "o.csv"
    rc = cli.main([command, "--data", str(data), *flags, *extra, "--out", str(out)])
    assert rc == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and name in err
    assert not out.exists()


class TestSweepLadder:
    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--fractions", "150", "--replicates", "1"], "--fractions"),
            (["--fractions", "-5", "--replicates", "1"], "--fractions"),
            (["--fractions", "50,100.5", "--replicates", "2,1"], "--fractions"),
            (["--fractions", "nan", "--replicates", "1"], "--fractions"),
            (["--fractions", "100", "--replicates", "0"], "--replicates"),
            (["--fractions", "50,100", "--replicates", "2,-1"], "--replicates"),
            (["--fractions", "", "--replicates", ""], "--fractions"),
            (["--fractions", ",", "--replicates", ","], "--fractions"),
            (["--replicates", "", "--fractions", ""], "--replicates"),
            (["--fractions", "50,100", "--replicates", "2"], "must have equal length"),
        ],
    )
    def test_out_of_range_ladder_is_usage_error(self, tmp_path, capsys, flags, named):
        train = synth_csv(tmp_path, "train.csv", n=100, seed=40)
        oos = synth_csv(tmp_path, "oos.csv", n=60, seed=41)
        rc = cli.main(
            ["evaluate", "--data", str(train), "--protocol", "oos", "--oos-data", str(oos),
             "--classifiers", "lda", *flags, "--seed", "1", "--out", str(tmp_path / "dr.csv")]
        )
        assert rc == 64
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "values, named",
        [({"fractions": [150]}, "--fractions"), ({"replicates": [0]}, "--replicates"),
         ({"fractions": [], "replicates": []}, "--fractions")],
    )
    def test_out_of_range_config_ladder_is_usage_error(self, tmp_path, capsys, values, named):
        train = synth_csv(tmp_path, "train.csv", n=100, seed=40)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"fractions": [100], "replicates": [1], **values}))
        rc = cli.main(
            ["evaluate", "--data", str(train), "--protocol", "oos", "--oos-data", str(train),
             "--config", str(cfg), "--classifiers", "lda", "--seed", "1",
             "--out", str(tmp_path / "dr.csv")]
        )
        assert rc == 64
        assert named in capsys.readouterr().err

    def test_zero_percent_is_skipped_with_a_warning(self, tmp_path):
        train = synth_csv(tmp_path, "train.csv", n=100, seed=40)
        out = tmp_path / "dr.csv"
        with pytest.warns(UserWarning, match="yields zero rows"):
            rc = cli.main(
                ["evaluate", "--data", str(train), "--protocol", "oos", "--oos-data", str(train),
                 "--classifiers", "lda", "--fractions", "0,100", "--replicates", "1,1",
                 "--seed", "1", "--out", str(out)]
            )
        assert rc == 0
        assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["100.0"]


class TestProtocolAliases:
    def test_cv10_forces_ten_folds(self, tmp_path):
        data = synth_csv(tmp_path, n=300, seed=33)
        out = tmp_path / "cv.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv10",
                "--classifiers", "lda", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        folds = [l for l in lines if l.startswith("lda,") and l.split(",")[1].isdigit()]
        assert len(folds) == 10

    def test_cv10_with_folds_is_usage_error(self, tmp_path, capsys):
        data = synth_csv(tmp_path, n=300, seed=33)
        out = tmp_path / "cv.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv10",
                "--classifiers", "lda", "--folds", "4", "--seed", "1", "--out", str(out),
            ]
        )
        assert rc == 64
        assert "--folds" in capsys.readouterr().err
        assert not out.exists()


class TestOosExternalPredictions:
    def test_external_rows_join_dr_table(self, tmp_path):
        train = synth_csv(tmp_path, "train.csv", n=200, seed=34)
        oos = synth_csv(tmp_path, "oos.csv", n=300, seed=35)
        oos_ds = Dataset.load_csv(oos)
        total = oos_ds.n + oos_ds.m
        ext = tmp_path / "external.csv"
        with open(ext, "w") as fh:
            fh.write("sample_id,predicted_label\n")
            for i in range(total):
                fh.write(f"{i},2\n")  # flags everything malicious
        out = tmp_path / "dr.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(train), "--protocol", "oos",
                "--oos-data", str(oos), "--classifiers", "lda",
                "--external-predictions", str(ext),
                "--fractions", "50,100", "--replicates", "2,1",
                "--seed", "6", "--out", str(out), "--pca-out", str(tmp_path / "pca.csv"),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        ext_rows = [l for l in lines if l.startswith("external,")]
        assert len(ext_rows) == 2
        assert all(float(l.split(",")[4]) == 1.0 for l in ext_rows)
        pca_lines = (tmp_path / "pca.csv").read_text().strip().splitlines()
        assert pca_lines[0].endswith("cohort")
        assert sum(l.endswith("oos") for l in pca_lines) == total

    def test_duplicate_rows_keep_their_own_predictions(self, tmp_path):
        train = synth_csv(tmp_path, "train.csv", n=200, seed=36)
        oos = tmp_path / "oos.csv"
        row = np.array([[0.5, 0.5, 0.5]])
        Dataset(np.empty((0, 3)), [], np.vstack([row, row]), synth.feature_names(3), 2).save_csv(oos)
        ext = tmp_path / "external.csv"
        ext.write_text("sample_id,predicted_label\n0,2\n1,1\n")
        out = tmp_path / "dr.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(train), "--protocol", "oos",
                "--oos-data", str(oos), "--classifiers", "lda",
                "--external-predictions", str(ext),
                "--fractions", "100", "--replicates", "1", "--seed", "6", "--out", str(out),
            ]
        )
        assert rc == 0
        ext_rows = [l for l in out.read_text().splitlines() if l.startswith("external,")]
        assert float(ext_rows[0].split(",")[4]) == 0.5

    def test_oos_data_without_rows_is_data_error(self, tmp_path, capsys):
        train = synth_csv(tmp_path, "train.csv", n=200, seed=36)
        oos = tmp_path / "oos.csv"
        oos.write_text(train.read_text().splitlines()[0] + "\n")
        out = tmp_path / "dr.csv"
        rc = cli.main(
            [
                "evaluate", "--data", str(train), "--protocol", "oos", "--oos-data", str(oos),
                "--classifiers", "lda", "--seed", "6", "--out", str(out),
            ]
        )
        assert rc == 65
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(oos) in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_repeated_sample_id_is_data_error(self, tmp_path, capsys):
        data = synth_csv(tmp_path, n=120, seed=20)
        n = Dataset.load_csv(data).n
        ext = tmp_path / "external.csv"
        ext.write_text("sample_id,predicted_label\n" + "".join(f"{i},1\n" for i in range(n)) + "0,2\n")
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv", "--classifiers", "lda",
                "--external-predictions", str(ext), "--seed", "2",
                "--out", str(tmp_path / "cv.csv"),
            ]
        )
        assert rc == 65
        assert f"external.csv:{n + 2}: sample_id 0 given twice" in capsys.readouterr().err

    @pytest.mark.parametrize("scores", [("0.9", ""), ("0.9", "nan"), ("0.9", "inf")])
    def test_scores_on_some_rows_only_is_data_error(self, tmp_path, capsys, scores):
        data = synth_csv(tmp_path, n=120, seed=20)
        n = Dataset.load_csv(data).n
        ext = tmp_path / "external.csv"
        cells = [scores[0]] * (n - 1) + [scores[1]]
        ext.write_text("".join(f"{i},1,{c}\n" for i, c in enumerate(cells)))
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv", "--classifiers", "lda",
                "--external-predictions", str(ext), "--seed", "2",
                "--out", str(tmp_path / "cv.csv"),
            ]
        )
        assert rc == 65
        assert "score" in capsys.readouterr().err

    def test_nan_score_on_every_row_is_data_error(self, tmp_path, capsys):
        data = synth_csv(tmp_path, n=120, seed=20)
        n = Dataset.load_csv(data).n
        ext = tmp_path / "external.csv"
        ext.write_text("".join(f"{i},1,nan\n" for i in range(n)))
        rc = cli.main(
            [
                "evaluate", "--data", str(data), "--protocol", "cv", "--classifiers", "lda",
                "--external-predictions", str(ext), "--seed", "2",
                "--out", str(tmp_path / "cv.csv"),
            ]
        )
        assert rc == 65
        assert f"0 of {n} rows have a finite score" in capsys.readouterr().err
