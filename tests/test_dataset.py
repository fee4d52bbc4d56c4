from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from mbss.dataset import (
    ApiVocabulary,
    Dataset,
    build_vocabulary,
    parse_log,
    stratified_folds,
)
from mbss.errors import DataFormatError

BUNDLED_VOCAB = Path(__file__).parent.parent / "src" / "mbss" / "data" / "default_api_vocabulary.txt"

TWO_API_VOCAB = ApiVocabulary(
    (
        "android.telephony.TelephonyManager.getDeviceId",
        "java.net.URL.openConnection",
    )
)


class TestApiEvent:
    """One API event record: the first token of a log line."""

    def test_identity_joins_class_and_method(self):
        vocab = ApiVocabulary(
            (
                "android.telephony.TelephonyManager",
                "getDeviceId",
                "android.telephony.TelephonyManager.getDeviceId",
            )
        )
        result = parse_log(["android.telephony.TelephonyManager.getDeviceId 5"], vocab)
        assert result.bits.tolist() == [0.0, 0.0, 1.0]

    def test_from_line_splits_on_last_dot(self):
        vocab = ApiVocabulary(("android.os.PowerManager$WakeLock.acquire", "a.b"))
        result = parse_log(["android.os.PowerManager$WakeLock.acquire 1622000001\n"], vocab)
        assert result.bits.tolist() == [1.0, 0.0]
        assert (result.n_parsed, result.n_skipped) == (1, 0)


class TestParseLog:
    def test_presence_discards_multiplicity(self):
        log = [
            "android.telephony.TelephonyManager.getDeviceId 100",
            "android.telephony.TelephonyManager.getDeviceId 101",
        ]
        result = parse_log(log, TWO_API_VOCAB)
        assert result.bits.tolist() == [1.0, 0.0]
        assert result.n_parsed == 2

    def test_empty_log_is_an_error(self):
        with pytest.raises(DataFormatError):
            parse_log([], TWO_API_VOCAB)
        with pytest.raises(DataFormatError):
            parse_log(["", "   ", "\n"], TWO_API_VOCAB)

    def test_order_invariance(self):
        lines = [
            "java.net.URL.openConnection",
            "android.telephony.TelephonyManager.getDeviceId",
        ]
        forward = parse_log(lines, TWO_API_VOCAB).bits
        backward = parse_log(lines[::-1], TWO_API_VOCAB).bits
        assert forward.tolist() == [1.0, 1.0]
        assert np.array_equal(forward, backward)

    def test_unknown_apis_ignored_and_malformed_counted(self):
        lines = [
            "com.example.Other.call 1",
            "garbage-line-without-separator",
            "java.net.URL.openConnection 2 extra fields here",
        ]
        result = parse_log(lines, TWO_API_VOCAB)
        assert result.bits.tolist() == [0.0, 1.0]
        assert result.n_parsed == 2
        assert result.n_skipped == 1

    @pytest.mark.parametrize("line", ["", "   "])
    def test_blank_lines_are_neither_parsed_nor_skipped(self, line):
        result = parse_log([line, "a.b"], ApiVocabulary(("a.b",)))
        assert (result.n_parsed, result.n_skipped) == (1, 0)

    @pytest.mark.parametrize("line", ["nodotstring", ".leading", "trailing."])
    def test_malformed_lines(self, line):
        result = parse_log([line, "a.b"], ApiVocabulary(("a.b", line)))
        assert result.bits.tolist() == [1.0, 0.0]
        assert (result.n_parsed, result.n_skipped) == (1, 1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_permutation_never_changes_vector(self, seed):
        rng = np.random.default_rng(seed)
        pool = list(TWO_API_VOCAB.entries) + ["a.b", "c.d", "x.y.z"]
        lines = [pool[i] for i in rng.integers(0, len(pool), size=12)]
        base = parse_log(lines, TWO_API_VOCAB).bits
        shuffled = [lines[i] for i in rng.permutation(12)]
        assert np.array_equal(base, parse_log(shuffled, TWO_API_VOCAB).bits)


class TestBuildVocabulary:
    def test_bundled_default_has_160_entries(self):
        vocab = build_vocabulary(BUNDLED_VOCAB)
        assert vocab.d == 160

    def test_dedup_keeps_first_occurrence(self, tmp_path):
        path = tmp_path / "apis.txt"
        path.write_text("a.one\nb.two\na.one\n")
        vocab = build_vocabulary(path)
        assert vocab.entries == ("a.one", "b.two")
        assert vocab.d == 2

    def test_empty_file_is_an_error(self, tmp_path):
        path = tmp_path / "apis.txt"
        path.write_text("# only a comment\n\n")
        with pytest.raises(DataFormatError):
            build_vocabulary(path)

    def test_round_trip(self, tmp_path):
        vocab = build_vocabulary(BUNDLED_VOCAB)
        out = tmp_path / "copy.txt"
        vocab.save(out)
        assert build_vocabulary(out).entries == vocab.entries


class TestStratifiedFolds:
    def setup_method(self):
        rng = np.random.default_rng(99)
        X = rng.standard_normal((100, 3))
        labels = np.array([2] * 57 + [1] * 43)
        self.ds = make_dataset(X, rng.permutation(labels), np.empty((0, 3)))

    def test_57_43_split_balances_folds(self):
        folds = stratified_folds(self.ds, 10, seed=3)
        for train, test in folds:
            assert len(test) == 10
            malicious = int(np.sum(self.ds.labels[test] == 2))
            assert malicious in (5, 6)
            assert len(train) == 90
        all_test = np.concatenate([test for _, test in folds])
        assert np.array_equal(np.sort(all_test), np.arange(100))

    def test_deterministic_given_seed(self):
        a = stratified_folds(self.ds, 10, seed=5)
        b = stratified_folds(self.ds, 10, seed=5)
        for (tr1, te1), (tr2, te2) in zip(a, b):
            assert np.array_equal(tr1, tr2)
            assert np.array_equal(te1, te2)

    def test_single_fold_rejected(self):
        with pytest.raises(ValueError):
            stratified_folds(self.ds, 1, seed=0)

    def test_folds_exceeding_smallest_class_rejected(self):
        ds = make_dataset(np.zeros((5, 2)), [1, 1, 1, 2, 2], np.empty((0, 2)))
        with pytest.raises(ValueError):
            stratified_folds(ds, 3, seed=0)

    def test_class_proportions_within_one_sample(self):
        folds = stratified_folds(self.ds, 7, seed=11)
        for _, test in folds:
            for k, share in ((1, 0.43), (2, 0.57)):
                got = int(np.sum(self.ds.labels[test] == k))
                assert abs(got - share * len(test)) <= 1.0


class TestDatasetCsv:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        ds = make_dataset(
            rng.integers(0, 2, (6, 4)).astype(float),
            [1, 1, 2, 2, 1, 2],
            rng.integers(0, 2, (3, 4)).astype(float),
        )
        path = tmp_path / "data.csv"
        ds.save_csv(path)
        text = path.read_text()
        assert ",label" in text.splitlines()[0]
        assert "0.0" not in text  # binary data stays 0/1
        loaded = Dataset.load_csv(path)
        assert np.array_equal(loaded.labeled_features, ds.labeled_features)
        assert np.array_equal(loaded.unlabeled_features, ds.unlabeled_features)
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.vocabulary.entries == ds.vocabulary.entries
        assert loaded.K == ds.K

    def test_float_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng.standard_normal((5, 3)), [1, 2, 1, 2, 1], rng.standard_normal((2, 3)))
        path = tmp_path / "data.csv"
        ds.save_csv(path)
        loaded = Dataset.load_csv(path)
        assert np.array_equal(loaded.labeled_features, ds.labeled_features)
        assert np.array_equal(loaded.unlabeled_features, ds.unlabeled_features)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng.standard_normal((4, 2)), [1, 2, 2, 1], rng.standard_normal((2, 2)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        ds.save_csv(p1)
        Dataset.load_csv(p1).save_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_csv_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,wrongheader\n0,1,1\n")
        with pytest.raises(DataFormatError):
            Dataset.load_csv(path)
        path.write_text("f0,f1,label\n0,1\n")
        with pytest.raises(DataFormatError):
            Dataset.load_csv(path)
        path.write_text("f0,f1,label\n0,notanumber,1\n")
        with pytest.raises(DataFormatError):
            Dataset.load_csv(path)

    def test_all_unlabeled_loads_with_empty_labeled_block(self, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("f0,f1,label\n0,1,\n1,1,\n")
        ds = Dataset.load_csv(path)
        assert ds.n == 0
        assert ds.m == 2


class TestDatasetValidation:
    def test_labels_outside_range_rejected(self):
        with pytest.raises(ValueError):
            make_dataset([[0.0, 1.0]], [3], np.empty((0, 2)), K=2)
        with pytest.raises(ValueError):
            make_dataset([[0.0, 1.0]], [0], np.empty((0, 2)), K=2)

    def test_dimension_mismatch_rejected(self):
        vocab = ApiVocabulary(("a.x", "b.y"))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), [1, 2], np.empty((0, 3)), vocab, 2)

    def test_arrays_are_immutable(self):
        ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [1, 2], np.empty((0, 2)))
        with pytest.raises(ValueError):
            ds.labeled_features[0, 0] = 5.0

    def test_require_class_members(self):
        ds = make_dataset([[0.0, 1.0], [1.0, 0.0]], [1, 1], np.empty((0, 2)), K=2)
        with pytest.raises(ValueError):
            ds.require_class_members(1)
