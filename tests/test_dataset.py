import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_dataset
from mbss import dataset
from mbss.dataset import (
    ApiVocabulary,
    Dataset,
    build_vocabulary,
    parse_log,
    stratified_folds,
)
from mbss.errors import DataFormatError
from oracles import direct_parse_log, savetxt_csv

BUNDLED_VOCAB = Path(__file__).parent.parent / "src" / "mbss" / "data" / "default_api_vocabulary.txt"

TWO_API_VOCAB = ApiVocabulary(
    (
        "android.telephony.TelephonyManager.getDeviceId",
        "java.net.URL.openConnection",
    )
)


# Log tokens: identities of the two vocabularies below, identities of
# neither, and malformed records.
RECORDS = ("a.b", "com.x.Y.m", "p.q$R.s", "c.d", "a.b.c", "x.y")
MALFORMED = (".", "a.", ".b", "x")
# Characters str.split() takes as whitespace, of which universal newlines
# break a line at none.
SEPARATORS = (" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\u2028", "\u3000")

_space = st.lists(st.sampled_from(SEPARATORS), max_size=3).map("".join)
_token = st.sampled_from(RECORDS + MALFORMED)
_rest = st.one_of(st.just(""), st.tuples(_space.filter(bool), _token | st.just("7")).map("".join))
_record_line = st.tuples(_space, _token, _rest).map("".join)
_log = st.lists(st.one_of(_space, _record_line), max_size=12)


def _outcome(parse, lines, vocabulary):
    try:
        result = parse(lines, vocabulary)
    except DataFormatError:
        return None
    return result.bits.tolist(), result.n_parsed, result.n_skipped


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

    @settings(max_examples=100, deadline=None)
    @given(logs=st.lists(_log, min_size=1, max_size=5))
    def test_matches_the_per_line_loop(self, logs):
        # One token under two vocabularies: "a.b" sits at 0 in the first and
        # at 2 in the second, "c.d" is only in the second, "x" is malformed
        # in either. Each vocabulary caches tokens across the logs.
        first = ApiVocabulary(("a.b", "com.x.Y.m", "p.q$R.s"))
        second = ApiVocabulary(("c.d", "x", "a.b"))
        for vocabulary in (first, second, first):
            for lines in logs:
                expected = _outcome(direct_parse_log, lines, vocabulary)
                assert _outcome(parse_log, lines, vocabulary) == expected


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

    @pytest.mark.parametrize(
        "labeled, labels, unlabeled, expected",
        [
            (
                [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0]], [2, 1], [[1.0, 1.0, 0.0]],
                b"a.b,c.d,e.f,label\n0,1,1,2\n1,0,0,1\n1,1,0,\n",
            ),
            (
                [[0.1, -0.0, 1e16], [5e-324, 1e-4, 2.5]], [1, 3], [[-1.0, 1 / 3, 123456789.123]],
                b"a.b,c.d,e.f,label\n0.1,-0.0,1e+16,1\n5e-324,0.0001,2.5,3\n"
                b"-1.0,0.3333333333333333,123456789.123,\n",
            ),
            (
                [[0.0, -0.0, 0.5]], [1], [[-0.0, 0.0, 0.5]],
                b"a.b,c.d,e.f,label\n0.0,-0.0,0.5,1\n-0.0,0.0,0.5,\n",
            ),
        ],
        ids=["binary", "float", "signed_zeros"],
    )
    def test_saves_exact_bytes(self, tmp_path, labeled, labels, unlabeled, expected):
        vocab = ApiVocabulary(("a.b", "c.d", "e.f"))
        Dataset(labeled, labels, unlabeled, vocab, max(labels)).save_csv(tmp_path / "d.csv")
        assert (tmp_path / "d.csv").read_bytes() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 4),
        cells=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=24, max_size=24),
        n=st.integers(0, 3),
        m=st.integers(0, 3),
    )
    def test_float_cells_save_as_repr_and_round_trip(self, tmp_path_factory, d, cells, n, m):
        X = np.array(cells[: (n + m) * d]).reshape(n + m, d)
        ds = make_dataset(X[:n].reshape(n, d), [1] * n, X[n:], K=1)
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        ds.save_csv(path)
        binary = bool(np.all((X == 0.0) | (X == 1.0)))
        cell = (lambda v: str(int(v))) if binary else (lambda v: repr(float(v)))
        rows = [[cell(v) for v in row] for row in X]
        expected = [",".join(ds.vocabulary.entries + ("label",))]
        expected += [",".join(row + ["1" if i < n else ""]) for i, row in enumerate(rows)]
        assert path.read_text() == "".join(line + "\n" for line in expected)
        again = path.with_name("again.csv")
        Dataset.load_csv(path).save_csv(again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 4),
        block=st.integers(1, 12),
        n_size=st.sampled_from(("0", "1", "B-1", "B", "B+1")),
        m_size=st.sampled_from(("0", "1", "B-1", "B", "B+1")),
        binary=st.booleans(),
        data=st.data(),
    )
    def test_writes_the_savetxt_bytes(self, tmp_path_factory, d, block, n_size, m_size, binary, data):
        rows = max(1, block // d)  # B, the rows of one block of CSV_BLOCK cells
        size = {"0": 0, "1": 1, "B-1": rows - 1, "B": rows, "B+1": rows + 1}
        n, m = size[n_size], size[m_size]
        pool = [0.0, -0.0, 1.0] if binary else [
            0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e300, -1e300, 1e-300,
            0.1, 1 / 3, 1e16, 123456789.123, -2.5,
        ]
        cell = st.sampled_from(pool) if binary else st.one_of(
            st.sampled_from(pool), st.floats(allow_nan=False, allow_infinity=False)
        )
        X = np.array(data.draw(st.lists(cell, min_size=(n + m) * d, max_size=(n + m) * d)))
        labels = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        vocab = ApiVocabulary(tuple(f"c{j}.m" for j in range(d)))
        ds = Dataset(X[: n * d].reshape(n, d), labels, X[n * d:].reshape(m, d), vocab, 3)
        folder = tmp_path_factory.mktemp("csv")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "CSV_BLOCK", block)
            ds.save_csv(folder / "blocks.csv")
        savetxt_csv(ds, folder / "savetxt.csv")
        assert (folder / "blocks.csv").read_bytes() == (folder / "savetxt.csv").read_bytes()

    @pytest.mark.parametrize(
        "body",
        [
            "0,1,0\n", "0,1,-1\n", "0,1,1.5\n", "0,1,x\n",  # label cells
            "0,1#,1\n", "0,,1\n",  # feature cells
            "0,1,1#\n", "0,1,1\n#0,1,\n",  # "#" starts no comment
            "0,nan,1\n", "inf,0,\n", "0,-inf,2\n",  # non-finite features
            "0,1\n", "0,1,1,1\n", "0,1,1\n0,1\n", "0,1,1\n0,1,1,1\n",  # row widths
        ],
    )
    def test_bad_body_is_data_error(self, tmp_path, body):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1,label\n" + body)
        with pytest.raises(DataFormatError, match="bad.csv"):
            Dataset.load_csv(path)

    @pytest.mark.parametrize(
        "body, label",
        [
            ("0,1,2\n", "2"), ("0,1,1\n1,1,3\n0,0,\n", "3"),
            ("0,1,1000000000000\n", "1000000000000"),
            ("0,1,1\n1,1,-100000000000000000000000\n", "-99999999999999991611392"),
        ],
    )
    def test_label_outside_one_to_the_labeled_row_count_is_data_error(self, tmp_path, body, label):
        path = tmp_path / "big.csv"
        path.write_text("f0,f1,label\n" + body)
        with pytest.raises(DataFormatError, match=f"big.csv: label {label} is outside 1.."):
            Dataset.load_csv(path)

    @pytest.mark.parametrize(
        "header, message",
        [("a.b,a.b,label", "must be unique"), ("label", "must not be empty")],
    )
    def test_repeated_or_missing_header_identity_is_data_error(self, tmp_path, header, message):
        path = tmp_path / "head.csv"
        path.write_text(header + "\n")
        with pytest.raises(DataFormatError, match=f"head.csv: header: .*{message}"):
            Dataset.load_csv(path)

    def test_quoted_header_identity_round_trips(self, tmp_path):
        vocab = ApiVocabulary(("a.b(int,int)", 'q"x.y', "c.d"))
        ds = Dataset([[0.0, 1.0, 0.5]], [1], np.empty((0, 3)), vocab, 1)
        path = tmp_path / "q.csv"
        ds.save_csv(path)
        assert path.read_text().splitlines()[0] == '"a.b(int,int)","q""x.y",c.d,label'
        assert Dataset.load_csv(path).vocabulary == vocab

    def test_crlf_file_with_quoted_cells_loads(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(b'f0,f1,label\r\n0,1,"2"\r\n1,1,1\r\n"0.5",0,""\r\n')
        ds = Dataset.load_csv(path)
        assert ds.labeled_features.tolist() == [[0.0, 1.0], [1.0, 1.0]]
        assert ds.labels.tolist() == [2, 1]
        assert ds.unlabeled_features.tolist() == [[0.5, 0.0]]

    @pytest.mark.parametrize(
        "body, n, m", [("", 0, 0), ("\n\n", 0, 0), ("0,1,\n1,1,\n", 0, 2)]
    )
    def test_no_rows_or_no_labels_load_without_warning(self, tmp_path, body, n, m):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n" + body)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = Dataset.load_csv(path)
        assert (ds.n, ds.m, ds.K, ds.d) == (n, m, 1, 2)

    def test_empty_body_lines_are_skipped(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f0,f1,label\n\n0,1,2\n\n1,1,1\n\n1,0,\n\n")
        ds = Dataset.load_csv(path)
        assert ds.labeled_features.tolist() == [[0.0, 1.0], [1.0, 1.0]]
        assert ds.labels.tolist() == [2, 1]
        assert ds.unlabeled_features.tolist() == [[1.0, 0.0]]


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
