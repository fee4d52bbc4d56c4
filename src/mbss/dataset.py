"""Trace-log parsing, API vocabularies, binary feature vectors and splits.

A trace log is a text file with one API invocation per line. The canonical
identity of an invocation is ``ClassName.methodName``; anything after the
first whitespace (timestamps, arguments) is ignored. A sample is encoded as
a presence vector over a fixed, ordered API vocabulary: multiplicity and
ordering of calls are discarded.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataFormatError


@dataclass(frozen=True)
class ApiVocabulary:
    """Ordered, deduplicated list of canonical API identities."""

    entries: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("vocabulary must not be empty")
        if len(set(self.entries)) != len(self.entries):
            raise ValueError("vocabulary entries must be unique")

    @property
    def d(self) -> int:
        return len(self.entries)

    @cached_property
    def index(self) -> dict[str, int]:
        return {entry: i for i, entry in enumerate(self.entries)}

    @cached_property
    def token_codes(self) -> "_TokenCodes":
        """``parse_log``'s cache of the log tokens it has classified."""
        return _TokenCodes(self.index)

    @classmethod
    def from_file(cls, path) -> "ApiVocabulary":
        """One identity per line, first occurrences kept; blank and ``#`` lines skipped."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                entries = dict.fromkeys(e for e in map(str.strip, fh) if e and e[0] != "#")
        except (OSError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"cannot read vocabulary {path}: {exc}") from exc
        if not entries:
            raise DataFormatError("vocabulary source contains no entries")
        return cls(tuple(entries))


TOKEN_CODES_LIMIT = 1 << 16


class _TokenCodes(dict):
    """Log tokens, each classified on first lookup: its position among the d
    vocabulary entries, d for another record (a non-empty class path, a dot and
    a non-empty method name) or d + 1 for a malformed token; cleared when full."""

    def __init__(self, index: dict[str, int]) -> None:
        super().__init__()
        self.index, self.d = index, len(index)

    def __missing__(self, token: str) -> int:
        if len(self) >= TOKEN_CODES_LIMIT:
            self.clear()
        class_path, _, method = token.rpartition(".")
        code = self[token] = self.index.get(token, self.d) if class_path and method else self.d + 1
        return code


def build_vocabulary(api_list_file) -> ApiVocabulary:
    """Read a one-identity-per-line file into a vocabulary."""
    return ApiVocabulary.from_file(api_list_file)


@dataclass(frozen=True)
class ParseResult:
    """One trace's ``bool`` presence vector plus line accounting for reports."""

    bits: np.ndarray
    n_parsed: int
    n_skipped: int


def parse_log(lines, vocabulary: ApiVocabulary) -> ParseResult:
    """Vectorize one trace log into a ``bool`` presence vector.

    ``bits[i]`` is True iff vocabulary entry i occurs at least once anywhere in
    the log. Non-blank lines that do not parse as ``Class.method`` records
    are skipped and counted; blank lines are ignored. Raises
    DataFormatError when zero lines parse. A line costs a split and a lookup
    in ``vocabulary.token_codes``, which caches each distinct token's class.
    """
    cache, d = vocabulary.token_codes, vocabulary.d
    codes = [cache[fields[0]] for line in lines if (fields := line.split(None, 1))]
    n_skipped = codes.count(d + 1)
    if n_skipped == len(codes):
        raise DataFormatError("no parseable API records in log")
    bits = np.zeros(d + 2, dtype=bool)  # the last two slots take the codes of non-entries
    bits[codes] = True
    return ParseResult(bits[:d], len(codes) - n_skipped, n_skipped)


# Cells per block of rows that ``Dataset.save_csv`` writes, ``Dataset.load_csv``
# builds and ``is_binary`` checks at once.
CSV_BLOCK = 1 << 14

NEWLINE, COMMA, ZERO = b"\n"[0], b","[0], b"0"[0]
ONE_BITS = np.float64(1.0).view(np.uint64)
# A cell byte and the comma after it, read as one little-endian uint16, with bit 0 set.
CELL_AND_COMMA = int.from_bytes(b"1,", "little")
# Label cells longer than this are read as text; no int64 sum of their digits overflows.
MAX_LABEL_DIGITS = 18


def _float_block(rows, d: int) -> np.ndarray:
    """A float64 copy of ``rows`` with at least two dimensions; no rows give 0 x d."""
    a = np.array(rows, dtype=np.float64, ndmin=2)
    if a.size == 0:
        a = np.empty((0, d))
    return a


def is_binary(X: np.ndarray) -> bool:
    """X is float64 and every cell is +0.0 or 1.0 by bit pattern, so -0.0 is not binary.

    The cells are checked ``CSV_BLOCK`` at a time, in blocks of whole rows,
    up to the first block holding a cell that is neither.
    """
    if X.dtype != np.float64:
        return False
    bits = X.view(np.uint64)
    step = max(1, CSV_BLOCK // max(1, X.shape[-1]))
    return all(
        np.all((block == 0) | (block == ONE_BITS))
        for block in (bits[start:start + step] for start in range(0, len(bits), step))
    )


def _binary_lines(X: np.ndarray, labels) -> bytes:
    """0/1 rows as ``c,c,...,c,label`` lines, each label the next of ``labels``."""
    n, d = X.shape
    text = np.full((n, 2 * d - 1), COMMA, dtype=np.uint8)
    np.add(X, ZERO, out=text[:, ::2], casting="unsafe")
    # A label of None, an unlabeled row's, leaves its cell empty.
    tails = (b",\n" if label is None else b",%d\n" % label for label in labels)
    return b"".join(map(bytes.__add__, text.view(f"S{2 * d - 1}").ravel().tolist(), tails))


def _binary_rows(body: np.ndarray, d: int):
    """Features and label cells (NaN when empty) of a 0/1 body, or None.

    ``body`` is the bytes after the header line. It is a 0/1 body when every
    line is d cells of one byte ``0`` or ``1``, each followed by a comma, then
    a label of up to ``MAX_LABEL_DIGITS`` digits without a leading zero or no
    label, then a newline. Newlines are found ``2 * CSV_BLOCK`` bytes at a
    time, and rows are built ``CSV_BLOCK`` cells at a time from a window of
    2d bytes at each line start, so the only arrays beyond the body and the
    features are a few numbers per row. (A body-sized temporary left heap
    holes that a later N x d array did not fit: a first ``classify`` then
    peaked 2-3 MB higher in RSS.)
    """
    if body.size == 0:
        return np.empty((0, d)), np.empty(0)
    if body[-1] != NEWLINE:
        return None
    chunk = 2 * CSV_BLOCK
    ends = np.concatenate(
        [np.flatnonzero(body[i:i + chunk] == NEWLINE) + i for i in range(0, body.size, chunk)]
    )
    starts = np.concatenate(([0], ends[:-1] + 1))
    digits = ends - starts - 2 * d
    if digits.min() < 0 or digits.max() > MAX_LABEL_DIGITS:
        return None
    features = np.empty((ends.size, d))
    cells = np.lib.stride_tricks.sliding_window_view(body, 2 * d)
    step = max(1, CSV_BLOCK // d)
    for i in range(0, ends.size, step):
        pairs = cells[starts[i:i + step]].view("<u2")
        if not np.all((pairs | 1) == CELL_AND_COMMA):
            return None
        np.bitwise_and(pairs, 1, out=features[i:i + step], casting="unsafe")
    label_cells = np.full(ends.size, np.nan)
    for width in range(1, int(digits.max()) + 1):
        rows = np.flatnonzero(digits == width)
        text = np.lib.stride_tricks.sliding_window_view(body, width)[starts[rows] + 2 * d] - ZERO
        if np.any(text > 9) or not np.all(text[:, 0]):
            return None
        label_cells[rows] = text @ 10 ** np.arange(width - 1, -1, -1)
    return features, label_cells


def _vocabulary(path, header) -> ApiVocabulary:
    if header is None:
        raise DataFormatError(f"{path}: empty file")
    if not header or header[-1] != "label":
        raise DataFormatError(f"{path}: last header column must be 'label'")
    try:
        return ApiVocabulary(tuple(header[:-1]))
    except ValueError as exc:
        raise DataFormatError(f"{path}: header: {exc}") from exc


def _text_rows(path):
    """Vocabulary, features and label cells (NaN when empty) of any dataset CSV, via loadtxt."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        vocabulary = _vocabulary(path, next(csv.reader(fh), None))
        width = vocabulary.d + 1
        # loadtxt warns on a body without rows, so it starts at the
        # first non-empty line; it reads the file's lines, not a copy.
        first = next((line for line in fh if line.strip("\r\n")), None)
        try:
            rows = np.loadtxt(
                itertools.chain([first], fh), delimiter=",", quotechar='"',
                comments=None, ndmin=2,
                # numpy < 2 passes a converter bytes, numpy 2 str; int() takes both.
                converters={width - 1: lambda cell: int(cell) if cell else np.nan},
            ) if first else np.empty((0, width))
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc
    if rows.shape[1] != width:
        raise DataFormatError(f"{path}: expected {width} cells per row, got {rows.shape[1]}")
    features = rows[:, :-1]
    if not np.isfinite(features).all():
        raise DataFormatError(f"{path}: feature cells must be finite numbers")
    return vocabulary, features, rows[:, -1]


def write_csv(path, header, rows) -> None:
    """Write ``header``, then ``rows``, as UTF-8 CSV lines that end in ``\\n``.

    Every table mbss writes has this format. Cells are as ``csv.writer``
    writes them: ``None`` is an empty cell, a float is its shortest
    round-trip ``repr``, and a cell that holds a comma, a quote or a line
    break is quoted.
    Callers pass Python scalars (``tolist()``, ``int()``, ``float()``), so
    the text never depends on how a numpy version prints its own scalars.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


@dataclass(frozen=True)
class Dataset:
    """Labeled block (features + class labels in 1..K) plus unlabeled block.

    Instances are immutable after construction; the arrays are stored
    read-only so they can be shared across threads. Class presence (every
    class in 1..K having labeled members) is enforced where estimation
    actually needs it, not at construction, so degenerate containers such as
    all-unlabeled feature sets remain representable.
    """

    labeled_features: np.ndarray
    labels: np.ndarray
    unlabeled_features: np.ndarray
    vocabulary: ApiVocabulary
    K: int

    def __post_init__(self) -> None:
        d = self.vocabulary.d
        lf, uf = _float_block(self.labeled_features, d), _float_block(self.unlabeled_features, d)
        self._hold(lf, self.labels, uf)

    @classmethod
    def _of_blocks(cls, labeled_features, labels, unlabeled_features, vocabulary, K) -> "Dataset":
        """A Dataset that holds two float64 feature blocks as they are, without copying them."""
        dataset = object.__new__(cls)
        object.__setattr__(dataset, "vocabulary", vocabulary)
        object.__setattr__(dataset, "K", K)
        dataset._hold(labeled_features, labels, unlabeled_features)
        return dataset

    def _hold(self, lf: np.ndarray, labels, uf: np.ndarray) -> None:
        """Check the blocks against the vocabulary and K, and store them read-only."""
        d = self.vocabulary.d
        labels = np.array(labels, dtype=np.int64, copy=True).reshape(-1)
        if lf.shape[1] != d or uf.shape[1] != d:
            raise ValueError(
                f"feature rows must match vocabulary dimension {d} "
                f"(got {lf.shape[1]} labeled / {uf.shape[1]} unlabeled)"
            )
        if labels.shape[0] != lf.shape[0]:
            raise ValueError("one label per labeled feature row required")
        if self.K < 1:
            raise ValueError("K must be a positive integer")
        if labels.size and (labels.min() < 1 or labels.max() > self.K):
            raise ValueError(f"labels must lie in 1..{self.K}")
        for name, a in (("labeled_features", lf), ("labels", labels), ("unlabeled_features", uf)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.labeled_features.shape[0]

    @property
    def m(self) -> int:
        return self.unlabeled_features.shape[0]

    @property
    def d(self) -> int:
        return self.vocabulary.d

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.K + 1)[1:]

    def save_csv(self, path) -> None:
        """Write header (API identities + 'label') and one row per sample.

        Labeled rows come first with their class index; unlabeled rows have
        an empty label cell. A matrix whose every cell is +0.0 or 1.0 (by
        bit pattern, so -0.0 is not) is written as 0/1 bytes, a whole
        ``CSV_BLOCK`` of cells at a time, with no per-cell Python. Anything
        else goes through ``write_csv`` as shortest round-trip float text,
        from the ``tolist()`` of one ``CSV_BLOCK`` of cells at a time.
        """
        header = [*self.vocabulary.entries, "label"]
        step = max(1, CSV_BLOCK // self.d)
        # Blocks of rows, each with the iterator of its rows' labels: None for an unlabeled row.
        labeled = (self.labeled_features, iter(self.labels.tolist()))
        unlabeled = (self.unlabeled_features, itertools.repeat(None))
        blocks = [(X[i:i + step], labels) for X, labels in (labeled, unlabeled)
                  for i in range(0, len(X), step)]
        if not (is_binary(self.labeled_features) and is_binary(self.unlabeled_features)):
            write_csv(path, header, (
                row + [label] for X, labels in blocks for row, label in zip(X.tolist(), labels)
            ))
            return
        write_csv(path, header, ())
        with open(path, "ab") as fh:
            for X, labels in blocks:
                fh.write(_binary_lines(X, labels))

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        """Read a dataset CSV; K is the largest label.

        A file as ``save_csv`` writes a 0/1 matrix (a header line without
        quotes or carriage returns, then body lines as ``_binary_rows``
        reads them) is parsed from its bytes into one float64 array. When
        its labeled rows come first, as ``save_csv`` writes them, the two
        feature blocks are read-only slices of that array. Any other file
        goes through ``np.loadtxt``: cells may be CSV-quoted, so an API
        identity may hold a comma; a body row is one finite number per
        identity and an integer or empty (unlabeled) label cell; empty
        lines are skipped. Either way labels lie in 1 to the number of
        labeled rows, and a file that is not UTF-8 is a DataFormatError.
        """
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            header = data[:data.find(b"\n") + 1]
            rows = None
            if header and b'"' not in header and b"\r" not in header:
                vocabulary = _vocabulary(path, next(csv.reader([header.decode("utf-8")])))
                rows = _binary_rows(np.frombuffer(data, np.uint8, offset=len(header)), vocabulary.d)
            del data
            if rows is None:
                vocabulary, features, label_cells = _text_rows(path)
            else:
                features, label_cells = rows
        except (OSError, UnicodeDecodeError) as exc:
            raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
        labeled = ~np.isnan(label_cells)
        labels = label_cells[labeled]
        # Labels lie in 1..n for n labeled rows: a larger one names a class without rows.
        outside = labels[(labels < 1) | (labels > labels.size)]
        if outside.size:
            raise DataFormatError(
                f"{path}: label {outside[0]:.0f} is outside 1..{labels.size} (labeled rows)"
            )
        labels, n = labels.astype(np.int64), labels.size
        if labeled[:n].all() and features.flags.c_contiguous:
            features.flags.writeable = False
            blocks = features[:n], features[n:]
        else:
            blocks = features[labeled], features[~labeled]
        try:
            K = int(labels.max(initial=1))
            return cls._of_blocks(blocks[0], labels, blocks[1], vocabulary, K)
        except ValueError as exc:
            raise DataFormatError(f"{path}: {exc}") from exc


def stratified_folds(dataset: Dataset, folds: int, seed: int):
    """Deterministic stratified fold index sets over the labeled block.

    Returns a list of ``(train_indices, test_indices)`` pairs (sorted int
    arrays) whose test sets partition 0..n-1. Per-class counts per fold
    differ by at most one, and fold sizes are balanced by assigning each
    class's remainder samples to the currently smallest folds.
    """
    if folds < 2:
        raise ValueError("folds must be at least 2")
    counts = dataset.class_counts()
    if counts.min() < folds:
        raise ValueError(
            f"smallest class has {int(counts.min())} labeled samples, fewer than folds={folds}"
        )
    rng = np.random.default_rng(seed)
    K = dataset.K
    per_class_fold = np.zeros((K, folds), dtype=np.int64)
    fold_sizes = np.zeros(folds, dtype=np.int64)
    for k in sorted(range(K), key=lambda k: (-counts[k], k)):
        q, r = divmod(int(counts[k]), folds)
        alloc = np.full(folds, q, dtype=np.int64)
        smallest_first = np.argsort(fold_sizes, kind="stable")
        alloc[smallest_first[:r]] += 1
        per_class_fold[k] = alloc
        fold_sizes += alloc
    test_sets: list[list[int]] = [[] for _ in range(folds)]
    for k in range(K):
        members = rng.permutation(np.flatnonzero(dataset.labels == k + 1))
        start = 0
        for f in range(folds):
            stop = start + per_class_fold[k, f]
            test_sets[f].extend(members[start:stop].tolist())
            start = stop
    all_idx = np.arange(dataset.n)
    out = []
    for f in range(folds):
        test = np.array(sorted(test_sets[f]), dtype=np.int64)
        train = np.setdiff1d(all_idx, test, assume_unique=True)
        out.append((train, test))
    return out

