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
        except OSError as exc:
            raise DataFormatError(f"cannot read vocabulary {path}: {exc}") from exc
        if not entries:
            raise DataFormatError("vocabulary source contains no entries")
        return cls(tuple(entries))


class _TokenCodes(dict):
    """Log tokens, each classified on first lookup: its position among the d
    vocabulary entries, d for another record (a non-empty class path, a dot and
    a non-empty method name) or d + 1 for a malformed token; it only grows."""

    def __init__(self, index: dict[str, int]) -> None:
        super().__init__()
        self.index, self.d = index, len(index)

    def __missing__(self, token: str) -> int:
        class_path, _, method = token.rpartition(".")
        code = self[token] = self.index.get(token, self.d) if class_path and method else self.d + 1
        return code


def build_vocabulary(api_list_file) -> ApiVocabulary:
    """Read a one-identity-per-line file into a vocabulary."""
    return ApiVocabulary.from_file(api_list_file)


@dataclass(frozen=True)
class ParseResult:
    """Presence vector for one trace plus line accounting for reports."""

    bits: np.ndarray
    n_parsed: int
    n_skipped: int


def parse_log(lines, vocabulary: ApiVocabulary) -> ParseResult:
    """Vectorize one trace log into a {0,1} presence vector.

    ``bits[i]`` is 1 iff vocabulary entry i occurs at least once anywhere in
    the log. Non-blank lines that do not parse as ``Class.method`` records
    are skipped and counted; blank lines are ignored. Raises
    DataFormatError when zero lines parse. A line costs a split and a lookup
    in ``vocabulary.token_codes``, which classifies each distinct token once.
    """
    cache, d = vocabulary.token_codes, vocabulary.d
    codes = [cache[fields[0]] for line in lines if (fields := line.split(None, 1))]
    n_skipped = codes.count(d + 1)
    if n_skipped == len(codes):
        raise DataFormatError("no parseable API records in log")
    bits = np.zeros(d + 2)  # the last two slots take the codes of non-entries
    bits[codes] = 1.0
    return ParseResult(bits[:d], len(codes) - n_skipped, n_skipped)


# Cells per block of rows that ``Dataset.save_csv`` formats at once.
CSV_BLOCK = 1 << 14


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.flags.writeable = False
    return a


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
        lf = _readonly(np.atleast_2d(self.labeled_features))
        uf = _readonly(np.atleast_2d(self.unlabeled_features))
        labels = np.array(self.labels, dtype=np.int64, copy=True).reshape(-1)
        labels.flags.writeable = False
        d = self.vocabulary.d
        if lf.size == 0:
            lf = _readonly(np.empty((0, d)))
        if uf.size == 0:
            uf = _readonly(np.empty((0, d)))
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
        object.__setattr__(self, "labeled_features", lf)
        object.__setattr__(self, "unlabeled_features", uf)
        object.__setattr__(self, "labels", labels)

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
        an empty label cell. Binary matrices are written as 0/1, anything
        else with shortest round-trip float text (numpy's ``%s`` of a
        float64 is ``repr(float(v))``). Rows go out ``CSV_BLOCK`` cells at a
        time, each distinct bit pattern (-0.0 is not 0.0) formatted once.
        """
        blocks = (self.labeled_features, self.unlabeled_features)
        cell = "%d" if all(np.all((X == 0.0) | (X == 1.0)) for X in blocks) else "%s"
        step = max(1, CSV_BLOCK // self.d)
        # A labeled row ends with its label cell; ",\n" leaves an unlabeled one empty.
        ends = (iter([f",{label}\n" for label in self.labels.tolist()]), itertools.repeat(",\n"))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow([*self.vocabulary.entries, "label"])
            for X, tails in zip(blocks, ends):
                for start in range(0, len(X), step):
                    block = X[start:start + step]
                    patterns, inverse = np.unique(block.view(np.uint64), return_inverse=True)
                    text = np.array([cell % v for v in patterns.view(np.float64)], dtype=object)
                    rows = text[inverse.reshape(block.shape)].tolist()
                    fh.write("".join([",".join(row) + tail for row, tail in zip(rows, tails)]))

    @classmethod
    def load_csv(cls, path) -> "Dataset":
        """Read a dataset CSV as ``save_csv`` writes it; K is the largest label.

        Cells may be CSV-quoted, so an API identity may hold a comma. A body
        row is one finite number per identity and an integer or empty
        (unlabeled) label cell, from 1 to the number of labeled rows; empty
        lines are skipped.
        """
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                header = next(csv.reader(fh), None)
                if header is None:
                    raise DataFormatError(f"{path}: empty file")
                if not header or header[-1] != "label":
                    raise DataFormatError(f"{path}: last header column must be 'label'")
                try:
                    vocabulary = ApiVocabulary(tuple(header[:-1]))
                except ValueError as exc:
                    raise DataFormatError(f"{path}: header: {exc}") from exc
                width = len(header)
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
        except OSError as exc:
            raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
        if rows.shape[1] != width:
            raise DataFormatError(f"{path}: expected {width} cells per row, got {rows.shape[1]}")
        features, label_cells = rows[:, :-1], rows[:, -1]
        if not np.isfinite(features).all():
            raise DataFormatError(f"{path}: feature cells must be finite numbers")
        labeled = ~np.isnan(label_cells)
        labels = label_cells[labeled]
        # Labels lie in 1..n for n labeled rows: a larger one names a class without rows.
        outside = labels[(labels < 1) | (labels > labels.size)]
        if outside.size:
            raise DataFormatError(
                f"{path}: label {outside[0]:.0f} is outside 1..{labels.size} (labeled rows)"
            )
        labels = labels.astype(np.int64)
        try:
            return cls(
                features[labeled], labels, features[~labeled], vocabulary,
                int(labels.max(initial=1)),
            )
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

