"""Trace-log parsing, API vocabularies, binary feature vectors and splits.

A trace log is a text file with one API invocation per line. The canonical
identity of an invocation is ``ClassName.methodName``; anything after the
first whitespace (timestamps, arguments) is ignored. A sample is encoded as
a presence vector over a fixed, ordered API vocabulary: multiplicity and
ordering of calls are discarded.
"""

from __future__ import annotations

import csv
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

    @classmethod
    def from_lines(cls, lines) -> "ApiVocabulary":
        """Build from an iterable of lines, keeping first occurrences.

        Blank lines and lines starting with ``#`` are skipped.
        """
        seen: dict[str, None] = {}
        for raw in lines:
            entry = raw.strip()
            if not entry or entry.startswith("#"):
                continue
            seen.setdefault(entry, None)
        if not seen:
            raise DataFormatError("vocabulary source contains no entries")
        return cls(tuple(seen))

    @classmethod
    def from_file(cls, path) -> "ApiVocabulary":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_lines(fh)
        except OSError as exc:
            raise DataFormatError(f"cannot read vocabulary {path}: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.entries:
                fh.write(entry + "\n")


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
    DataFormatError when zero lines parse.
    """
    bits = np.zeros(vocabulary.d, dtype=np.float64)
    n_parsed = 0
    n_skipped = 0
    for raw in lines:
        fields = raw.split(None, 1)
        if not fields:
            continue
        # The record is the first token: a non-empty class path, a dot and a
        # non-empty method name; the token itself is the API identity.
        class_name, _, method_name = fields[0].rpartition(".")
        if not class_name or not method_name:
            n_skipped += 1
            continue
        n_parsed += 1
        pos = vocabulary.index.get(fields[0])
        if pos is not None:
            bits[pos] = 1.0
    if n_parsed == 0:
        raise DataFormatError("no parseable API records in log")
    return ParseResult(bits, n_parsed, n_skipped)


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

    def require_class_members(self, min_count: int = 1) -> None:
        counts = self.class_counts()
        lacking = [k + 1 for k, c in enumerate(counts) if c < min_count]
        if lacking:
            raise ValueError(
                f"classes {lacking} have fewer than {min_count} labeled samples"
            )

    def save_csv(self, path) -> None:
        """Write header (API identities + 'label') and one row per sample.

        Labeled rows come first with their class index; unlabeled rows have
        an empty label cell. Binary matrices are written as 0/1, anything
        else with shortest round-trip float text.
        """
        stacked = np.vstack([self.labeled_features, self.unlabeled_features])
        binary = bool(np.all((stacked == 0.0) | (stacked == 1.0))) if stacked.size else True

        def fmt(v: float) -> str:
            return str(int(v)) if binary else repr(float(v))

        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(list(self.vocabulary.entries) + ["label"])
            for row, label in zip(self.labeled_features, self.labels):
                writer.writerow([fmt(v) for v in row] + [str(int(label))])
            for row in self.unlabeled_features:
                writer.writerow([fmt(v) for v in row] + [""])

    @classmethod
    def load_csv(cls, path, K: int | None = None) -> "Dataset":
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
                reader = csv.reader(fh)
                try:
                    header = next(reader)
                except StopIteration:
                    raise DataFormatError(f"{path}: empty file") from None
                if not header or header[-1] != "label":
                    raise DataFormatError(f"{path}: last header column must be 'label'")
                vocabulary = ApiVocabulary(tuple(header[:-1]))
                # A float64 array per row, not a list of Python floats: a
                # 6000x160 file otherwise adds ~50 MB of peak memory.
                labeled_rows: list[np.ndarray] = []
                labels: list[int] = []
                unlabeled_rows: list[np.ndarray] = []
                width = len(header) - 1
                for lineno, row in enumerate(reader, start=2):
                    if len(row) != len(header):
                        raise DataFormatError(
                            f"{path}:{lineno}: expected {len(header)} cells, got {len(row)}"
                        )
                    try:
                        values = np.fromiter(map(float, row[:-1]), np.float64, width)
                    except ValueError as exc:
                        raise DataFormatError(f"{path}:{lineno}: bad feature cell: {exc}") from exc
                    if row[-1] == "":
                        unlabeled_rows.append(values)
                    else:
                        try:
                            labels.append(int(row[-1]))
                        except ValueError as exc:
                            raise DataFormatError(f"{path}:{lineno}: bad label cell") from exc
                        labeled_rows.append(values)
        except OSError as exc:
            raise DataFormatError(f"cannot read dataset {path}: {exc}") from exc
        d = vocabulary.d
        inferred = max(labels) if labels else 1
        if K is None:
            K = inferred
        try:
            return cls(
                np.array(labeled_rows, dtype=np.float64).reshape(len(labeled_rows), d),
                np.array(labels, dtype=np.int64),
                np.array(unlabeled_rows, dtype=np.float64).reshape(len(unlabeled_rows), d),
                vocabulary,
                K,
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

