"""Experiment harness: cross-validation, detection-rate sweeps, ROC, PCA.

Two protocols are implemented. In-sample: stratified k-fold
cross-validation where the held-out fold is handed to the mixture
classifier as its unlabeled block (the transductive fit) while baselines
train on the labeled folds alone. Out-of-sample: an all-malicious test set
is subsampled at a ladder of fractions with Monte Carlo replicates and the
detection rate (flagged-malicious share) is averaged per fraction.

The positive class means "malicious" throughout and defaults to label 2.
Predictions are int arrays of labels in 1..K, with ``TIE_LABEL`` (0) for
an ambiguous tie; ties count as incorrect and are tallied separately.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import baselines, cem, gmm
from .baselines import TIE_LABEL
# ``stratified_folds`` stays bound here by name: perfbench/spans.py patches it.
from .dataset import Dataset, stratified_folds, write_csv

DEFAULT_FRACTIONS = (0.1, 1.0, 20.0, 50.0, 90.0, 100.0)
DEFAULT_REPLICATES = (50, 30, 20, 10, 5, 1)


@dataclass(frozen=True)
class ConfusionCounts:
    """Binary confusion counts with malicious as the positive class."""

    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def accuracy(self) -> float:
        return (self.tp + self.tn) / self.total

    @property
    def fpr(self) -> float:
        denom = self.fp + self.tn
        return self.fp / denom if denom else float("nan")


def confusion(truth: np.ndarray, preds, positive_label: int):
    """Counts plus the number of ambiguous ties.

    A tie is wrong by definition: it lands in FN when the sample is
    positive and FP when it is negative, so counts still conserve the
    sample total.
    """
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
    pred = np.asarray(preds, dtype=np.int64).reshape(-1)
    if pred.shape[0] != truth.shape[0]:
        raise ValueError("one prediction per truth label required")
    is_pos = truth == positive_label
    tie = pred == TIE_LABEL
    correct = (pred == truth) & ~tie
    tp = int(np.sum(is_pos & correct))
    tn = int(np.sum(~is_pos & correct))
    fn = int(np.sum(is_pos & ~correct))
    # Any wrong prediction on a negative sample (including K > 2 confusions
    # between non-positive classes) lands in FP so counts conserve the total.
    fp = int(np.sum(~is_pos & ~correct))
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn), int(np.sum(tie))


@dataclass(frozen=True)
class DrRow:
    """Detection rate at one test-size fraction."""

    fraction_pct: float
    replicates: int
    subsample_size: int
    dr_mean: float
    dr_sd: float


@dataclass
class EvalReport:
    """Per-fold metrics with aggregates, plus optional ROC/AUC."""

    classifier: str
    fold_accuracy: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fold_fpr: np.ndarray = field(default_factory=lambda: np.zeros(0))
    fold_ties: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    acc_mean: float = float("nan")
    acc_sd: float = float("nan")
    fpr_mean: float = float("nan")
    fpr_sd: float = float("nan")
    roc_points: np.ndarray | None = None
    auc: float | None = None


def _sample_sd(values: np.ndarray) -> float:
    return float(np.std(values, ddof=1)) if values.size > 1 else float("nan")


# A classifier is ``train(train_X, train_y, test_pool) -> predict`` with
# ``predict(test_idx) -> (labels, scores | None)`` for ``test_pool[test_idx]``;
# scores grow with confidence in the positive class.


def mbss(config: cem.CemConfig, positive_label: int = 2):
    """CEM refit per prediction, the requested rows as its unlabeled block.

    The labeled summary and the starting model are computed once per
    training set and shared by every refit. K is the largest training
    label; scores are positive-class posteriors.
    """

    def train(train_X, train_y, test_pool):
        start = cem.initialize(train_X, train_y, int(train_y.max()), config)

        def predict(test_idx):
            result = cem.fit(start, test_pool[test_idx])
            return result.hard_labels, result.posteriors[:, positive_label - 1]

        return predict

    return train


def knn(k: int = 3):
    """Nearest-neighbor vote on the training rows; no scores.

    Each test-pool row is predicted at most once and reused by later
    requests; ties are ``TIE_LABEL``.
    """

    def train(train_X, train_y, test_pool):
        model = baselines.KnnModel(train_X, train_y, k=k)
        known = np.full(len(test_pool), -1, dtype=np.int64)

        def predict(test_idx):
            idx = np.asarray(test_idx, dtype=np.int64)
            new = np.unique(idx[known[idx] < 0])
            if new.size:
                known[new] = baselines.knn_predict_all(model, test_pool[new])
            return known[idx], None

        return predict

    return train


def lda(positive_label: int = 2):
    """Scores are the positive class's margin over the best other class.

    The whole test pool is predicted once, at training time.
    """

    def train(train_X, train_y, test_pool):
        model = baselines.lda_fit(train_X, train_y)
        labels, scores = baselines.lda_predict_all(model, test_pool)
        others = np.delete(scores, positive_label - 1, axis=1)
        margin = scores[:, positive_label - 1] - others.max(axis=1)
        return lambda idx: (labels[idx], margin[idx])

    return train


def external(preds, scores=None):
    """Predictions made elsewhere, one per test-pool row."""

    def train(train_X, train_y, test_pool):
        if len(preds) != len(test_pool):
            raise ValueError(f"{len(preds)} predictions for {len(test_pool)} test rows")
        return lambda idx: (preds[idx], None if scores is None else scores[idx])

    return train


# The only list of classifier names: (name in reports, classifier) from the
# CEM settings, the kNN k and the positive label.
CLASSIFIERS = {
    "mbss": lambda config, k, positive: ("mbss", mbss(config, positive)),
    "knn": lambda config, k, positive: (f"{k}nn", knn(k)),
    "lda": lambda config, k, positive: ("lda", lda(positive)),
}


def cross_validate(
    dataset: Dataset,
    name: str,
    classifier,
    folds: int = 10,
    seed: int = 0,
    positive_label: int = 2,
) -> EvalReport:
    """Stratified k-fold evaluation of one classifier, trained once per fold.

    The test pool is the labeled block. Accuracy is correct/test-size per
    fold; FPR is FP/(FP+TN). Aggregates are the mean and sample standard
    deviation over folds. When the classifier produces scores, a pooled
    out-of-fold ROC and AUC are attached.
    """
    X = dataset.labeled_features
    y = dataset.labels
    accs, fprs, ties = [], [], []
    pooled_scores, pooled_truth = [], []
    for train_idx, test_idx in stratified_folds(dataset, folds, seed):
        preds, scores = classifier(X[train_idx], y[train_idx], X)(test_idx)
        counts, n_ties = confusion(y[test_idx], preds, positive_label)
        accs.append(counts.accuracy)
        fprs.append(counts.fpr)
        ties.append(n_ties)
        if scores is not None:
            pooled_scores.append(np.asarray(scores, dtype=np.float64))
            pooled_truth.append((y[test_idx] == positive_label).astype(np.int64))
    accs = np.array(accs)
    fprs = np.array(fprs)
    roc_points, auc = None, None
    if pooled_scores:
        roc_points, auc = roc_auc(
            np.concatenate(pooled_scores), np.concatenate(pooled_truth)
        )
    return EvalReport(
        classifier=name,
        fold_accuracy=accs,
        fold_fpr=fprs,
        fold_ties=np.array(ties, dtype=np.int64),
        acc_mean=float(accs.mean()),
        acc_sd=_sample_sd(accs),
        fpr_mean=float(fprs.mean()),
        fpr_sd=_sample_sd(fprs),
        roc_points=roc_points,
        auc=auc,
    )


def subsample_size(N: int, pct: float) -> int:
    """Rows in a ``pct`` percent subsample of N rows, rounded half to even."""
    return int(round(N * pct / 100.0))


def detection_rate(
    classifier,
    train_X: np.ndarray,
    train_y: np.ndarray,
    oos_X: np.ndarray,
    fractions=DEFAULT_FRACTIONS,
    replicates=DEFAULT_REPLICATES,
    seed: int = 0,
    positive_label: int = 2,
) -> list[DrRow]:
    """Detection rate over subsampled fractions of an all-malicious set.

    The classifier is trained once, with ``oos_X`` as its test pool in its
    own dtype (``bool`` 0/1 rows are not copied to float64), and predicts
    each subsample; ties count as not detected. Fractions are
    percentages; each is paired with its Monte Carlo replicate count.
    Subsampling is without replacement and fully determined by the seed. A
    fraction that yields zero samples is skipped with a warning.
    """
    X = np.atleast_2d(np.asarray(oos_X))
    if X.shape[0] == 0:
        raise ValueError("test set must be non-empty")
    fractions = list(fractions)
    replicates = list(replicates)
    if len(fractions) != len(replicates):
        raise ValueError("fractions and replicates must have equal length")
    predict = classifier(train_X, train_y, X)
    rng = np.random.default_rng(seed)
    rows: list[DrRow] = []
    N = X.shape[0]
    for pct, reps in zip(fractions, replicates):
        if reps < 1:
            raise ValueError("replicate counts must be positive")
        size = subsample_size(N, pct)
        if size == 0:
            warnings.warn(
                f"fraction {pct}% of {N} test samples yields zero rows; skipped",
                stacklevel=2,
            )
            continue
        drs = []
        for _ in range(reps):
            idx = rng.choice(N, size=size, replace=False)
            drs.append(float(np.mean(predict(idx)[0] == positive_label)))
        drs = np.array(drs)
        rows.append(
            DrRow(
                fraction_pct=float(pct),
                replicates=reps,
                subsample_size=size,
                dr_mean=float(drs.mean()),
                dr_sd=_sample_sd(drs),
            )
        )
    return rows


def roc_auc(scores: np.ndarray, truth: np.ndarray):
    """ROC points from a threshold sweep plus trapezoidal AUC.

    Points are ``(threshold, fpr, tpr)`` rows, thresholds descending from
    +inf, predicting positive at score >= threshold. Tied scores are
    grouped, so the AUC equals the Mann-Whitney statistic with half credit
    for ties. With single-class truth the sweep is still returned and AUC
    is None.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    t = np.asarray(truth).reshape(-1).astype(np.int64)
    if s.shape[0] != t.shape[0]:
        raise ValueError("scores and truth must have equal length")
    if s.shape[0] == 0:
        raise ValueError("scores must be non-empty")
    if not np.all(np.isfinite(s)):
        raise ValueError("scores must be finite")
    if not np.all((t == 0) | (t == 1)):
        raise ValueError("truth must be binary (0/1)")
    P = int(t.sum())
    Ng = t.shape[0] - P
    order = np.argsort(-s, kind="stable")
    s_sorted, tp = s[order], np.cumsum(t[order])
    # The last row of each run of equal scores closes its threshold's group;
    # the group's first score is the threshold (-0.0 == 0.0 is one group).
    last = np.flatnonzero(np.append(s_sorted[1:] != s_sorted[:-1], True))
    first = np.append(0, last[:-1] + 1)
    tp = tp[last]
    pts = np.empty((last.size + 1, 3))
    pts[0] = (np.inf, 0.0, 0.0)
    pts[1:, 0] = s_sorted[first]
    pts[1:, 1] = (last + 1 - tp) / Ng if Ng else 0.0
    pts[1:, 2] = tp / P if P else 0.0
    if P == 0 or Ng == 0:
        return pts, None
    # Trapezoidal rule written out (np.trapezoid needs numpy >= 2.0).
    fpr, tpr = pts[:, 1], pts[:, 2]
    auc = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    return pts, auc


@dataclass
class PcaProjection:
    """In-sample-anchored principal component projections of both cohorts."""

    mean: np.ndarray
    components: np.ndarray
    explained_variance: np.ndarray
    in_projection: np.ndarray
    in_cohorts: list[str]
    oos_projection: np.ndarray


def pca_project(
    in_features: np.ndarray,
    in_labels: np.ndarray,
    oos_features: np.ndarray,
    n_components: int = 4,
    positive_label: int = 2,
) -> PcaProjection:
    """Project in-sample and out-of-sample blocks on in-sample PCs.

    Centering and principal directions come from the in-sample block only.
    Each direction is signed so its largest-magnitude coordinate is
    positive, making projections reproducible. Cohorts are ``benign-in``,
    ``malicious-in`` and ``oos``. Either block may be ``bool``: the
    in-sample rows are read once, centered, into float64, and the
    out-of-sample rows ``gmm.ROW_BLOCK // d`` at a time, so no float64
    copy of them is made.
    """
    X = np.atleast_2d(np.asarray(in_features))
    labels = np.asarray(in_labels, dtype=np.int64).reshape(-1)
    oos = np.atleast_2d(np.asarray(oos_features))
    if oos.size == 0:
        oos = np.empty((0, X.shape[1]))
    if labels.shape[0] != X.shape[0]:
        raise ValueError("one label per in-sample row required")
    if oos.shape[1] != X.shape[1]:
        raise ValueError("in-sample and out-of-sample dimensions differ")
    if not 1 <= n_components <= min(X.shape):
        raise ValueError(
            f"n_components must be in 1..{min(X.shape)} for a {X.shape[0]}x{X.shape[1]} block"
        )
    mean = X.mean(axis=0, dtype=np.float64)
    centered = X - mean
    cov = centered.T @ centered / (X.shape[0] - 1 if X.shape[0] > 1 else 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    if not eigvals[-1] > 0.0:
        raise ValueError("in-sample block has zero variance")
    order = np.argsort(eigvals)[::-1][:n_components]
    components = eigvecs[:, order].T.copy()
    for vec in components:
        if vec[np.argmax(np.abs(vec))] < 0:
            vec *= -1.0
    cohorts = [
        "malicious-in" if lab == positive_label else "benign-in" for lab in labels
    ]
    oos_projection = np.empty((len(oos), n_components))
    step = max(1, gmm.ROW_BLOCK // X.shape[1])
    for start in range(0, len(oos), step):
        oos_projection[start:start + step] = (oos[start:start + step] - mean) @ components.T
    return PcaProjection(
        mean=mean,
        components=components,
        explained_variance=eigvals[order],
        in_projection=centered @ components.T,
        in_cohorts=cohorts,
        oos_projection=oos_projection,
    )


def write_pca_csv(path, projection: PcaProjection) -> None:
    header = [f"PC{i + 1}" for i in range(projection.components.shape[0])] + ["cohort"]
    rows = projection.in_projection.tolist() + projection.oos_projection.tolist()
    cohorts = projection.in_cohorts + ["oos"] * len(projection.oos_projection)
    write_csv(path, header, (row + [cohort] for row, cohort in zip(rows, cohorts)))


def write_roc_csv(path, roc_points: np.ndarray) -> None:
    write_csv(path, ["threshold", "fpr", "tpr"], roc_points.tolist())


def write_cv_csv(path, reports: list[EvalReport]) -> None:
    """Machine-readable CV results: per-fold rows then a summary row each."""
    rows = []
    for r in reports:
        folds = zip(r.fold_accuracy.tolist(), r.fold_fpr.tolist(), r.fold_ties.tolist())
        rows += [[r.classifier, f, *cells] for f, cells in enumerate(folds, start=1)]
        rows.append([r.classifier, "mean", r.acc_mean, r.fpr_mean, int(r.fold_ties.sum())])
        rows.append([r.classifier, "sd", r.acc_sd, r.fpr_sd, None])
    write_csv(path, ["classifier", "fold", "accuracy", "fpr", "ties"], rows)


def write_dr_csv(path, rows_by_classifier: dict[str, list[DrRow]]) -> None:
    """Detection-rate sweep table, one row per classifier and fraction."""
    header = ["classifier", "fraction_pct", "replicates", "subsample_size", "dr_mean", "dr_sd"]
    write_csv(path, header, (
        [name, r.fraction_pct, r.replicates, r.subsample_size, r.dr_mean,
         None if np.isnan(r.dr_sd) else r.dr_sd]
        for name, rows in rows_by_classifier.items() for r in rows
    ))


def format_cv_table(reports: list[EvalReport]) -> str:
    """Human-readable comparison table of cross-validation aggregates."""
    lines = [
        f"{'classifier':<12} {'mean ACC':>9} {'sd ACC':>8} {'mean FPR':>9} {'sd FPR':>8} {'AUC':>6} {'ties':>5}"
    ]
    for r in reports:
        auc = f"{r.auc:.3f}" if r.auc is not None else "-"
        lines.append(
            f"{r.classifier:<12} {r.acc_mean:>9.4f} {r.acc_sd:>8.4f} "
            f"{r.fpr_mean:>9.4f} {r.fpr_sd:>8.4f} {auc:>6} {int(r.fold_ties.sum()):>5}"
        )
    return "\n".join(lines)
