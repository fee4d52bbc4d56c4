"""Command-line pipeline: extract, fit, classify, evaluate, synth.

Every command is a pure function of its inputs, flags and seed, so reruns
are byte-identical; a JSON manifest (inputs, flags, seed, version, output
hashes) is written alongside each primary output. Exit codes: 0 success,
2 partial data failure, 64 usage, 65 data format, 70 internal.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import __version__, cem, evaluation, gmm, model_select
# Bound by name for perfbench/spans.py, which patches all three here.
from .dataset import Dataset, build_vocabulary, parse_log, stratified_folds, write_csv
from .errors import DataFormatError, MbssError
from .synth import binarize, sample_mixture, two_class_spec

EXIT_OK = 0
EXIT_PARTIAL = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_INTERNAL = 70

DEFAULT_VOCABULARY = Path(__file__).parent / "data" / "default_api_vocabulary.txt"
BUNDLED_VOCABULARY_KEY = "mbss/data/default_api_vocabulary.txt"


class UsageError(MbssError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2)
        raise UsageError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _input_key(path) -> str:
    """A manifest input's key: its path as given, but the bundled vocabulary by
    its name in the package, so the key does not depend on the checkout."""
    path = path if isinstance(path, Path) else Path(path)
    return BUNDLED_VOCABULARY_KEY if path == DEFAULT_VOCABULARY else str(path)


def _write_manifest(
    primary_out: Path, command: str, argv, inputs, outputs, seed=None, digests=None
) -> None:
    """Write the manifest; ``digests`` holds the SHA-256 of inputs already read, by path."""
    digests = digests or {}
    manifest = {
        "command": command,
        "argv": list(argv),
        "seed": seed,
        "version": __version__,
        "inputs": {_input_key(p): digests.get(str(p)) or _sha256(Path(p)) for p in inputs},
        "outputs": {str(p): _sha256(Path(p)) for p in outputs},
    }
    path = Path(str(primary_out) + ".manifest.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _require_inputs(*paths) -> None:
    for p in paths:
        if p is not None and not Path(p).exists():
            raise UsageError(f"input path does not exist: {p}")


def _prepare_out(path) -> Path:
    out = Path(path)
    if out.parent and not out.parent.exists():
        out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok != ""]


def _percent_list(text: str) -> list[float]:
    values = _float_list(text)
    if not values or not all(0.0 <= v <= 100.0 for v in values):
        raise argparse.ArgumentTypeError(f"need percentages in [0, 100], got {text!r}")
    return values


def _positive_int_list(text: str) -> list[int]:
    values = [int(tok) for tok in text.split(",") if tok != ""]
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"need counts of at least 1, got {text!r}")
    return values


def _name_list(choices, case):
    """argparse type: a non-empty comma-separated subset of ``choices``, each named once."""

    def parse(text: str) -> list[str]:
        names = [case(tok.strip()) for tok in text.split(",") if tok.strip()]
        if not names or set(names) - set(choices):
            raise argparse.ArgumentTypeError(f"{text!r}: choose from {', '.join(choices)}")
        repeated = sorted({name for name in names if names.count(name) > 1})
        if repeated:
            raise argparse.ArgumentTypeError(f"{text!r}: {', '.join(repeated)} named more than once")
        return names

    return parse


def _cem_config(args) -> cem.CemConfig:
    try:
        return cem.CemConfig(
            family=getattr(args, "family", "EII"),
            tolerance=args.tolerance,
            max_iterations=args.max_iterations,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _add_fit_flags(parser) -> None:
    parser.add_argument("--tolerance", type=_positive_float, default=1e-5,
                        help="Aitken stopping tolerance on the log-likelihood (default 1e-5)")
    parser.add_argument("--max-iterations", type=_positive_int, default=1000,
                        help="iteration cap (default 1000)")


def build_parser():
    """Returns the parser plus a name -> subparser map for config defaults."""
    parser = _Parser(
        prog="mbss",
        description="Semi-supervised mixture-model classification of API-call "
        "behavior vectors, with baselines and evaluation protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}

    def add_command(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument(
            "--config", default=None,
            help="JSON file of flag defaults (precedence: flags > config > built-ins)",
        )
        subparsers[name] = p
        return p

    p = add_command("extract", help="vectorize a directory of trace logs into a dataset CSV")
    p.add_argument("--logs", required=True, help="directory of trace log files")
    p.add_argument("--vocabulary", default=str(DEFAULT_VOCABULARY),
                   help="API list file (default: bundled representative list)")
    p.add_argument("--labels", default=None,
                   help="optional CSV of filename,label assigning classes to logs")
    p.add_argument("--pattern", default="*.log", help="glob for log files (default *.log)")
    p.add_argument("--out", required=True, help="output dataset CSV")

    p = add_command("fit", help="fit candidate covariance families and keep the BIC winner")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--families", type=_name_list(gmm.FAMILIES, str.upper),
                   default=list(gmm.FAMILIES),
                   help="comma-separated candidates (default: all six)")
    _add_fit_flags(p)
    p.add_argument("--seed", type=int, default=0, help="recorded in the manifest")
    p.add_argument("--report", default=None,
                   help="selection report CSV (default: <out>.selection.csv)")
    p.add_argument("--out", required=True, help="output model file (JSON)")

    p = add_command("classify", help="classify a dataset's unlabeled rows with a saved model")
    p.add_argument("--model", required=True, help="model file from 'fit'")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--positive-label", type=_positive_int, default=2,
                   help="class index reported in the score column (default 2)")
    p.add_argument("--out", required=True, help="predictions CSV (sample_id,predicted_label,score)")

    p = add_command("evaluate", help="run the cross-validation or out-of-sample protocol")
    p.add_argument("--data", required=True, help="dataset CSV (labeled block drives evaluation)")
    p.add_argument("--protocol", choices=("cv", "cv10", "oos"), required=True,
                   help="cv10 is cv with folds forced to 10")
    p.add_argument("--classifiers", type=_name_list(evaluation.CLASSIFIERS, str.lower),
                   default="mbss", help="comma-separated subset of "
                   f"{','.join(evaluation.CLASSIFIERS)} (default mbss)")
    p.add_argument("--family", default="EII", choices=gmm.FAMILIES,
                   help="covariance family for the mixture classifier (default EII)")
    _add_fit_flags(p)
    p.add_argument("--knn-k", type=_positive_int, default=3, help="neighbors for knn (default 3)")
    p.add_argument("--folds", type=_positive_int, default=None, help="CV folds (cv; default 10)")
    p.add_argument("--oos-data", default=None, help="out-of-sample dataset CSV (oos protocol)")
    p.add_argument("--fractions", type=_percent_list, default=None,
                   help="test-size percentages for the DR sweep (oos)")
    p.add_argument("--replicates", type=_positive_int_list, default=None,
                   help="Monte Carlo replicates per fraction (oos)")
    p.add_argument("--positive-label", type=_positive_int, default=2,
                   help="malicious class index (default 2)")
    p.add_argument("--external-predictions", default=None,
                   help="CSV of sample_id,predicted_label[,score] to merge into the comparison")
    p.add_argument("--seed", type=int, required=True, help="seed for folds/subsampling")
    p.add_argument("--roc-out", default=None, help="ROC CSV (cv and cv10)")
    p.add_argument("--pca-out", default=None, help="PCA scatter CSV (oos protocol)")
    p.add_argument("--out", required=True, help="report CSV")

    p = add_command("synth", help="generate a seeded two-class synthetic dataset CSV")
    p.add_argument("--n", type=_positive_int, required=True, help="total samples")
    p.add_argument("--d", type=_positive_int, required=True, help="feature dimension")
    p.add_argument("--separation", type=float, default=3.0,
                   help="mean separation in sd units (default 3)")
    p.add_argument("--rho", type=float, default=0.0,
                   help="compound-symmetric correlation (default 0)")
    p.add_argument("--scale", type=_positive_float, default=1.0, help="marginal sd (default 1)")
    p.add_argument("--weights", type=_float_list, default=[0.5, 0.5],
                   help="component weights (default 0.5,0.5)")
    p.add_argument("--label-fraction", type=float, default=0.5,
                   help="share of rows kept labeled (default 0.5)")
    p.add_argument("--binarize-at", type=float, default=None,
                   help="optional threshold turning features into 0/1 presence bits")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="output dataset CSV")
    return parser, subparsers


def _text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file; one that is not UTF-8 is a DataFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _load_labels_file(path, names) -> dict[str, int]:
    """filename,label rows, one per file name, CSV-quoted as ``<out>.sources.csv`` writes names.

    Every file name must be one of ``names``, the logs found.
    """
    out: dict[str, int] = {}
    first_lines: dict[str, int] = {}
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower() == "filename,label":
            continue
        parts = [p.strip() for p in next(csv.reader([line]))]
        if len(parts) != 2:
            raise DataFormatError(f"{path}:{lineno}: expected 'filename,label'")
        try:
            label = int(parts[1])
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad label {parts[1]!r}") from exc
        if label < 1:
            raise DataFormatError(f"{path}:{lineno}: label {label} is not a class index >= 1")
        first = first_lines.setdefault(parts[0], lineno)
        if first != lineno:
            raise DataFormatError(
                f"{path}:{lineno}: filename {parts[0]} given twice (first on line {first})"
            )
        if parts[0] not in names:
            raise DataFormatError(f"{path}:{lineno}: filename {parts[0]} matches no log file")
        out[parts[0]] = label
    return out


def cmd_extract(args, argv) -> int:
    _require_inputs(args.logs, args.vocabulary, args.labels)
    vocabulary = build_vocabulary(args.vocabulary)
    log_dir = Path(args.logs)
    if not log_dir.is_dir():
        raise UsageError(f"--logs must be a directory: {log_dir}")
    # Path order, by parts, without Path's own comparisons
    files = sorted((p for p in log_dir.glob(args.pattern) if p.is_file()), key=lambda p: p.parts)
    if not files:
        raise DataFormatError(f"no files matching {args.pattern!r} under {log_dir}")
    # Rows are keyed by file name, in the labels file and in <out>.sources.csv
    by_name: dict[str, Path] = {}
    for path in files:
        first = by_name.setdefault(path.name, path)
        if first is not path:
            raise DataFormatError(f"logs {first} and {path} share the file name {path.name}")
    labels_map = _load_labels_file(args.labels, by_name) if args.labels else {}
    parsed = []
    failures = []
    digests = {}
    for path in files:
        try:
            with open(path, "rb", buffering=0) as fh:
                data = fh.read()
            digests[str(path)] = hashlib.sha256(data).hexdigest()
            # The lines of a text-mode open(): universal newlines, not str.splitlines()
            text = data.decode("utf-8", "replace").replace("\r\n", "\n").replace("\r", "\n")
            result = parse_log(text.split("\n"), vocabulary)
        except (DataFormatError, OSError) as exc:
            failures.append((path.name, str(exc)))
            continue
        parsed.append((path.name, labels_map.get(path.name), result))
    for name, msg in failures:
        print(f"extract: failed: {name}: {msg}", file=sys.stderr)
    if not parsed:
        raise DataFormatError("every log file failed to parse")
    labeled = [(n, lab, r) for n, lab, r in parsed if lab is not None]
    unlabeled = [(n, lab, r) for n, lab, r in parsed if lab is None]
    labels = [lab for _, lab, _ in labeled]
    # load_csv's rule: a label names a class among the labeled rows written
    if max(labels, default=0) > len(labels):
        raise DataFormatError(
            f"{args.labels}: label {max(labels)} is outside 1..{len(labels)} (labeled logs written)"
        )
    out = _prepare_out(args.out)
    dataset = Dataset([r.bits for _, _, r in labeled], labels, [r.bits for _, _, r in unlabeled],
                      vocabulary, max(labels, default=1))
    dataset.save_csv(out)
    sources = Path(str(out) + ".sources.csv")
    header = ["filename", "block", "row_in_block", "label", "parsed_lines", "skipped_lines"]
    write_csv(sources, header, (
        [name, block, i, lab, r.n_parsed, r.n_skipped]
        for block, rows in (("labeled", labeled), ("unlabeled", unlabeled))
        for i, (name, lab, r) in enumerate(rows)
    ))
    inputs = [args.vocabulary] + ([args.labels] if args.labels else []) + files
    if args.config:
        inputs.insert(0, args.config)
    _write_manifest(out, "extract", argv, inputs, [out, sources], digests=digests)
    print(f"extract: wrote {dataset.n} labeled + {dataset.m} unlabeled rows to {out}")
    return EXIT_PARTIAL if failures else EXIT_OK


def _load_training_set(path) -> Dataset:
    """A dataset CSV to train on: every class 1..K needs at least 2 labeled rows."""
    dataset = Dataset.load_csv(path)
    lacking = (np.flatnonzero(dataset.class_counts() < 2) + 1).tolist()
    if lacking:
        raise DataFormatError(f"{path}: classes {lacking} have fewer than 2 labeled samples")
    return dataset


def cmd_fit(args, argv) -> int:
    _require_inputs(args.data)
    config = _cem_config(args)
    dataset = _load_training_set(args.data)
    best, scores = model_select.select_model(dataset, args.families, config)
    out = _prepare_out(args.out)
    gmm.save_model(best.fit.model, out)
    report = Path(args.report) if args.report else Path(str(out) + ".selection.csv")
    _prepare_out(report)
    model_select.write_selection_report(report, scores, best)
    inputs = ([args.config] if args.config else []) + [args.data]
    _write_manifest(out, "fit", argv, inputs, [out, report], seed=args.seed)
    print(
        f"fit: selected {best.family} (BIC {best.bic:.4f}, "
        f"{best.param_count} params, converged={best.fit.converged}) -> {out}"
    )
    return EXIT_OK


def cmd_classify(args, argv) -> int:
    _require_inputs(args.model, args.data)
    model = gmm.load_model(args.model)
    if args.positive_label > model.K:
        raise UsageError(
            f"--positive-label {args.positive_label} exceeds the model's {model.K} classes"
        )
    dataset = Dataset.load_csv(args.data)
    if dataset.d != model.d:
        raise DataFormatError(
            f"dimension mismatch: model expects d={model.d}, dataset has d={dataset.d}"
        )
    labels, posteriors = cem.predict(model, dataset.unlabeled_features)
    out = _prepare_out(args.out)
    scores = posteriors[:, args.positive_label - 1].tolist()
    write_csv(out, ["sample_id", "predicted_label", "score"],
              zip(range(len(scores)), labels.tolist(), scores))
    inputs = ([args.config] if args.config else []) + [args.model, args.data]
    _write_manifest(out, "classify", argv, inputs, [out])
    print(f"classify: wrote {len(labels)} predictions to {out}")
    return EXIT_OK


def _load_external_predictions(path, expected: int):
    """sample_id,predicted_label[,score] keyed by 0-based sample id.

    Every id must appear exactly once. Scores are None when no row has a
    score cell. A score on only some rows, or a non-finite one (``nan``
    included), is a data error.
    """
    preds = np.full(expected, evaluation.TIE_LABEL, dtype=np.int64)
    scores = np.full(expected, np.nan)
    seen = np.zeros(expected, dtype=bool)
    given = False
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("sample_id"):
            continue
        parts = line.split(",")
        if len(parts) not in (2, 3):
            raise DataFormatError(f"{path}:{lineno}: expected 2 or 3 cells")
        try:
            idx = int(parts[0])
            label = int(parts[1])
            has_score = len(parts) == 3 and parts[2] != ""
            score = float(parts[2]) if has_score else np.nan
        except ValueError as exc:
            raise DataFormatError(f"{path}:{lineno}: bad id, label or score") from exc
        if not 0 <= idx < expected:
            raise DataFormatError(
                f"{path}:{lineno}: sample_id {idx} outside 0..{expected - 1}"
            )
        if seen[idx]:
            raise DataFormatError(f"{path}:{lineno}: sample_id {idx} given twice")
        preds[idx] = label
        seen[idx] = True
        scores[idx] = score
        given = given or has_score
    if not seen.all():
        missing = int((~seen).sum())
        raise DataFormatError(f"{path}: predictions missing for {missing} sample ids")
    if given and not np.isfinite(scores).all():
        raise DataFormatError(
            f"{path}: {int(np.isfinite(scores).sum())} of {expected} rows have a finite "
            "score; give one for every row or for none"
        )
    return preds, scores if given else None


# The evaluate flags that only some protocols read, by dest.
PROTOCOL_FLAGS = {"folds": ("cv",), "roc_out": ("cv", "cv10"), "oos_data": ("oos",),
                  "fractions": ("oos",), "replicates": ("oos",), "pca_out": ("oos",)}


def cmd_evaluate(args, argv) -> int:
    misplaced = ["--" + dest.replace("_", "-") for dest, protocols in PROTOCOL_FLAGS.items()
                 if getattr(args, dest) is not None and args.protocol not in protocols]
    if misplaced:
        raise UsageError(f"--protocol {args.protocol} does not read {', '.join(misplaced)}")
    _require_inputs(args.data, args.oos_data, args.external_predictions)
    config = _cem_config(args)
    dataset = _load_training_set(args.data)
    positive = args.positive_label
    if positive > dataset.K:
        raise UsageError(
            f"--positive-label {positive} exceeds the training set's {dataset.K} classes"
        )
    out = _prepare_out(args.out)
    extra_outputs = []
    inputs = ([args.config] if args.config else []) + [args.data]
    train_X, train_y = dataset.labeled_features, dataset.labels
    if args.protocol == "oos":
        if not args.oos_data:
            raise UsageError("--protocol oos requires --oos-data")
        fractions = args.fractions or evaluation.DEFAULT_FRACTIONS
        replicates = args.replicates or evaluation.DEFAULT_REPLICATES
        if len(fractions) != len(replicates):
            raise UsageError("--fractions and --replicates must have equal length")
        oos_ds = Dataset.load_csv(args.oos_data)
        if oos_ds.d != dataset.d:
            raise DataFormatError(
                f"dimension mismatch: training data has d={dataset.d}, "
                f"out-of-sample data has d={oos_ds.d}"
            )
        if oos_ds.n + oos_ds.m == 0:
            raise DataFormatError(f"{args.oos_data}: out-of-sample data has no rows")
        pool = np.vstack([oos_ds.labeled_features, oos_ds.unlabeled_features])
        inputs.append(args.oos_data)
        train_rows = dataset.n
    else:
        folds = args.folds or 10
        if folds < 2:
            raise UsageError("--folds must be at least 2")
        counts = dataset.class_counts()
        if counts.min() < folds:
            raise UsageError(f"--folds {folds} exceeds the smallest labeled class ({counts.min()})")
        # mbss and lda need 2 rows per class; a test fold holds <= ceil(c / folds)
        short = (np.flatnonzero(counts - -(-counts // folds) < 2) + 1).tolist()
        if short and {"mbss", "lda"} & set(args.classifiers):
            raise UsageError(f"--folds {folds} leaves classes {short} fewer than 2 training rows")
        pool = train_X
        # Fold sizes differ by at most one, so each training fold has at
        # least n - ceil(n / folds) rows.
        train_rows = dataset.n - -(-dataset.n // folds)
    if "knn" in args.classifiers and args.knn_k > train_rows:
        raise UsageError(f"--knn-k {args.knn_k} exceeds the {train_rows} training rows")
    classifiers = [
        evaluation.CLASSIFIERS[name](config, args.knn_k, positive) for name in args.classifiers
    ]
    scores = None
    if args.external_predictions:
        preds, scores = _load_external_predictions(args.external_predictions, len(pool))
        classifiers.append(
            (Path(args.external_predictions).stem, evaluation.external(preds, scores))
        )
        inputs.append(args.external_predictions)
    # knn gives no scores, and an external file only with a score column
    if args.roc_out and set(args.classifiers) == {"knn"} and scores is None:
        raise UsageError("--roc-out requires a score-producing classifier")
    if args.protocol == "oos":
        rows_by_classifier = {
            name: evaluation.detection_rate(
                clf, train_X, train_y, pool, fractions, replicates, args.seed, positive
            )
            for name, clf in classifiers
        }
        evaluation.write_dr_csv(out, rows_by_classifier)
        if args.pca_out:
            projection = evaluation.pca_project(
                train_X, train_y, pool, n_components=min(4, min(train_X.shape)),
                positive_label=positive,
            )
            _prepare_out(args.pca_out)
            evaluation.write_pca_csv(args.pca_out, projection)
            extra_outputs.append(args.pca_out)
        for name, rows in rows_by_classifier.items():
            summary = ", ".join(f"{r.fraction_pct:g}%={r.dr_mean:.3f}" for r in rows)
            print(f"{name}: DR {summary}")
    else:
        reports = [
            evaluation.cross_validate(dataset, name, clf, folds, args.seed, positive)
            for name, clf in classifiers
        ]
        evaluation.write_cv_csv(out, reports)
        if args.roc_out:
            _prepare_out(args.roc_out)
            roc_points = next(r.roc_points for r in reports if r.roc_points is not None)
            evaluation.write_roc_csv(args.roc_out, roc_points)
            extra_outputs.append(args.roc_out)
        print(evaluation.format_cv_table(reports))
    _write_manifest(out, "evaluate", argv, inputs, [out] + extra_outputs, seed=args.seed)
    return EXIT_OK


def cmd_synth(args, argv) -> int:
    if not 0.0 < args.label_fraction <= 1.0:
        raise UsageError("--label-fraction must be in (0, 1]")
    if len(args.weights) != 2:
        raise UsageError("--weights takes exactly two values")
    try:
        spec = two_class_spec(
            d=args.d,
            separation=args.separation,
            n_samples=args.n,
            label_fraction=args.label_fraction,
            seed=args.seed,
            scale=args.scale,
            rho=args.rho,
            weights=args.weights,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    dataset, truth = sample_mixture(spec)
    if args.binarize_at is not None:
        dataset = Dataset(
            binarize(dataset.labeled_features, args.binarize_at),
            dataset.labels,
            binarize(dataset.unlabeled_features, args.binarize_at),
            dataset.vocabulary,
            dataset.K,
        )
    out = _prepare_out(args.out)
    dataset.save_csv(out)
    truth_path = Path(str(out) + ".truth.csv")
    write_csv(truth_path, ["sample_id", "true_label"], enumerate(truth.tolist()))
    inputs = [args.config] if args.config else []
    _write_manifest(out, "synth", argv, inputs, [out, truth_path], seed=args.seed)
    print(f"synth: wrote {dataset.n} labeled + {dataset.m} unlabeled rows to {out}")
    return EXIT_OK


_HANDLERS = {
    "extract": cmd_extract,
    "fit": cmd_fit,
    "classify": cmd_classify,
    "evaluate": cmd_evaluate,
    "synth": cmd_synth,
}


def _apply_config_defaults(config_path, sub) -> None:
    """Load a --config JSON file as defaults of the subcommand parser ``sub``.

    Explicit flags still win because argparse only falls back to defaults
    for absent options. Required path arguments stay required.
    """
    if not config_path:
        raise UsageError("--config requires a path")
    if not Path(config_path).exists():
        raise UsageError(f"config file does not exist: {config_path}")
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataFormatError(f"{config_path}: not valid JSON: {exc}") from exc
    if not isinstance(values, dict):
        raise DataFormatError(f"{config_path}: config must be a JSON object")
    actions = {action.dest: action for action in sub._actions}
    unknown = sorted(set(values) - (set(actions) - {"help", "config", "command"}))
    if unknown:
        raise UsageError(f"config keys {unknown} are not flags of '{sub.prog}'")

    # argparse runs a flag's type only on string defaults: a value goes in as
    # the text the flag takes (a list comma-separated), so its parser checks it.
    def as_text(key, value):
        if isinstance(value, list):
            return ",".join(map(str, value))
        return value if value is None or actions[key].type is None else str(value)

    sub.set_defaults(**{key: as_text(key, value) for key, value in values.items()})


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = build_parser()
    try:
        # Parse once to find --config in any spelling argparse accepts
        # (--config=PATH, an abbreviation), then again with its defaults.
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config_defaults(args.config, subparsers[args.command])
            args = parser.parse_args(argv)
        return _HANDLERS[args.command](args, argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataFormatError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except MbssError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
