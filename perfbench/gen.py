"""Seeded input generators for the mbss benchmark workloads.

Every generator is a pure function of its seed: the same seed writes
byte-identical files. ``run.py`` calls this module as a child process
(``python3 perfbench/gen.py --workload W --seed N --out DIR``) so that
input generation stays out of the benchmark's own memory peak, and caches
the result per workload and seed.

    select-d160    mbss synth (10% labeled, binarized at 0.8)
    evaluate-d160  mbss synth (50% labeled) plus an all-malicious OOS set
                   with a drift of 0.75 sd on 20 non-separating axes
    corpus         a trace-log corpus over the bundled 160-entry vocabulary,
                   20% of logs labeled, with out-of-vocabulary calls and
                   blank and malformed lines
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

D = 160
BINARIZE_AT = 0.8
SEPARATION = 1.5

SELECT_N = 6000
EVALUATE_N = 1200
# Above 500 rows, so the default ladder's 0.1% fraction still draws a row;
# at 500 it rounds to zero and its 50 refits are skipped.
OOS_N = 800
OOS_DRIFT_SD = 0.75
OOS_DRIFT_AXES = 20
CORPUS_LOGS = 6000
CORPUS_LABEL_FRACTION = 0.2

# Prefixes of the APIs each usage profile calls most, as in
# scripts/make_toy_corpus.py.
MALICIOUS_PREFIXES = (
    "android.telephony", "javax.crypto", "java.security", "dalvik.system",
    "java.lang.reflect", "java.lang.Runtime", "java.net", "org.apache.http",
    "android.util.Base64", "android.app.admin",
)
BENIGN_PREFIXES = (
    "android.app.SharedPreferences", "android.media", "android.view",
    "android.os.Handler", "android.app.NotificationManager",
    "android.app.AlarmManager", "java.io", "android.content.Context",
    "android.database", "android.net.Connectivity", "android.webkit",
)
MALFORMED_LINES = (
    "--------- beginning of main",
    "E/AndroidRuntime: FATAL EXCEPTION: main",
    "monitor-restarted",
    ".onCreate 1600000000",
    "com.example.Widget. 1600000000",
)


def _synth(argv: list[str]) -> None:
    from mbss import cli

    code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"mbss {' '.join(argv)} exited with {code}")


def synth_argv(n: int, label_fraction: float, seed: int, out: Path) -> list[str]:
    return [
        "synth", "--n", str(n), "--d", str(D), "--separation", str(SEPARATION),
        "--label-fraction", str(label_fraction), "--binarize-at", str(BINARIZE_AT),
        "--seed", str(seed), "--out", str(out),
    ]


def make_select(seed: int, out: Path) -> None:
    _synth(synth_argv(SELECT_N, 0.1, seed, out / "train.csv"))


def make_oos(seed: int, path: Path, n: int = OOS_N) -> None:
    """All-malicious set drifted by OOS_DRIFT_SD on the axes after the first."""
    from mbss.dataset import Dataset
    from mbss.synth import binarize, sample_mixture, two_class_spec

    shift = np.zeros(D)
    shift[1:1 + OOS_DRIFT_AXES] = OOS_DRIFT_SD
    spec = two_class_spec(
        d=D, separation=SEPARATION, n_samples=n, label_fraction=1.0,
        seed=seed, weights=(0.0, 1.0), shift=shift,
    )
    ds, _ = sample_mixture(spec)
    Dataset(
        binarize(ds.labeled_features, BINARIZE_AT), ds.labels,
        binarize(ds.unlabeled_features, BINARIZE_AT), ds.vocabulary, ds.K,
    ).save_csv(path)


def make_evaluate(seed: int, out: Path) -> None:
    _synth(synth_argv(EVALUATE_N, 0.5, seed, out / "train.csv"))
    # A seed stream of its own, so the OOS draw never repeats the training draw.
    make_oos(seed + 1_000_003, out / "oos.csv")


def log_lines(rng: np.random.Generator, vocab: list[str], heavy: np.ndarray) -> list[str]:
    """One trace: mostly profile-heavy calls, some noise, never unparseable."""
    n = int(rng.integers(20, 60))
    kind = rng.random(n)
    heavy_pick = heavy[rng.integers(0, heavy.size, n)]
    any_pick = rng.integers(0, len(vocab), n)
    stamps = 1_600_000_000 + np.cumsum(rng.integers(1, 900, n))
    lines = []
    for i in range(n):
        if i > 0 and kind[i] < 0.02:
            lines.append("")
        elif i > 0 and kind[i] < 0.05:
            lines.append(MALFORMED_LINES[int(any_pick[i]) % len(MALFORMED_LINES)])
        elif kind[i] < 0.10:
            lines.append(f"com.vendor.sdk{int(any_pick[i]) % 7}.Tracker.event{i % 5} {stamps[i]}")
        elif kind[i] < 0.40:
            lines.append(f"{vocab[int(heavy_pick[i])]} {stamps[i]}")
        else:
            lines.append(f"{vocab[int(any_pick[i])]} {stamps[i]} pid={1000 + int(any_pick[i])}")
    return lines


def make_corpus(seed: int, out: Path, vocabulary: Path, n_logs: int = CORPUS_LOGS) -> None:
    """Writes logs/, labels.csv (the labeled 20%) and truth.csv (every log)."""
    from mbss.dataset import ApiVocabulary

    vocab = list(ApiVocabulary.from_file(vocabulary).entries)
    profiles = {
        1: np.array([i for i, a in enumerate(vocab) if a.startswith(BENIGN_PREFIXES)]),
        2: np.array([i for i, a in enumerate(vocab) if a.startswith(MALICIOUS_PREFIXES)]),
    }
    rng = np.random.default_rng(seed)
    classes = np.where(rng.random(n_logs) < 0.5, 1, 2)
    labeled = rng.random(n_logs) < CORPUS_LABEL_FRACTION
    # Both classes need labeled members for the fit to start.
    labeled[np.flatnonzero(classes == 1)[:2]] = True
    labeled[np.flatnonzero(classes == 2)[:2]] = True
    logs = out / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    names = [f"app_{i:05d}.log" for i in range(n_logs)]
    for name, cls in zip(names, classes):
        text = "\n".join(log_lines(rng, vocab, profiles[int(cls)])) + "\n"
        (logs / name).write_text(text, encoding="utf-8")
    with open(out / "labels.csv", "w", encoding="utf-8") as fh:
        fh.write("filename,label\n")
        for name, cls, lab in zip(names, classes, labeled):
            if lab:
                fh.write(f"{name},{int(cls)}\n")
    with open(out / "truth.csv", "w", encoding="utf-8") as fh:
        fh.write("filename,label\n")
        for name, cls in zip(names, classes):
            fh.write(f"{name},{int(cls)}\n")


def generate(workload: str, seed: int, out: Path, root: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    if workload == "select-d160":
        make_select(seed, out)
    elif workload == "evaluate-d160":
        make_evaluate(seed, out)
    elif workload == "corpus":
        make_corpus(seed, out, root / "src" / "mbss" / "data" / "default_api_vocabulary.txt")
    else:
        raise ValueError(f"unknown workload {workload!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    generate(args.workload, args.seed, Path(args.out), root)
    return 0


if __name__ == "__main__":
    sys.exit(main())
