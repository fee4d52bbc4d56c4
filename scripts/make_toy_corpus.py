#!/usr/bin/env python3
"""Regenerate the 50-log toy trace corpus from the bundled API vocabulary.

The vocabulary, src/mbss/data/default_api_vocabulary.txt, is a
representative union of the Android APIs monitored by public
dynamic-analysis hook lists (AndroidEagleEye, Droidmon, Droidbox). It is
NOT any project's canonical list; it exists so the extraction pipeline runs
out of the box. The toy corpus is synthetic: benign-profile and
malicious-profile logs drawn deterministically from two API usage
distributions, plus a copy of the vocabulary's identities in
data/toy_corpus/api_vocabulary.txt.

Run from the repository root:  python3 scripts/make_toy_corpus.py
"""

from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
VOCAB_PACKAGE_PATH = ROOT / "src" / "mbss" / "data" / "default_api_vocabulary.txt"
CORPUS_DIR = ROOT / "data" / "toy_corpus"

# One API identity per line; blank and "#" lines are skipped.
API_LIST = [
    api
    for api in map(str.strip, VOCAB_PACKAGE_PATH.read_text(encoding="utf-8").splitlines())
    if api and not api.startswith("#")
]

# Index ranges used to shape the two usage profiles.
MALICIOUS_HEAVY = [
    i
    for i, api in enumerate(API_LIST)
    if api.startswith(
        (
            "android.telephony",
            "javax.crypto",
            "java.security",
            "dalvik.system",
            "java.lang.reflect",
            "java.lang.Runtime",
            "java.net",
            "org.apache.http",
            "android.util.Base64",
            "android.app.admin",
        )
    )
]
BENIGN_HEAVY = [
    i
    for i, api in enumerate(API_LIST)
    if api.startswith(
        (
            "android.app.SharedPreferences",
            "android.media",
            "android.view",
            "android.os.Handler",
            "android.app.NotificationManager",
            "android.app.AlarmManager",
            "java.io",
            "android.content.Context",
            "android.database",
            "android.net.Connectivity",
            "android.webkit",
        )
    )
]


def write_log(path: Path, rng: np.random.Generator, profile: str) -> None:
    heavy = MALICIOUS_HEAVY if profile == "malicious" else BENIGN_HEAVY
    n_lines = int(rng.integers(25, 70))
    lines = []
    t = 1_600_000_000 + int(rng.integers(0, 10_000_000))
    for _ in range(n_lines):
        if rng.random() < 0.75:
            idx = int(rng.choice(heavy))
        else:
            idx = int(rng.integers(0, len(API_LIST)))
        t += int(rng.integers(1, 900))
        suffix = f" {t}" if rng.random() < 0.8 else f" {t} pid={int(rng.integers(100, 30000))}"
        lines.append(API_LIST[idx] + suffix)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_corpus() -> None:
    logs_dir = CORPUS_DIR / "logs"
    logs_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(20240601)
    labels = []
    for i in range(15):
        name = f"benign_{i:03d}.log"
        write_log(logs_dir / name, rng, "benign")
        labels.append((name, 1))
    for i in range(15):
        name = f"malicious_{i:03d}.log"
        write_log(logs_dir / name, rng, "malicious")
        labels.append((name, 2))
    for i in range(20):
        profile = "malicious" if rng.random() < 0.5 else "benign"
        write_log(logs_dir / f"sample_{i:03d}.log", rng, profile)
    with open(CORPUS_DIR / "labels.csv", "w", encoding="utf-8") as fh:
        fh.write("filename,label\n")
        for name, label in labels:
            fh.write(f"{name},{label}\n")
    with open(CORPUS_DIR / "api_vocabulary.txt", "w", encoding="utf-8") as fh:
        for api in API_LIST:
            fh.write(api + "\n")


def main() -> None:
    write_corpus()
    print(f"corpus: {CORPUS_DIR} (50 logs, 30 labeled)")


if __name__ == "__main__":
    main()
