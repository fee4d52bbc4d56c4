"""The mbss benchmark: seeded workloads through the real CLI, with output hashes.

Usage, from the repository root:

    python3 perfbench/run.py --workload select-d160 --seed 1 --seconds 32 --trace 0

One process per run. A single client calls ``mbss.cli.main(argv)``
in-process, one command after another (a closed loop with no extra threads
or processes). OpenBLAS is pinned to one thread; see BLAS_THREADS. A
*round* is the workload's command sequence; rounds repeat until
``--seconds`` would be exceeded, and times are medians over rounds.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates traced and untraced rounds and prints the
per-layer metrics: medians over traced rounds of the spans that
``spans.py`` records around each layer's public functions, plus the tracing
overhead (median traced round minus median untraced round).

Inputs come from ``gen.py``, run as a child process, and are cached per
workload and seed under ``.perfbench_work/``. Outputs go to a fixed path per
workload and seed, so their SHA-256 digests (manifests included) must agree
across all rounds of a run, traced and untraced alike. Once per run, untimed,
the bundled toy corpus goes through extract, fit and classify as an
exit-code check. A non-zero exit or a digest mismatch counts as a failed
command. The run prints one combined digest of its outputs and one of the
toy outputs, so that runs of two commits can be compared; a change that
alters outputs changes them. The last line of standard output is the JSON
result; the full record (environment, inputs, per-round times, digests,
checks) is written to ``.perfbench_work/results/``. The exit code is 0 only when every
correctness check passes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

# spans imports no numpy, so OpenBLAS is still unloaded when main() pins it.
from spans import Tracer, install, round_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = Path(".perfbench_work")
SETUP_SAMPLES = 15
KEEP_INPUTS = 12
# select-d160's fits stop at this many CEM iterations; see select_commands.
SELECT_MAX_ITERATIONS = "3"
# numpy and scipy each load their own OpenBLAS. At their default of one
# thread per CPU, the two pools spin against each other on a 2-CPU machine:
# an evaluate-d160 round (800 training rows, 600 OOS rows) took 8.3-10.2 s
# instead of 3.0-3.4 s at one thread.
# Outputs differ in the last bits between thread counts, so the count is
# fixed, for the set-up samples and the input generator too.
BLAS_THREADS = "1"


@dataclass(frozen=True)
class Command:
    stage: str
    argv: list[str]
    outputs: list[str]


@dataclass
class Round:
    traced: bool
    wall: float
    stage_s: dict[str, float]
    codes: dict[str, int]
    digests: dict[str, str]
    layers: dict[str, float] = field(default_factory=dict)
    spans: list = field(default_factory=list)


# --- workloads ----------------------------------------------------------------


def select_commands(inp: Path, out: Path, seed: int) -> list[Command]:
    # Capped: uncapped, VVV's iteration count varies with the seed and sets the
    # round time. A change in convergence speed does not show on this workload.
    data = str(inp / "train.csv")
    model = str(out / "model.json")
    return [
        Command("fit", ["fit", "--data", data, "--max-iterations", SELECT_MAX_ITERATIONS,
                        "--out", model],
                [model, model + ".selection.csv", model + ".manifest.json"]),
        Command("classify", ["classify", "--model", model, "--data", data,
                             "--out", str(out / "pred.csv")],
                [str(out / "pred.csv"), str(out / "pred.csv.manifest.json")]),
    ]


def evaluate_commands(inp: Path, out: Path, seed: int) -> list[Command]:
    data = str(inp / "train.csv")
    common = ["--data", data, "--seed", str(seed)]
    return [
        Command("cv", ["evaluate", *common, "--protocol", "cv10",
                       "--classifiers", "mbss,knn,lda", "--roc-out", str(out / "roc.csv"),
                       "--out", str(out / "cv.csv")],
                [str(out / "cv.csv"), str(out / "roc.csv"), str(out / "cv.csv.manifest.json")]),
        Command("oos", ["evaluate", *common, "--protocol", "oos",
                        "--classifiers", "mbss,lda", "--oos-data", str(inp / "oos.csv"),
                        "--pca-out", str(out / "pca.csv"), "--out", str(out / "dr.csv")],
                [str(out / "dr.csv"), str(out / "pca.csv"), str(out / "dr.csv.manifest.json")]),
    ]


def pipeline_commands(logs: Path, labels: Path, out: Path, fit_flags: list[str],
                      extra: list[str] = ()) -> list[Command]:
    data = str(out / "corpus.csv")
    model = str(out / "model.json")
    pred = str(out / "pred.csv")
    return [
        Command("extract", ["extract", "--logs", str(logs), "--labels", str(labels),
                            *extra, "--out", data],
                [data, data + ".sources.csv", data + ".manifest.json"]),
        Command("fit", ["fit", "--data", data, *fit_flags, "--out", model],
                [model, model + ".selection.csv", model + ".manifest.json"]),
        Command("classify", ["classify", "--model", model, "--data", data, "--out", pred],
                [pred, pred + ".manifest.json"]),
    ]


def corpus_commands(inp: Path, out: Path, seed: int) -> list[Command]:
    return pipeline_commands(inp / "logs", inp / "labels.csv", out,
                             ["--families", "VVI"])


def toy_commands(out: Path) -> list[Command]:
    toy = Path("data") / "toy_corpus"
    return pipeline_commands(toy / "logs", toy / "labels.csv", out, [],
                             ["--vocabulary", str(toy / "api_vocabulary.txt")])


def read_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def agreement(predicted: list[int], truth: list[int]) -> float:
    if len(predicted) != len(truth) or not truth:
        raise ValueError(f"{len(predicted)} predictions for {len(truth)} truth labels")
    return sum(p == t for p, t in zip(predicted, truth)) / len(truth)


def select_quality(inp: Path, out: Path) -> tuple[dict, dict]:
    truth = [int(r["true_label"]) for r in read_rows(inp / "train.csv.truth.csv")]
    pred = [int(r["predicted_label"]) for r in read_rows(out / "pred.csv")]
    acc = agreement(pred, truth)
    chosen = [r["family"] for r in read_rows(out / "model.json.selection.csv") if r["selected"] == "1"]
    report = {"select_acc": acc, "selected_family": chosen[0] if chosen else None}
    return report, {"select_acc >= 0.6": acc >= 0.6, "one family selected": len(chosen) == 1}


def evaluate_quality(inp: Path, out: Path) -> tuple[dict, dict]:
    cv = {(r["classifier"], r["fold"]): r for r in read_rows(out / "cv.csv")}
    dr = {(r["classifier"], float(r["fraction_pct"])): float(r["dr_mean"])
          for r in read_rows(out / "dr.csv")}
    n_oos = sum(1 for _ in open(inp / "oos.csv", encoding="utf-8")) - 1
    n_train = len([r for r in read_rows(inp / "train.csv") if r["label"]])
    report = {
        "cv_acc_mbss": float(cv[("mbss", "mean")]["accuracy"]),
        "cv_acc_lda": float(cv[("lda", "mean")]["accuracy"]),
        "dr_mbss_100": dr[("mbss", 100.0)],
        "dr_lda_100": dr[("lda", 100.0)],
    }
    checks = {
        "cv_acc_mbss >= 0.6": report["cv_acc_mbss"] >= 0.6,
        "dr_mbss_100 > dr_lda_100 (drift effect)": report["dr_mbss_100"] > report["dr_lda_100"],
        "pca rows = labeled + oos": len(read_rows(out / "pca.csv")) == n_train + n_oos,
        "roc has points": len(read_rows(out / "roc.csv")) > 2,
    }
    return report, checks


def corpus_quality(inp: Path, out: Path) -> tuple[dict, dict]:
    truth = {r["filename"]: int(r["label"]) for r in read_rows(inp / "truth.csv")}
    sources = read_rows(out / "corpus.csv.sources.csv")
    unlabeled = [truth[r["filename"]] for r in sources if r["block"] == "unlabeled"]
    pred = [int(r["predicted_label"]) for r in read_rows(out / "pred.csv")]
    acc = agreement(pred, unlabeled)
    report = {"corpus_acc": acc}
    return report, {"corpus_acc >= 0.8": acc >= 0.8, "every log extracted": len(sources) == len(truth)}


@dataclass(frozen=True)
class Workload:
    commands: Callable[[Path, Path, int], list[Command]]
    quality: Callable[[Path, Path], tuple[dict, dict]]
    accuracy_key: str


WORKLOADS = {
    "select-d160": Workload(select_commands, select_quality, "select_acc"),
    "evaluate-d160": Workload(evaluate_commands, evaluate_quality, "dr_mbss_100"),
    "corpus": Workload(corpus_commands, corpus_quality, "corpus_acc"),
}


# --- measurement --------------------------------------------------------------


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def run_round(cli, commands: list[Command], tracer=None) -> Round:
    """One closed-loop pass over the commands; digests are taken after the clock stops."""
    stage_s, codes = {}, {}
    sink = io.StringIO()
    patch = install(tracer) if tracer is not None else contextlib.nullcontext()
    main = tracer.wrap(cli.main, "cli.main") if tracer is not None else cli.main
    with patch, contextlib.redirect_stdout(sink):
        start = time.perf_counter()
        for cmd in commands:
            t0 = time.perf_counter()
            codes[cmd.stage] = main(list(cmd.argv))
            stage_s[cmd.stage] = time.perf_counter() - t0
        wall = time.perf_counter() - start
    digests = {}
    for cmd in commands:
        for path in cmd.outputs:
            digests[path] = sha256(path) if os.path.exists(path) else "missing"
    return Round(tracer is not None, wall, stage_s, codes, digests)


def count_failures(commands: list[Command], rounds: list[Round], reference: dict) -> int:
    """Commands that exited non-zero or wrote a digest other than the reference."""
    failed = 0
    for r in rounds:
        for cmd in commands:
            bad_digest = any(r.digests[p] != reference[p] for p in cmd.outputs)
            failed += int(r.codes[cmd.stage] != 0 or bad_digest)
    return failed


def manifests_consistent(commands: list[Command], digests: dict) -> bool:
    """Each manifest's output digests equal the digests the benchmark took."""
    for cmd in commands:
        for path in cmd.outputs:
            if path.endswith(".manifest.json") and digests.get(path, "missing") != "missing":
                with open(path, encoding="utf-8") as fh:
                    recorded = json.load(fh)["outputs"]
                if any(digests.get(p) != d for p, d in recorded.items()):
                    return False
    return True


def combined_digest(digests: dict) -> str:
    """One SHA-256 over every (path, digest) pair, for comparing runs at a glance."""
    h = hashlib.sha256()
    for path in sorted(digests):
        h.update(f"{path}\0{digests[path]}\n".encode())
    return h.hexdigest()


def measure_setup(samples: int = SETUP_SAMPLES) -> list[float]:
    """Process start to ``mbss.cli`` imported, in fresh interpreters (one warm-up)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time, mbss.cli; print(repr(time.time()))"
    times = []
    for i in range(samples + 1):
        start = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing mbss.cli failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout.strip()) - start)
    return times


def prepare_inputs(workload: str, seed: int) -> Path:
    """Cached per workload and seed; the newest KEEP_INPUTS seeds are kept."""
    base = WORK / "inputs"
    inp = base / f"{workload}-s{seed}"
    if not (inp / ".complete").exists():
        shutil.rmtree(inp, ignore_errors=True)
        proc = subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(inp)],
            capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed: {proc.stderr.strip()}")
        (inp / ".complete").write_text("", encoding="utf-8")
    os.utime(inp / ".complete")
    cached = sorted(base.glob(f"{workload}-s*/.complete"), key=lambda p: p.stat().st_mtime)
    for old in cached[:-KEEP_INPUTS]:
        shutil.rmtree(old.parent, ignore_errors=True)
    return inp


def input_sizes(inp: Path) -> dict:
    sizes = {}
    for path in sorted(inp.iterdir()):
        if path.is_dir():
            files = list(path.iterdir())
            sizes[path.name] = {"files": len(files), "bytes": sum(f.stat().st_size for f in files)}
        elif path.suffix == ".csv":
            with open(path, encoding="utf-8") as fh:
                sizes[path.name] = {"rows": sum(1 for _ in fh) - 1, "bytes": path.stat().st_size}
    return sizes


def blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS, asked through its own API."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(glob.glob(str(libs / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    fn = getattr(handle, symbol)
                    fn.restype = ctypes.c_int
                    out[Path(lib).name] = fn()
                    break
    return out


def environment(workload: str, seed: int, inp: Path) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workload": workload,
        "seed": seed,
        "input_sizes": input_sizes(inp),
    }


def median(values) -> float:
    return float(statistics.median(values))


def measure(cli, commands: list[Command], seconds: float, traced: bool) -> list[Round]:
    """Rounds until the next would overrun ``seconds``; traced runs alternate T, U, T, ..."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced and len(rounds) % 2 == 0 else None
        r = run_round(cli, commands, tracer)
        if tracer is not None:
            r.layers = round_metrics(tracer.spans)
            r.spans = tracer.spans
        rounds.append(r)
        elapsed = time.perf_counter() - start
        next_wall = max(x.wall for x in rounds[-2:])
        if elapsed + next_wall > seconds and (not traced or len(rounds) >= 2):
            return rounds


def layer_metrics(rounds: list[Round]) -> dict[str, float]:
    traced = [r for r in rounds if r.traced]
    untraced = [r for r in rounds if not r.traced]
    out = {name: median([r.layers[name] for r in traced]) for name in traced[0].layers}
    t_wall = median([r.wall for r in traced])
    u_wall = median([r.wall for r in untraced])
    out["trace.overhead_s"] = t_wall - u_wall
    out["trace.overhead_ratio"] = (t_wall - u_wall) / u_wall
    return out


def write_spans(path: Path, rounds: list[Round]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["round", "id", "name", "start", "end", "parent", "error"])
        for n, r in enumerate(rounds):
            for i, s in enumerate(r.spans):
                writer.writerow([n, i, s.name, repr(s.start), repr(s.end),
                                 "" if s.parent is None else s.parent, int(s.error)])


def load_benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mbss benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    spec = load_benchmark_spec()

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import mbss.cli as cli
    except ModuleNotFoundError as exc:
        print(f"perfbench: cannot import mbss from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "mbss":
        raise RuntimeError(f"mbss imported from {cli.__file__}, not from src/")

    setup = measure_setup()
    workload = WORKLOADS[args.workload]
    inp = prepare_inputs(args.workload, args.seed)
    env = environment(args.workload, args.seed, inp)
    print(f"perfbench: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print("environment: " + json.dumps(env, sort_keys=True))

    # Untimed toy-corpus check: exit codes and digests of the bundled data.
    toy_cmds = toy_commands(WORK / "out" / "toy")
    toy = run_round(cli, toy_cmds)
    toy_failed = sum(code != 0 for code in toy.codes.values())
    toy_report = {"exit_codes": toy.codes, "digest": combined_digest(toy.digests)}
    if toy.codes["fit"] == 0:
        # ROADMAP item 2: the winner can have more parameters than there are rows.
        toy_rows = len(read_rows(WORK / "out" / "toy" / "corpus.csv.sources.csv"))
        chosen = [r for r in read_rows(WORK / "out" / "toy" / "model.json.selection.csv")
                  if r["selected"] == "1"][0]
        toy_report.update(selected=chosen["family"], params=int(chosen["params"]),
                          rows=toy_rows, loglik=float(chosen["loglik"]))
    print("toy corpus: " + json.dumps(toy_report))

    out = WORK / "out" / f"{args.workload}-s{args.seed}"
    out.mkdir(parents=True, exist_ok=True)
    commands = workload.commands(inp, out, args.seed)
    rounds = measure(cli, commands, args.seconds, bool(args.trace))
    # The first round of this run is the reference: every later round, traced
    # or not, must write the same bytes. Comparing runs of two commits is left
    # to the printed and recorded digests.
    reference = rounds[0].digests
    failed = toy_failed + count_failures(commands, rounds, reference)
    attempted = len(toy_cmds) + len(commands) * len(rounds)

    checks = {
        f"OpenBLAS at {BLAS_THREADS} thread": all(
            str(n) == BLAS_THREADS for n in env["blas_threads"].values()),
        "all exit codes 0": all(c == 0 for r in [toy, *rounds] for c in r.codes.values()),
        "digests agree across rounds": failed == 0,
        "manifests match outputs": manifests_consistent(commands, rounds[0].digests)
        and manifests_consistent(toy_cmds, toy.digests),
    }
    quality = {}
    try:
        quality, quality_checks = workload.quality(inp, out)
        checks.update(quality_checks)
    except (OSError, KeyError, ValueError) as exc:
        checks[f"quality readable ({exc})"] = False
    correct = all(checks.values())

    untraced = [r for r in rounds if not r.traced]
    stages = {f"{c.stage}_s": median([r.stage_s[c.stage] for r in untraced]) for c in commands}
    report = {
        "wall_s": median([r.wall for r in untraced]),
        "setup_s": median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy": quality.get(workload.accuracy_key, 0.0),
        "ok_ratio": 1.0 - failed / attempted,
        "failed_ratio": failed / attempted,
        **stages,
        **quality,
    }
    print(f"rounds: {len(untraced)} untraced, {len(rounds) - len(untraced)} traced; "
          f"setup samples: {len(setup)}; times are medians")
    for key, value in report.items():
        print(f"  {key:<14} {value!r}")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")

    per_layer = layer_metrics(rounds) if args.trace else None
    metrics = per_layer if args.trace else report
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{args.workload}-s{args.seed}-trace{args.trace}"
    record = {
        "environment": env,
        "toy": toy_report,
        "report": report,
        "per_layer": per_layer,
        "checks": checks,
        "rounds": [{"traced": r.traced, "wall_s": r.wall, "stage_s": r.stage_s,
                    "exit_codes": r.codes} for r in rounds],
        "digests": reference,
        "toy_digests": toy.digests,
        "commands": [c.argv for c in commands],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                         encoding="utf-8")
    if args.trace:
        write_spans(stem.with_suffix(".spans.csv"), rounds)
    print(f"digest: {combined_digest(reference)} (toy {toy_report['digest']})")
    print(f"record: {stem.with_suffix('.json')}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
