"""In-memory span tracing of mbss layers, installed from outside the package.

A ``Tracer`` wraps the public functions of each mbss module and records one
``Span`` per call: name, start, end, parent and a few attributes taken from
the call's arguments or result. ``install`` patches the wrappers into the
modules and restores the originals on exit, so untraced code runs with no
wrapper at all. ``round_metrics`` turns the spans of one workload round into
the per-layer metrics listed in BENCHMARK.json (all but the two
``trace.overhead`` ones, which compare traced with untraced rounds).

Wrapping caveats: ``mbss.cli`` binds ``parse_log``, ``build_vocabulary`` and
``stratified_folds`` by name (as does ``mbss.evaluation`` for
``stratified_folds``), so those are patched in every module that holds
them. Calls inside ``gmm`` and ``cem`` go through module globals, so
patching the module attribute catches them. ``gmm.log_density`` is left
unwrapped: the density kernels count towards ``gmm.log_joint``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    error: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from wrapped callables; one thread, nested calls."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._clock = clock

    def wrap(self, fn, name: str, attrs=None):
        """Return ``fn`` recording a span; ``attrs(args, kwargs, result)`` adds attributes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = self._clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self._clock()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


# --- what to wrap -----------------------------------------------------------


def _parse_attrs(args, kwargs, result):
    return {"parsed": result.n_parsed, "skipped": result.n_skipped}


def _save_attrs(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _load_attrs(args, kwargs, result):
    return {"rows": result.n + result.m}


def _log_joint_attrs(args, kwargs, result):
    return {"row_components": int(result.size)}


def _fit_attrs(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


def _select_attrs(args, kwargs, result):
    families = args[1] if len(args) > 1 else kwargs["families"]
    return {"failed": len(list(families)) - len(result[1])}


def _knn_attrs(args, kwargs, result):
    return {"queries": len(result)}


# (module, attribute, span name, attribute function). A dotted attribute
# names a method; every entry is patched on the object that owns it.
TARGETS = [
    ("mbss.dataset", "parse_log", "dataset.parse_log", _parse_attrs),
    ("mbss.cli", "parse_log", "dataset.parse_log", _parse_attrs),
    ("mbss.cli", "build_vocabulary", "dataset.build_vocabulary", None),
    ("mbss.dataset", "Dataset.save_csv", "dataset.save_csv", _save_attrs),
    ("mbss.dataset", "Dataset.load_csv", "dataset.load_csv", _load_attrs),
    ("mbss.dataset", "stratified_folds", "dataset.stratified_folds", None),
    ("mbss.evaluation", "stratified_folds", "dataset.stratified_folds", None),
    ("mbss.cli", "stratified_folds", "dataset.stratified_folds", None),
    ("mbss.gmm", "log_joint", "gmm.log_joint", _log_joint_attrs),
    ("mbss.gmm", "log_responsibilities", "gmm.log_responsibilities", None),
    ("mbss.gmm", "complete_log_likelihood", "gmm.complete_log_likelihood", None),
    ("mbss.gmm", "observed_log_likelihood", "gmm.observed_log_likelihood", None),
    ("mbss.gmm", "make_component", "gmm.make_component", None),
    ("mbss.gmm", "ComponentParams.__post_init__", "gmm.ComponentParams", None),
    ("mbss.gmm", "estimate_family_covariances", "gmm.estimate_family_covariances", None),
    ("mbss.gmm", "save_model", "gmm.save_model", None),
    ("mbss.gmm", "load_model", "gmm.load_model", None),
    ("mbss.cem", "fit", "cem.fit", _fit_attrs),
    ("mbss.cem", "initialize", "cem.initialize", None),
    ("mbss.cem", "e_step", "cem.e_step", None),
    ("mbss.cem", "hard_assign", "cem.hard_assign", None),
    ("mbss.cem", "cm_step", "cem.cm_step", None),
    ("mbss.cem", "predict", "cem.predict", None),
    ("mbss.model_select", "select_model", "model_select.select_model", _select_attrs),
    ("mbss.model_select", "write_selection_report", "model_select.write_selection_report", None),
    ("mbss.evaluation", "cross_validate", "evaluation.cross_validate", None),
    ("mbss.evaluation", "detection_rate", "evaluation.detection_rate", None),
    ("mbss.evaluation", "roc_auc", "evaluation.roc_auc", None),
    ("mbss.evaluation", "pca_project", "evaluation.pca_project", None),
    ("mbss.evaluation", "confusion", "evaluation.confusion", None),
    ("mbss.evaluation", "write_cv_csv", "evaluation.write_cv_csv", None),
    ("mbss.evaluation", "write_roc_csv", "evaluation.write_roc_csv", None),
    ("mbss.evaluation", "write_dr_csv", "evaluation.write_dr_csv", None),
    ("mbss.evaluation", "write_pca_csv", "evaluation.write_pca_csv", None),
    ("mbss.baselines", "knn_predict_all", "baselines.knn_predict_all", _knn_attrs),
    ("mbss.baselines", "lda_fit", "baselines.lda_fit", None),
    ("mbss.baselines", "lda_predict_all", "baselines.lda_predict_all", None),
]


@contextlib.contextmanager
def install(tracer: Tracer):
    """Patch traced wrappers into the mbss modules; restore them on exit."""
    saved = []
    try:
        for module_name, attr, name, attrs in TARGETS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            if isinstance(original, classmethod):
                patched = classmethod(tracer.wrap(original.__func__, name, attrs))
            else:
                patched = tracer.wrap(original, name, attrs)
            saved.append((owner, leaf, original))
            setattr(owner, leaf, patched)
        yield tracer
    finally:
        for owner, leaf, original in reversed(saved):
            setattr(owner, leaf, original)


# --- per-layer metrics --------------------------------------------------------

def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, as numpy.percentile computes it."""
    ordered = sorted(values)
    k = (len(ordered) - 1) * q / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def round_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one round's spans (all but the trace.overhead ones).

    ``.s`` is inclusive busy time, ``.self_s`` excludes child spans. The
    benchmark's own ``cli.main`` span around each command gives
    ``cli.self_s``: argument parsing, manifest hashing and the CSV writers
    that live in the cli module.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        by_name.setdefault(span.name, []).append(i)

    def calls(name):
        return float(len(by_name.get(name, ())))

    def total(name):
        return float(sum(spans[i].duration for i in by_name.get(name, ())))

    def own_total(name):
        return float(sum(own[i] for i in by_name.get(name, ())))

    def attr_sum(name, key):
        return float(sum(spans[i].attrs.get(key, 0) for i in by_name.get(name, ())))

    fit_ms = [spans[i].duration * 1e3 for i in by_name.get("cem.fit", ())]
    iterations = attr_sum("cem.fit", "iterations")
    parsed = attr_sum("dataset.parse_log", "parsed")
    skipped = attr_sum("dataset.parse_log", "skipped")
    escalations = sum(
        1 for i in by_name.get("gmm.ComponentParams", ())
        if spans[i].error and spans[i].parent is not None
        and spans[spans[i].parent].name == "gmm.make_component"
    )
    m = {
        "gmm.log_joint.calls": calls("gmm.log_joint"),
        "gmm.log_joint.self_s": own_total("gmm.log_joint"),
        "gmm.log_joint.row_components": attr_sum("gmm.log_joint", "row_components"),
        "gmm.make_component.calls": calls("gmm.make_component"),
        "gmm.make_component.s": total("gmm.make_component"),
        "gmm.make_component.ridge_escalations": float(escalations),
        "gmm.complete_log_likelihood.s": total("gmm.complete_log_likelihood"),
        "gmm.observed_log_likelihood.s": total("gmm.observed_log_likelihood"),
        "cem.fit.calls": calls("cem.fit"),
        "cem.fit.s": total("cem.fit"),
        "cem.fit.ms.p50": percentile(fit_ms, 50) if fit_ms else 0.0,
        "cem.fit.ms.p90": percentile(fit_ms, 90) if fit_ms else 0.0,
        "cem.iterations": iterations,
        "cem.ms_per_iteration": total("cem.fit") * 1e3 / iterations if iterations else 0.0,
        "cem.converged_ratio": (
            attr_sum("cem.fit", "converged") / len(fit_ms) if fit_ms else 0.0
        ),
        "model_select.families_failed": attr_sum("model_select.select_model", "failed"),
        "baselines.knn_predict_all.queries": attr_sum("baselines.knn_predict_all", "queries"),
        "dataset.parse_log.calls": calls("dataset.parse_log"),
        "dataset.parse_log.skipped_ratio": (
            skipped / (parsed + skipped) if parsed + skipped else 0.0
        ),
        "dataset.save_csv.bytes": attr_sum("dataset.save_csv", "bytes"),
        "dataset.load_csv.rows": attr_sum("dataset.load_csv", "rows"),
        "cli.self_s": own_total("cli.main"),
        "trace.spans": float(len(spans)),
    }
    for name in ("cem.initialize", "cem.e_step", "cem.cm_step"):
        m[f"{name}.calls"] = calls(name)
    for name in (
        "cem.initialize", "cem.e_step", "cem.cm_step", "model_select.select_model",
        "evaluation.cross_validate", "evaluation.detection_rate", "evaluation.roc_auc",
        "evaluation.pca_project", "baselines.knn_predict_all", "baselines.lda_fit",
        "baselines.lda_predict_all", "dataset.parse_log", "dataset.save_csv",
        "dataset.load_csv",
    ):
        m[f"{name}.s"] = total(name)
    return m
