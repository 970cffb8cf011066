"""In-memory span tracer that wraps bvbal's public call sites.

Each wrapped call records one span: (name, start, end, parent span,
operation id, counts).  Spans stay in memory until `dump` writes them out
at the end of a run.  Only public names are wrapped, and each is wrapped
at the module (or class) through which bvbal calls it, so no source file
of the package changes.  Calls on other threads or in worker processes
are not seen: traced operations run with one worker.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import bvbal.calibration
import bvbal.cli
import bvbal.estimators
import bvbal.experiments
import bvbal.oracles
import bvbal.queueing


def _synthetic_counts(args, result):
    oracle, deltas = args[0], args[1]
    return {"variates": len(deltas) * oracle.dim}


def _queue_counts(args, result):
    oracle, deltas = args[0], args[1]
    n, k = len(deltas), oracle.params.num_customers
    # one (n, 2, 2, k) uniform block; two Lindley sweeps of k - 1 steps
    return {"uniforms": n * 4 * k, "lindley_steps": n * 2 * (k - 1)}


def _scheme_counts(args, result):
    return {"weight_bytes": result.weights.nbytes}


def _report_counts(args, result):
    return {"report_bytes": len(result)}


# (owner, attribute, span name, count function); owners are the modules or
# classes through which bvbal (or the benchmark) makes the call
WRAPPED = (
    (bvbal.experiments, "run_experiment", "experiments.run_experiment", None),
    (bvbal.experiments, "reproduce_table", "experiments.reproduce_table", None),
    (bvbal.experiments.ExperimentReport, "json_text", "experiments.json_text", _report_counts),
    (bvbal.experiments, "optimal_weights", "calibration.optimal_weights", _scheme_counts),
    (bvbal.experiments, "xi_matrix", "calibration.xi_matrix", None),
    (bvbal.experiments, "recursion_coefficients", "estimators.recursion_coefficients", None),
    (bvbal.experiments, "averaged_coefficients", "estimators.averaged_coefficients", None),
    (bvbal.calibration, "optimal_weights", "calibration.optimal_weights", _scheme_counts),
    (bvbal.calibration, "xi_matrix", "calibration.xi_matrix", None),
    (bvbal.calibration, "solve_a_star", "calibration.solve_a_star", None),
    (bvbal.calibration.WeightScheme, "deltas", "calibration.WeightScheme.deltas", None),
    (bvbal.cli, "main", "cli.main", None),
    (bvbal.cli, "optimal_weights", "calibration.optimal_weights", _scheme_counts),
    (bvbal.estimators, "weighted_estimate", "estimators.weighted_estimate", None),
    (bvbal.estimators.DeltaSchedule, "deltas", "estimators.DeltaSchedule.deltas", None),
    (bvbal.oracles.SyntheticOracleSpec, "sample_path", "oracles.sample_path", _synthetic_counts),
    (bvbal.oracles.StreamKey, "generator", "oracles.generator", None),
    (bvbal.queueing.MM1DerivativeOracle, "sample_path", "queueing.sample_path", _queue_counts),
)


# span name -> the per-layer metric its self time adds to
SELF_TIME_METRIC = {
    "experiments.run_experiment": "experiments.self_s",
    "experiments.reproduce_table": "experiments.self_s",
    "experiments.json_text": "experiments.serialize_s",
    "calibration.optimal_weights": "calibration.materialise_s",
    "calibration.WeightScheme.deltas": "calibration.materialise_s",
    "calibration.xi_matrix": "calibration.xi_matrix_s",
    "calibration.solve_a_star": "calibration.solve_a_star_s",
    "estimators.recursion_coefficients": "estimators.coeff_build_s",
    "estimators.averaged_coefficients": "estimators.coeff_build_s",
    "estimators.DeltaSchedule.deltas": "estimators.schedule_s",
    "estimators.weighted_estimate": "estimators.reduce_s",
    "oracles.sample_path": "oracles.sample_s",
    "oracles.generator": "oracles.sample_s",
    "queueing.sample_path": "queueing.sample_s",
    "cli.main": "cli.format_s",
}
# span name -> per-layer metric counting its calls
CALL_COUNT_METRIC = {
    "calibration.optimal_weights": "calibration.calls",
    "oracles.generator": "oracles.generators",
}
# key of a span's counts -> per-layer metric summing it
COUNT_METRIC = {
    "variates": "oracles.variates",
    "uniforms": "queueing.uniforms",
    "lindley_steps": "queueing.lindley_steps",
    "weight_bytes": "calibration.weight_bytes",
    "report_bytes": "experiments.report_bytes",
}


@dataclass
class Span:
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    counts: dict | None = None
    children: list = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; `install`/`uninstall` swap the
    wrappers in and restore the original attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.op: int | None = None
        # call sites that no longer exist: their work shows in the caller
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, parent, self.op, time.perf_counter()))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.counts = counts
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, top was {popped}")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, fn, name, count):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                counts = count(args, result) if count is not None and result is not None else None
                tracer.close(idx, counts)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in WRAPPED:
            original = owner.__dict__.get(attr)
            if original is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def self_time(self, idx: int) -> float:
        span = self.spans[idx]
        return span.duration - sum(self.spans[c].duration for c in span.children)

    def descendants(self, idx: int):
        todo = list(self.spans[idx].children)
        while todo:
            c = todo.pop()
            yield c
            todo.extend(self.spans[c].children)

    def layer_totals(self, root: int) -> dict:
        """Self times and counts of the spans under `root`, by metric."""
        totals: dict[str, float] = {}
        for idx in self.descendants(root):
            span = self.spans[idx]
            metric = SELF_TIME_METRIC[span.name]
            totals[metric] = totals.get(metric, 0.0) + self.self_time(idx)
            if span.name in CALL_COUNT_METRIC:
                metric = CALL_COUNT_METRIC[span.name]
                totals[metric] = totals.get(metric, 0) + 1
            for key, value in (span.counts or {}).items():
                metric = COUNT_METRIC[key]
                totals[metric] = totals.get(metric, 0) + value
        return totals

    def dump(self, path, meta: dict) -> None:
        """Write every span as one JSON document: times in seconds from
        the first span's start."""
        t0 = self.spans[0].start if self.spans else 0.0
        doc = dict(meta)
        doc["fields"] = ["id", "name", "parent", "op", "start_s", "end_s", "counts"]
        doc["spans"] = [
            [i, s.name, s.parent, s.op, s.start - t0, s.end - t0, s.counts]
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
