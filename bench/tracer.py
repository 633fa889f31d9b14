"""In-memory span tracer that wraps the program's public functions from outside.

Nothing in the program is edited: `install` replaces every public
module-level function of the traced modules (and `ExpertModel.step` and the
click command callbacks) by a wrapper in every `hybrid_esn` module namespace
that holds it.  Each call becomes a span with a name, start, end, thread and
parent span.  A span's self time is its duration minus the part of it that
its child spans cover; children started on pool worker threads are parented
to the span that the main thread has open at that moment, and their
intervals are merged before being subtracted, so overlapping workers are not
counted twice.

Functions called per integration substep or per reservoir step are "hot":
they are counted and timed per thread but their individual spans are not
kept, which would cost hundreds of megabytes on a desk-scale point.  A few
small helpers are left unwrapped so that their time stays with the layer
that calls them (see UNWRAPPED).
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np

TRACED_MODULES = ("dynamics", "reservoir", "hybrid", "evaluation", "experiments",
                  "config", "io", "report", "cli")

# Called once per RK4 substep, expert step or reservoir step.
HOT = {"dynamics.component_rhs", "dynamics.rk4_step", "hybrid.ExpertModel.step",
       "reservoir.update_state"}

# Helpers whose time belongs to their caller's layer: build_matrices covers
# the two matrix builders (less spectral_radius_of), the forecast and state
# loops cover the feature transform and renormalization, scoring covers the
# NMSE series and load_config covers parsing.
UNWRAPPED = {
    "reservoir.build_internal_matrix", "reservoir.build_input_matrix",
    "reservoir.nonlinear_transform", "dynamics.normalize_components",
    "dynamics.phases_to_components", "dynamics.components_to_phases",
    "dynamics.wrap_phases", "evaluation.nmse_series", "config.parse_config",
}

# Scoring functions share one layer name; none of them calls another.
RENAME = {
    "evaluation.mean_nmse": "evaluation.score",
    "evaluation.valid_time": "evaluation.score",
    "evaluation.failure_metrics": "evaluation.score",
}


def _merged_length(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class _ThreadLog:
    def __init__(self, name: str):
        self.name = name
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self.counters = defaultdict(float)
        self.spans = []


class Tracer:
    """Collects spans, per-thread call statistics and work counters."""

    def __init__(self):
        self._local = threading.local()
        self._logs = []
        self._logs_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._main = self._log()
        self._records_seen = set()
        self._records_lock = threading.Lock()
        self.t0 = time.perf_counter()

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._local.log = log
            with self._logs_lock:
                self._logs.append(log)
        return log

    def count(self, key: str, value: float = 1.0) -> None:
        self._log().counters[key] += value

    def note_simulation(self, key) -> None:
        with self._records_lock:
            self._records_seen.add(key)

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        hot = name in HOT
        tracer = self

        def traced(*args, **kwargs):
            log = tracer._log()
            stack = log.stack
            if stack:
                parent = stack[-1]
            elif log is not tracer._main and tracer._main.stack:
                parent = tracer._main.stack[-1]
            else:
                parent = None
            # frame: name, start, same-thread child time, cross-thread child intervals, id
            frame = [name, time.perf_counter(), 0.0, [], next(tracer._ids)]
            stack.append(frame)
            failed = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                failed = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                covered = frame[2] + (_merged_length(frame[3]) if frame[3] else 0.0)
                entry = log.stats[name]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - covered
                if stack:
                    stack[-1][2] += duration
                elif parent is not None:
                    parent[3].append((frame[1], end))
                if not hot:
                    log.spans.append((frame[4], parent[4] if parent else 0, name,
                                      frame[1] - tracer.t0, end - tracer.t0))
                if failed is not None and on_error is not None:
                    on_error(tracer, failed, args, kwargs)
            if on_result is not None:
                on_result(tracer, result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    def totals(self):
        """Per-name [calls, inclusive s, self s] and counters, summed over threads."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        counters = defaultdict(float)
        for log in self._logs:
            for name, (calls, incl, self_s) in log.stats.items():
                entry = stats[name]
                entry[0] += calls
                entry[1] += incl
                entry[2] += self_s
            for key, value in log.counters.items():
                counters[key] += value
        counters["dynamics.simulate.unique"] = len(self._records_seen)
        return stats, counters

    def dump(self, path) -> None:
        """Write every span and the per-thread statistics as one JSON file."""
        doc = {"clock": "perf_counter seconds since tracer start",
               "span_fields": ["id", "parent", "name", "start_s", "end_s"],
               "threads": []}
        for log in self._logs:
            doc["threads"].append({
                "name": log.name,
                "stats": {k: {"calls": v[0], "inclusive_s": v[1], "self_s": v[2]}
                          for k, v in sorted(log.stats.items())},
                "counters": dict(sorted(log.counters.items())),
                "spans": log.spans,
            })
        with open(path, "w") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Hooks that turn call arguments and results into work counters


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _simulate_result(tracer, result, args, kwargs):
    params = _arg(args, kwargs, 0, "params")
    theta0 = _arg(args, kwargs, 1, "theta0")
    cfg = _arg(args, kwargs, 2, "cfg")
    n_steps = _arg(args, kwargs, 3, "n_steps")
    base = getattr(params, "base", params)
    key = (base.omega.tobytes(), base.coupling, getattr(params, "gamma1", None),
           getattr(params, "gamma2", None), getattr(params, "second_harmonic_scale", None),
           np.asarray(theta0, dtype=float).tobytes(),
           cfg.dt, cfg.substeps_per_sample, n_steps)
    tracer.note_simulation(key)
    tracer.count("dynamics.simulate.samples", n_steps)


def _forecast_result(tracer, result, args, kwargs):
    tracer.count("reservoir.forecast.steps", result.shape[1])


def _forecast_error(tracer, exc, args, kwargs):
    if type(exc).__name__ == "ForecastAbort":
        tracer.count("reservoir.forecast.aborts")
        tracer.count("reservoir.forecast.steps", exc.step)


def _collect_result(tracer, result, args, kwargs):
    tracer.count("reservoir.collect_states.steps", _arg(args, kwargs, 0, "training").shape[1] - 1)


def _procedure_result(tracer, result, args, kwargs):
    tracer.count("experiments.records", len(result))


def _written_bytes(counter):
    def hook(tracer, result, args, kwargs):
        tracer.count(counter, os.path.getsize(_arg(args, kwargs, 0, "path")))
    return hook


_RESULT_HOOKS = {
    "dynamics.simulate": _simulate_result,
    "reservoir.forecast": _forecast_result,
    "reservoir.collect_states": _collect_result,
    "experiments.run_shared_procedure": _procedure_result,
    "io.write_trajectory_csv": _written_bytes("io.write_trajectory_csv.bytes"),
    "io.write_metric_csv": _written_bytes("io.write_metric_csv.bytes"),
}
_ERROR_HOOKS = {"reservoir.forecast": _forecast_error}


def _per_arm(fn, tracer):
    """run_shared_procedure is also timed inclusively per model arm."""
    def by_arm(*args, **kwargs):
        arm = _arg(args, kwargs, 1, "model_kind")
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(f"experiments.run_shared_procedure.{arm}.total_s",
                         time.perf_counter() - start)
    return by_arm


def install(tracer: Tracer) -> None:
    """Wrap the traced modules' public functions in every hybrid_esn namespace."""
    modules = {name: sys.modules[f"hybrid_esn.{name}"] for name in TRACED_MODULES}
    replacements = {}
    for short, module in modules.items():
        for attr, value in vars(module).items():
            if (attr.startswith("_") or not inspect.isfunction(value)
                    or value.__module__ != module.__name__ or f"{short}.{attr}" in UNWRAPPED):
                continue
            name = RENAME.get(f"{short}.{attr}", f"{short}.{attr}")
            wrapped = tracer.wrap(name, value, _RESULT_HOOKS.get(name), _ERROR_HOOKS.get(name))
            if name == "experiments.run_shared_procedure":
                wrapped = _per_arm(wrapped, tracer)
            replacements[value] = wrapped
    expert = modules["hybrid"].ExpertModel
    expert.step = tracer.wrap("hybrid.ExpertModel.step", expert.step)
    for command_name, command in modules["cli"].main.commands.items():
        command.callback = tracer.wrap(f"cli.{command_name}", command.callback)
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("hybrid_esn"):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in replacements:
                setattr(module, attr, replacements[value])


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith((".s", "_s")):
        return "s"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer figures the benchmark reports, by metric name."""
    stats, counters = tracer.totals()

    def calls(name):
        return stats[name][0] if name in stats else 0

    def self_s(name):
        return stats[name][2] if name in stats else 0.0

    simulate_calls = calls("dynamics.simulate")
    spectral_calls = calls("reservoir.spectral_radius_of")
    out = {
        "dynamics.simulate.s": self_s("dynamics.simulate"),
        "dynamics.simulate.samples": counters["dynamics.simulate.samples"],
        "dynamics.simulate.unique_share": (counters["dynamics.simulate.unique"] / simulate_calls
                                           if simulate_calls else 0.0),
        "dynamics.component_rhs.calls": calls("dynamics.component_rhs"),
        "dynamics.component_rhs.s": self_s("dynamics.component_rhs"),
        "dynamics.rk4_step.calls": calls("dynamics.rk4_step"),
        "dynamics.rk4_step.s": self_s("dynamics.rk4_step"),
        "hybrid.ExpertModel.step.calls": calls("hybrid.ExpertModel.step"),
        "hybrid.ExpertModel.step.s": self_s("hybrid.ExpertModel.step"),
        "reservoir.update_state.calls": calls("reservoir.update_state"),
        "reservoir.update_state.s": self_s("reservoir.update_state"),
        "reservoir.forecast.steps": counters["reservoir.forecast.steps"],
        "reservoir.forecast.s": self_s("reservoir.forecast"),
        "reservoir.forecast.aborts": counters["reservoir.forecast.aborts"],
        "reservoir.build_matrices.calls": calls("reservoir.build_matrices"),
        "reservoir.build_matrices.s": self_s("reservoir.build_matrices"),
        "reservoir.build_matrices.useful_share": (calls("reservoir.build_matrices") / spectral_calls
                                                  if spectral_calls else 0.0),
        "reservoir.spectral_radius_of.calls": spectral_calls,
        "reservoir.spectral_radius_of.s": self_s("reservoir.spectral_radius_of"),
        "reservoir.collect_states.steps": counters["reservoir.collect_states.steps"],
        "reservoir.collect_states.s": self_s("reservoir.collect_states"),
        "reservoir.train_readout.calls": calls("reservoir.train_readout"),
        "reservoir.train_readout.s": self_s("reservoir.train_readout"),
        "evaluation.segment.s": self_s("evaluation.segment"),
        "evaluation.score.calls": calls("evaluation.score"),
        "evaluation.score.s": self_s("evaluation.score"),
        "experiments.run_shared_procedure.s": self_s("experiments.run_shared_procedure"),
        "experiments.aggregate_report.s": self_s("experiments.aggregate_report"),
        "experiments.records": counters["experiments.records"],
        "config.load_config.s": self_s("config.load_config"),
        "io.write_trajectory_csv.s": self_s("io.write_trajectory_csv"),
        "io.write_trajectory_csv.bytes": counters["io.write_trajectory_csv.bytes"],
        "io.write_metric_csv.s": self_s("io.write_metric_csv"),
        "io.write_metric_csv.bytes": counters["io.write_metric_csv.bytes"],
        "io.read_metric_csv.s": self_s("io.read_metric_csv"),
        "report.write_summary_csv.s": self_s("report.write_summary_csv"),
        "report.render_sweep_svg.s": self_s("report.render_sweep_svg"),
    }
    for arm in ("standard", "hybrid", "ode"):
        out[f"experiments.run_shared_procedure.{arm}.total_s"] = (
            counters[f"experiments.run_shared_procedure.{arm}.total_s"])
    for command in ("generate", "forecast", "sweep", "report"):
        out[f"cli.{command}.s"] = self_s(f"cli.{command}")
    return {k: int(v) if unit_of(k) in ("count", "bytes") else v for k, v in out.items()}
