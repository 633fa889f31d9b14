"""Output checks for the benchmark workloads, computed apart from the program.

Nothing here imports `hybrid_esn`: the oracles re-derive each output from
the files the CLI wrote (and, for trajectories, from the `.meta.json`
sidecar alone) with numpy/scipy code of their own.  Every check raises
`CheckError` with a one-line reason on the first violation.
"""

from __future__ import annotations

import csv
import json
import math
import re
import xml.etree.ElementTree as ET
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

# Maximum |program - oracle| over the checked prefix of a generated trajectory.
# The program integrates with fixed-step RK4 (h = dt/10) and renormalizes each
# sample; DOP853 at rtol = atol = 1e-12 is the reference.  See README.md.
TRAJECTORY_TOL = 1e-5
TRAJECTORY_SAMPLES = 1000
UNIT_CIRCLE_TOL = 1e-12
# summary.csv carries 9 significant digits; each statistic is compared within
# this share of the largest magnitude among its metric's statistics.
SUMMARY_REL_TOL = 1e-7
# The paper's property at a baseline point: hybrid mean NMSE below this.
HYBRID_NMSE_BOUND = 0.05

# The program's span layout when a config leaves a field out.
DEFAULT_LAYOUT = dict(training=1000, train_test_gap=1000, warmup=100, test=2500,
                      test_test_gap=400, n_tests=20, dt=0.1)

METRIC_HEADER = ["task", "regime", "model", "param_name", "param_value",
                 "instantiation", "span", "mean_nmse", "valid_time_s"]
SUMMARY_HEADER = ["task", "regime", "model", "param_name", "param_value", "n_instantiations",
                  "mean_nmse_mean", "mean_nmse_std", "mean_nmse_max",
                  "valid_time_mean", "valid_time_std", "valid_time_max"]


class CheckError(AssertionError):
    """An output of the program is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read_table(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, f"{path}: empty file")
    return rows[0], rows[1:]


def read_trajectory(path):
    """(times, samples as n_samples x 2N) from a trajectory CSV, parsed here."""
    header, rows = _read_table(path)
    n_pairs = (len(header) - 1) // 2
    expected = ["t"] + [f"{c}_{i}" for i in range(1, n_pairs + 1) for c in ("x", "y")]
    _require(header == expected and n_pairs >= 1, f"{path}: bad header {header[:5]}...")
    _require(all(len(r) == len(header) for r in rows), f"{path}: ragged rows")
    data = np.array(rows, dtype=float)
    return data[:, 0], data[:, 1:]


def _meta_params(meta):
    omega = np.asarray(meta["omega"], dtype=float)
    return (omega, float(meta["coupling"]), float(meta.get("gamma1", 0.0)),
            float(meta.get("gamma2", 0.0)), float(meta.get("second_harmonic_scale", 0.0)))


def phase_oracle(meta: dict, n_samples: int) -> np.ndarray:
    """cos/sin components at t = k*dt, k < n_samples, from the phase-form ODE.

    d theta_i/dt = omega_i + (K/N) sum_j [sin(D_ij + g1) + a sin(2 D_ij + g2)],
    D_ij = theta_j - theta_i, integrated by DOP853 at tight tolerances.
    """
    omega, coupling, g1, g2, a = _meta_params(meta)
    n = omega.size

    def rate(_t, theta):
        d = theta[None, :] - theta[:, None]
        return omega + (coupling / n) * (np.sin(d + g1) + a * np.sin(2.0 * d + g2)).sum(axis=1)

    dt = float(meta["dt"])
    t_eval = dt * np.arange(n_samples)
    sol = solve_ivp(rate, (0.0, t_eval[-1]), np.asarray(meta["theta0"], dtype=float),
                    method="DOP853", t_eval=t_eval, rtol=1e-12, atol=1e-12)
    _require(sol.success, f"oracle integration failed: {sol.message}")
    out = np.empty((n_samples, 2 * n))
    out[:, 0::2] = np.cos(sol.y.T)
    out[:, 1::2] = np.sin(sol.y.T)
    return out


def check_trajectory(traj_path, meta_path) -> float:
    """Generated trajectory vs the phase-form oracle; returns the worst deviation."""
    meta = json.loads(Path(meta_path).read_text())
    t, samples = read_trajectory(traj_path)
    n_steps, dt = int(meta["n_steps"]), float(meta["dt"])
    _require(samples.shape == (n_steps + 1, 2 * len(meta["omega"])),
             f"{traj_path}: shape {samples.shape}, expected ({n_steps + 1}, {2 * len(meta['omega'])})")
    _require(np.allclose(t, dt * np.arange(n_steps + 1), rtol=0.0, atol=1e-9 * n_steps * dt),
             f"{traj_path}: time column is not k*dt")
    radius = samples[:, 0::2] ** 2 + samples[:, 1::2] ** 2
    off = float(np.max(np.abs(radius - 1.0)))
    _require(off <= UNIT_CIRCLE_TOL, f"{traj_path}: sample off the unit circle by {off:.3g}")
    n = min(TRAJECTORY_SAMPLES, n_steps) + 1
    worst = float(np.max(np.abs(samples[:n] - phase_oracle(meta, n))))
    _require(worst <= TRAJECTORY_TOL, f"{traj_path}: deviates from the phase-form oracle by "
                                      f"{worst:.3g} > {TRAJECTORY_TOL:g}")
    return worst


def cut_test_span(samples: np.ndarray, layout: dict, span: int) -> np.ndarray:
    """Ground-truth test span `span` (n_test x 2N) cut from a trajectory."""
    stride = layout["warmup"] + layout["test"] + layout["test_test_gap"]
    start = layout["training"] + layout["train_test_gap"] + span * stride + layout["warmup"]
    return samples[start:start + layout["test"]]


def forecast_scores(prediction: np.ndarray, truth: np.ndarray, dt: float, epsilon: float):
    """(mean NMSE, valid time) of a forecast, rows being time steps."""
    error = np.sqrt(((truth - prediction) ** 2).sum(axis=1))
    scale = math.sqrt(float((truth ** 2).sum(axis=1).mean()))
    nmse = error / scale
    above = np.nonzero(nmse > epsilon)[0]
    n_valid = len(nmse) if len(above) == 0 else int(above[0])
    return float(nmse.mean()), n_valid * dt


def agrees_to_9_digits(value: float, printed: float) -> bool:
    """True when `value` matches `printed` within one unit of its 9th significant digit."""
    if printed == 0.0:
        return abs(value) < 1e-300
    unit = 10.0 ** (math.floor(math.log10(abs(printed))) - 8)
    return abs(value - printed) <= unit


def check_forecast(pred_path, traj_path, stdout: str, layout: dict, span: int,
                   epsilon: float) -> None:
    """Forecast CSV vs the recomputed NMSE(t) and valid time it printed."""
    _, truth_all = read_trajectory(traj_path)
    _, prediction = read_trajectory(pred_path)
    truth = cut_test_span(truth_all, layout, span)
    _require(prediction.shape == truth.shape,
             f"{pred_path}: shape {prediction.shape}, expected {truth.shape}")
    match = re.search(r"mean_nmse=(\S+) valid_time_s=(\S+)", stdout)
    _require(match is not None, "forecast printed no mean_nmse/valid_time_s line")
    printed_nmse, printed_vt = float(match.group(1)), float(match.group(2))
    dt = layout["dt"]
    nmse, vt = forecast_scores(prediction, truth, dt, epsilon)
    _require(agrees_to_9_digits(nmse, printed_nmse),
             f"forecast mean_nmse {printed_nmse!r} != recomputed {nmse!r}")
    _require(agrees_to_9_digits(vt, printed_vt),
             f"forecast valid_time_s {printed_vt!r} != recomputed {vt!r}")


def read_metric_csv(path):
    """Metric rows as dicts with numeric fields converted, parsed here."""
    header, rows = _read_table(path)
    _require(header == METRIC_HEADER, f"{path}: bad header {header}")
    out = []
    for r in rows:
        _require(len(r) == len(METRIC_HEADER), f"{path}: ragged row {r}")
        out.append(dict(task=r[0], regime=r[1], model=r[2], param_name=r[3],
                        param_value=float(r[4]), instantiation=int(r[5]), span=int(r[6]),
                        mean_nmse=float(r[7]), valid_time=float(r[8])))
    return out


def check_metric_csv(path, n_records: int, models, n_instantiations: int, n_spans: int,
                     horizon_s: float, dt: float, param_name: str, param_value: float):
    """Record count, key coverage and value ranges of one per-point metric CSV."""
    rows = read_metric_csv(path)
    _require(len(rows) == n_records, f"{path}: {len(rows)} records, expected {n_records}")
    keys = {(r["model"], r["instantiation"], r["span"]) for r in rows}
    expected = {(m, i, s) for m in models for i in range(n_instantiations) for s in range(n_spans)}
    _require(keys == expected, f"{path}: (model, instantiation, span) keys differ from the config")
    for r in rows:
        _require(r["param_name"] == param_name and r["param_value"] == param_value,
                 f"{path}: row for {r['param_name']}={r['param_value']}, expected "
                 f"{param_name}={param_value}")
        _require(0.0 <= r["mean_nmse"] <= 2.0, f"{path}: mean NMSE {r['mean_nmse']} outside [0, 2]")
        vt = r["valid_time"]
        _require(0.0 <= vt <= horizon_s + 1e-9,
                 f"{path}: valid time {vt} outside [0, {horizon_s}]")
        steps = vt / dt
        _require(abs(steps - round(steps)) <= 1e-6 * max(1.0, steps),
                 f"{path}: valid time {vt} is not a whole multiple of dt={dt}")
    return rows


def aggregate(rows):
    """Two-level summary: per-instantiation span means, then mean/std/max of those."""
    groups = defaultdict(lambda: defaultdict(list))
    for r in rows:
        key = (r["task"], r["regime"], r["model"], r["param_name"], r["param_value"])
        groups[key][r["instantiation"]].append((r["mean_nmse"], r["valid_time"]))
    out = {}
    for key, per_inst in groups.items():
        means = np.array([np.mean(v, axis=0) for _, v in sorted(per_inst.items())])
        out[key] = dict(n_instantiations=len(per_inst),
                        mean_nmse_mean=means[:, 0].mean(), mean_nmse_std=means[:, 0].std(),
                        mean_nmse_max=means[:, 0].max(),
                        valid_time_mean=means[:, 1].mean(), valid_time_std=means[:, 1].std(),
                        valid_time_max=means[:, 1].max())
    return out


def read_summary(path):
    header, rows = _read_table(path)
    _require(header == SUMMARY_HEADER, f"{path}: bad header {header}")
    out = {}
    for r in rows:
        _require(len(r) == len(SUMMARY_HEADER), f"{path}: ragged row {r}")
        key = (r[0], r[1], r[2], r[3], float(r[4]))
        _require(key not in out, f"{path}: duplicate row {key}")
        out[key] = dict(zip(SUMMARY_HEADER[5:], [int(r[5])] + [float(v) for v in r[6:]]))
    return out


def check_summary(summary_path, rows) -> dict:
    """summary.csv vs this module's re-aggregation of the metric rows."""
    got = read_summary(summary_path)
    want = aggregate(rows)
    _require(set(got) == set(want), f"{summary_path}: rows {sorted(got)} != {sorted(want)}")
    for key, expected in want.items():
        _require(got[key]["n_instantiations"] == expected["n_instantiations"],
                 f"{summary_path}: {key} n_instantiations differs")
        for metric in ("mean_nmse", "valid_time"):
            scale = max(abs(expected[f"{metric}_{s}"]) for s in ("mean", "std", "max"))
            for stat in ("mean", "std", "max"):
                field = f"{metric}_{stat}"
                ok = abs(got[key][field] - expected[field]) <= SUMMARY_REL_TOL * scale
                _require(ok, f"{summary_path}: {key} {field} {got[key][field]!r} "
                             f"!= re-aggregated {expected[field]!r}")
    return got


def check_svg(path) -> None:
    """An SVG document that parses as XML and draws at least one arm's line."""
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        raise CheckError(f"{path}: not well-formed XML: {exc}") from exc
    _require(root.tag == "{http://www.w3.org/2000/svg}svg", f"{path}: root is {root.tag}")
    _require(root.find("{http://www.w3.org/2000/svg}polyline") is not None,
             f"{path}: no data line")


def check_run_log(path, config: dict) -> None:
    """A sweep's run_log.json records the config's task, counts, seed, layout and threads."""
    try:
        log = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"{path}: unreadable: {exc}") from exc
    dt = config.get("integrator", {}).get("dt", 0.1)
    layout = {**DEFAULT_LAYOUT, "dt": dt, **config.get("layout", {})}
    expected = {
        "task": config["task"], "regimes": config["regimes"],
        "n_instantiations": config["n_instantiations"],
        "n_realizations": config["n_realizations"], "master_seed": config["master_seed"],
        "epsilon": config.get("epsilon", 0.4), "layout": layout,
        "integrator": {"dt": dt, "substeps_per_sample":
                       config.get("integrator", {}).get("substeps_per_sample", 10)},
        "threads": config["threads"], "mode": "sweep",
    }
    for key, value in expected.items():
        _require(log.get(key) == value, f"{path}: {key} is {log.get(key)!r}, expected {value!r}")


def check_hybrid_wins(summary: dict) -> None:
    """The paper's property at a baseline point: hybrid NMSE small and below both controls."""
    by_model = {key[2]: row["mean_nmse_mean"] for key, row in summary.items()}
    _require({"standard", "hybrid", "ode"} <= set(by_model), "summary lacks a model arm")
    hybrid = by_model["hybrid"]
    _require(hybrid < HYBRID_NMSE_BOUND,
             f"hybrid mean NMSE {hybrid:.4g} is not below {HYBRID_NMSE_BOUND}")
    for arm in ("standard", "ode"):
        _require(hybrid < by_model[arm],
                 f"hybrid mean NMSE {hybrid:.4g} is not below {arm} {by_model[arm]:.4g}")
