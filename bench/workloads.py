"""The benchmark workloads: a config, the CLI commands of one round, and their checks.

An operation is one `hybrid-esn` command.  It fails when the command exits
non-zero or when its output check (see checks.py) rejects what it wrote.

Workload choice (README.md has the measured figures):

- desk_param_sync: criterion 4's desk point.  The forecast loops dominate and
  one N=5 ground truth is shared by the three arms; the single-threaded
  baseline.
- cli_residual_pipeline: every CLI layer on one N=10 bi-harmonic record.
  Each command and each sweep point integrates the ground truth again, so
  integration dominates and forecasting is small.
- size_sweep_threads: reservoir sizes on both sides of the dense/ARPACK
  eigen-solve switch with the instantiation thread pool on.  Short gaps and
  test span keep ground truth and forecasting small, so matrix construction
  and ridge training, which grow as n^3, take most of the time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# Criterion 4's master seed.  The paper's property (hybrid beats both
# controls) is established at this seed only, and on about 1.5% of master
# seeds the residual-physics ground truth draws a Cauchy-tail natural
# frequency that the program's fixed-step RK4 does not resolve, so neither
# fixed-seed workload moves with --seed (see README.md).
FIXED_MASTER_SEED = 1

def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Operation:
    """One CLI command and the check of what it wrote (None: exit code only)."""

    argv: tuple
    check: Callable | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable  # seed -> config dict
    operations: Callable  # config dict -> tuple of Operation


def layout_of(config: dict) -> dict:
    return {**checks.DEFAULT_LAYOUT, **config.get("layout", {})}


def _sweep_files(config: dict):
    param = config["sweep"]["parameter"]
    return [(f"{param}_{float(v):g}.csv", float(v)) for v in config["sweep"]["values"]]


def _check_sweep_outputs(config: dict, out: Path):
    """Every per-point metric CSV, the summary and the run log of one sweep."""
    layout = layout_of(config)
    models = config.get("models", ["standard", "hybrid", "ode"])
    n_spans = layout["n_tests"] * config["n_realizations"]
    rows = []
    for name, value in _sweep_files(config):
        rows += checks.check_metric_csv(
            out / name, len(models) * config["n_instantiations"] * n_spans * len(config["regimes"]),
            models, config["n_instantiations"], n_spans, layout["test"] * layout["dt"],
            layout["dt"], config["sweep"]["parameter"], value)
    summary = checks.check_summary(out / "summary.csv", rows)
    checks.check_run_log(out / "run_log.json", config)
    return summary


def check_sweep(round_dir: Path, config: dict, stdout: str) -> None:
    _check_sweep_outputs(config, round_dir / "results")


def check_desk_sweep(round_dir: Path, config: dict, stdout: str) -> None:
    summary = _check_sweep_outputs(config, round_dir / "results")
    checks.check_hybrid_wins(summary)


def check_report(round_dir: Path, config: dict, stdout: str) -> None:
    out = round_dir / "results"
    rows = [r for name, _ in _sweep_files(config) for r in checks.read_metric_csv(out / name)]
    checks.check_summary(out / "summary.csv", rows)
    param = config["sweep"]["parameter"]
    for regime in config["regimes"]:
        for metric in ("mean_nmse", "valid_time"):
            checks.check_svg(out / f"{config['task']}_{regime}_{param}_{metric}.svg")


def check_generate(round_dir: Path, config: dict, stdout: str) -> None:
    checks.check_trajectory(round_dir / "traj.csv", round_dir / "traj.meta.json")


def check_forecast(round_dir: Path, config: dict, stdout: str) -> None:
    checks.check_forecast(round_dir / "pred.csv", round_dir / "traj.csv", stdout,
                          layout_of(config), span=0, epsilon=config.get("epsilon", 0.4))


_SWEEP = ("sweep", "--config", "config.json", "--out", "results")
_REPORT = ("report", "--in", "results", "--plot")


def _desk_config(seed: int) -> dict:
    return {
        "schema_version": 1, "task": "parameter_error", "regimes": ["synchrony"],
        "layout": {"n_tests": 5}, "n_instantiations": 8, "n_realizations": 1,
        "sweep": {"parameter": "sigma_k", "values": [0.05]},
        "models": ["standard", "hybrid", "ode"],
        "master_seed": FIXED_MASTER_SEED, "threads": 1,
    }


def _residual_config(seed: int) -> dict:
    return {
        "schema_version": 1, "task": "residual_physics", "regimes": ["heteroclinic_cycles"],
        "layout": {"n_tests": 1}, "n_instantiations": 1, "n_realizations": 1,
        "sweep": {"parameter": "regularization", "values": [1e-6, 1e-2]},
        "models": ["standard", "hybrid", "ode"],
        "master_seed": FIXED_MASTER_SEED, "threads": 1,
    }


def _size_config(seed: int) -> dict:
    n_instantiations = 4
    return {
        "schema_version": 1, "task": "parameter_error", "regimes": ["synchrony"],
        "layout": {"train_test_gap": 100, "test": 1000, "test_test_gap": 100, "n_tests": 1},
        "n_instantiations": n_instantiations, "n_realizations": 1,
        "sweep": {"parameter": "size", "values": [300, 1000, 3000]},
        "models": ["standard", "hybrid"],
        "master_seed": seed, "threads": max(1, min(nproc(), n_instantiations)),
    }


WORKLOADS = {
    w.name: w for w in (
        Workload("desk_param_sync", _desk_config,
                 lambda c: (Operation(_SWEEP, check_desk_sweep), Operation(_REPORT, check_report))),
        Workload("cli_residual_pipeline", _residual_config, lambda c: (
            Operation(("generate", "--config", "config.json", "--regime", c["regimes"][0],
                       "--out", "traj.csv"), check_generate),
            Operation(("forecast", "--config", "config.json", "--regime", c["regimes"][0],
                       "--model", "hybrid", "--span", "0", "--out", "pred.csv"), check_forecast),
            Operation(_SWEEP, check_sweep),
            Operation(_REPORT, check_report),
        )),
        Workload("size_sweep_threads", _size_config,
                 lambda c: (Operation(_SWEEP, check_sweep),)),
    )
}
