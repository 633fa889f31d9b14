"""Strict JSON experiment configuration.

Unknown keys are rejected outright (a typo in a sweep name must not be
silently ignored); missing keys fall back to the task's baselines.  A
schema_version field is required.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .dynamics import IntegratorConfig
from .evaluation import SpanLayout
from .experiments import Baselines, RunManifest, SweepSpec

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

SEED_ENV_VAR = "HYBRID_ESN_SEED"

_TASK_REGIMES = {
    "parameter_error": ("synchrony", "asynchrony", "multi_frequency"),
    "residual_physics": ("synchrony", "asynchrony", "heteroclinic_cycles", "partial_synchrony"),
}


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _check_keys(section: dict, allowed, where: str):
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment settings, defaults filled from the baselines."""

    task: str
    regimes: tuple
    baselines: Baselines = Baselines()
    integrator: IntegratorConfig = IntegratorConfig()
    layout: SpanLayout = SpanLayout()
    n_instantiations: int = 40
    n_realizations: int | None = None
    epsilon: float = 0.4
    sweep: SweepSpec | None = None
    grid: bool = False
    master_seed: int = 0
    output_dir: str = "out"
    threads: int = 1
    models: tuple = ("standard", "hybrid", "ode")

    def __post_init__(self):
        if self.task not in _TASK_REGIMES:
            raise ConfigError(
                f"unknown task {self.task!r}; valid: {', '.join(_TASK_REGIMES)}"
            )
        for regime in self.regimes:
            if regime not in _TASK_REGIMES[self.task]:
                raise ConfigError(
                    f"invalid regime {regime!r} for task {self.task}; "
                    f"valid: {', '.join(_TASK_REGIMES[self.task])}"
                )
        if self.n_realizations is None:
            object.__setattr__(
                self, "n_realizations", 3 if self.task == "parameter_error" else 1
            )
        if self.sweep is not None and self.grid:
            raise ConfigError("config cannot request both a sweep and the grid search")
        for model in self.models:
            if model not in ("standard", "hybrid", "ode"):
                raise ConfigError(f"unknown model arm {model!r}")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    def manifest(self) -> RunManifest:
        return RunManifest(
            task=self.task,
            regimes=self.regimes,
            n_instantiations=self.n_instantiations,
            n_realizations=self.n_realizations,
            layout=self.layout,
            integrator=self.integrator,
            epsilon=self.epsilon,
            master_seed=self.master_seed,
        )

    def to_json(self) -> str:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "task": self.task,
            "regimes": list(self.regimes),
            "baselines": asdict(self.baselines),
            "integrator": {"dt": self.integrator.dt,
                           "substeps_per_sample": self.integrator.substeps_per_sample},
            "layout": {k: getattr(self.layout, k)
                       for k in ("training", "train_test_gap", "warmup", "test",
                                 "test_test_gap", "n_tests", "dt")},
            "n_instantiations": self.n_instantiations,
            "n_realizations": self.n_realizations,
            "epsilon": self.epsilon,
            "master_seed": self.master_seed,
            "output_dir": self.output_dir,
            "threads": self.threads,
            "models": list(self.models),
            "grid": self.grid,
        }
        if self.sweep is not None:
            doc["sweep"] = {"parameter": self.sweep.parameter,
                            "values": list(self.sweep.values)}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


_TOP_KEYS = (
    "schema_version", "task", "regimes", "baselines", "integrator", "layout",
    "n_instantiations", "n_realizations", "epsilon", "sweep", "grid",
    "master_seed", "output_dir", "threads", "models",
)


def _check_baselines(baselines: Baselines, sweep: SweepSpec | None) -> None:
    """Reject an out-of-range baseline or sweep value before anything runs."""
    points = [("baselines", baselines)]
    if sweep is not None:
        points += [(f"sweep value {sweep.parameter}={value:g}",
                    baselines.with_param(sweep.parameter, value)) for value in sweep.values]
    for where, point in points:
        try:
            point.reservoir_config()
            if point.sigma_k < 0 or point.sigma_omega < 0:
                raise ValueError("error standard deviations must be non-negative")
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")
    if "schema_version" not in doc:
        raise ConfigError("config is missing the required schema_version field")
    if doc["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(
            f"unsupported schema_version {doc['schema_version']} (expected {SCHEMA_VERSION})"
        )
    if "task" not in doc:
        raise ConfigError("config is missing the required task field")
    task = doc["task"]

    baselines_doc = doc.get("baselines", {})
    _check_keys(baselines_doc, Baselines.__dataclass_fields__, "baselines")
    baselines = Baselines(**baselines_doc)

    integ_doc = doc.get("integrator", {})
    _check_keys(integ_doc, ("dt", "substeps_per_sample"), "integrator")
    layout_doc = doc.get("layout", {})
    _check_keys(layout_doc, SpanLayout.__dataclass_fields__, "layout")
    try:
        integrator = IntegratorConfig(**integ_doc)
        layout = SpanLayout(**{"dt": integrator.dt, **layout_doc})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sweep = None
    if doc.get("sweep") is not None:
        sweep_doc = doc["sweep"]
        _check_keys(sweep_doc, ("parameter", "values"), "sweep")
        if "parameter" not in sweep_doc or "values" not in sweep_doc:
            raise ConfigError("sweep needs both a parameter and values")
        try:
            sweep = SweepSpec(parameter=sweep_doc["parameter"],
                              values=tuple(sweep_doc["values"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    _check_baselines(baselines, sweep)

    master_seed = doc.get("master_seed", 0)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            master_seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {env_seed!r}") from exc

    regimes = doc.get("regimes")
    if regimes is None:
        regimes = _TASK_REGIMES.get(task, ())

    try:
        return ExperimentConfig(
            task=task,
            regimes=tuple(regimes),
            baselines=baselines,
            integrator=integrator,
            layout=layout,
            n_instantiations=doc.get("n_instantiations", 40),
            n_realizations=doc.get("n_realizations"),
            epsilon=doc.get("epsilon", 0.4),
            sweep=sweep,
            grid=bool(doc.get("grid", False)),
            master_seed=master_seed,
            output_dir=doc.get("output_dir", "out"),
            threads=doc.get("threads", 1),
            models=tuple(doc.get("models", ("standard", "hybrid", "ode"))),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON config file."""
    with open(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(doc)
