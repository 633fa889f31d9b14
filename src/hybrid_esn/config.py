"""Strict JSON experiment configuration.

Unknown keys, and keys given twice, are rejected outright (a typo in a
sweep name must not be silently ignored); missing keys fall back to the
defaults of the type they fill.  A schema_version of the integer 1 is
required.  Each type validates its own fields; this module maps JSON keys
onto the types and reports their errors as ConfigError.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass

from .dynamics import IntegratorConfig, check_count
from .evaluation import SpanLayout
from .experiments import MODELS, Baselines, RunManifest, SweepSpec, check_list

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

SEED_ENV_VAR = "HYBRID_ESN_SEED"


class ConfigError(ValueError):
    """Malformed or inconsistent experiment configuration."""


def _check_keys(section: dict, allowed, where: str):
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run manifest plus the settings that only the command line uses."""

    manifest: RunManifest
    baselines: Baselines = Baselines()
    sweep: SweepSpec | None = None
    threads: int = 1  # checked and written to run_log.json; every run is serial
    models: tuple = MODELS

    def __post_init__(self):
        object.__setattr__(self, "models", check_list("models", self.models, "model arm names"))
        if not self.models:
            raise ValueError("models must name at least one model arm")
        for model in self.models:
            if model not in MODELS:
                raise ValueError(f"unknown model arm {model!r}")
        repeated = sorted({m for m in self.models if self.models.count(m) > 1})
        if repeated:
            # every record of a repeated arm would be run and written twice
            raise ValueError(f"models must not repeat: {', '.join(repeated)}")
        check_count("threads", self.threads)


_MANIFEST_KEYS = ("task", "regimes", "n_instantiations", "n_realizations", "epsilon",
                  "master_seed")
_CLI_KEYS = ("threads", "models")
_TOP_KEYS = ("schema_version", "baselines", "integrator", "layout", "sweep",
             *_MANIFEST_KEYS, *_CLI_KEYS)


@contextlib.contextmanager
def _reported(where: str = ""):
    """Raise a TypeError or ValueError of the block as a ConfigError prefixed by `where`."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}{exc}") from exc


def parse_config(doc: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, _TOP_KEYS, "config")
    if "schema_version" not in doc:
        raise ConfigError("config is missing the required schema_version field")
    version = doc["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:  # neither true nor 1.0
        raise ConfigError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    if "task" not in doc:
        raise ConfigError("config is missing the required task field")

    baselines_doc = doc.get("baselines", {})
    _check_keys(baselines_doc, Baselines.__dataclass_fields__, "baselines")
    with _reported("baselines: "):
        baselines = Baselines(**baselines_doc)

    integ_doc = doc.get("integrator", {})
    _check_keys(integ_doc, IntegratorConfig.__dataclass_fields__, "integrator")
    layout_doc = doc.get("layout", {})
    # no layout.dt key: the expert must step the interval the samples are integrated apart
    _check_keys(layout_doc, set(SpanLayout.__dataclass_fields__) - {"dt"}, "layout")
    with _reported():
        integrator = IntegratorConfig(**integ_doc)
        layout = SpanLayout(**layout_doc, dt=integrator.dt)

    sweep = None
    if doc.get("sweep") is not None:
        sweep_doc = doc["sweep"]
        _check_keys(sweep_doc, SweepSpec.__dataclass_fields__, "sweep")
        if "parameter" not in sweep_doc or "values" not in sweep_doc:
            raise ConfigError("sweep needs both a parameter and values")
        with _reported():
            sweep = SweepSpec(parameter=sweep_doc["parameter"], values=sweep_doc["values"])
        for value in sweep.values:  # reject an out-of-range point before anything runs
            with _reported(f"sweep value {sweep.parameter}={value:g}: "):
                baselines.with_param(sweep.parameter, value)

    manifest_doc = {key: doc[key] for key in _MANIFEST_KEYS if key in doc}
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            master_seed = int(env_seed)
            if master_seed < 0:
                raise ValueError
        except ValueError as exc:
            raise ConfigError(f"{SEED_ENV_VAR} must be an integer >= 0, got {env_seed!r}") from exc
        manifest_doc["master_seed"] = master_seed
    with _reported():
        manifest = RunManifest(layout=layout, integrator=integrator, **manifest_doc)
        return ExperimentConfig(manifest, baselines, sweep,
                                **{key: doc[key] for key in _CLI_KEYS if key in doc})


def _unique_keys(pairs) -> dict:
    """json's object_pairs_hook: the object as a dict, or ConfigError on a key given twice."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r} in config")
        obj[key] = value
    return obj


def load_config(path) -> ExperimentConfig:
    """Read and validate a UTF-8 JSON config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(doc)
