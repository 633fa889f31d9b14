"""The shared test procedure, parameter sweeps, and grid search.

Every experiment is a pure function of (configuration, master seed).  Seeds
are derived through a splittable counter-based generator (Philox keyed by a
SeedSequence over the full context tuple), so distinct work units draw from
provably distinct streams and any of them may run in parallel.
"""

from __future__ import annotations

import json
import numbers
import time
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import dynamics
from .dynamics import (
    IntegratorConfig,
    KuramotoParams,
    NumericalBlowup,
    RegimeSpec,
    check_count,
    check_real,
    perturb_params,
    realize_regime,
    simulate_batch,
)
from .evaluation import MetricRecord, SpanLayout, segment, span_metrics
from .hybrid import ExpertModel, Instantiation
from .reservoir import (
    ReservoirConfig,
    ReservoirMatrices,
    build_input_matrix,
    build_matrices,
    collect_states,
    forecast_columns,
    stack_reservoirs,
    train_readout,
)

__all__ = [
    "MODELS",
    "SeedScheme",
    "Baselines",
    "SweepSpec",
    "GridPoint",
    "GRID_POINTS",
    "RunManifest",
    "RunCache",
    "PointOutcome",
    "SummaryRow",
    "regime_spec",
    "draw_ground_truth",
    "instantiation_context",
    "check_record_names",
    "check_list",
    "train_instantiation",
    "run_shared_procedure",
    "run_sweep",
    "run_grid_search",
    "check_grid_regimes",
    "aggregate_report",
]

MODELS = ("standard", "hybrid", "ode")


@dataclass(frozen=True)
class Task:
    """One experiment task: its seed stream id, ground-truth regimes and default replication."""

    stream_id: int
    regime: object  # regime name -> RegimeSpec
    regimes: tuple
    n_realizations: int


TASKS = {
    "parameter_error": Task(1, dynamics.standard_regime, dynamics.STANDARD_REGIME_NAMES, 3),
    "residual_physics": Task(2, dynamics.biharmonic_regime, dynamics.BIHARMONIC_REGIME_NAMES, 1),
}

_REGIME_IDS = {
    "synchrony": 1,
    "asynchrony": 2,
    "multi_frequency": 3,
    "heteroclinic_cycles": 4,
    "partial_synchrony": 5,
}
_ROLE_IDS = {
    "ground_truth": 1,
    "internal": 2,
    "input": 3,
    "expert_error": 4,
    "ode_error": 5,
}


@dataclass(frozen=True)
class SeedScheme:
    """Derives independent random streams from one master seed.

    Each distinct (task, regime, realization, sweep index, instantiation,
    role) tuple keys its own Philox stream.
    """

    master: int = 0

    def stream(self, task: str, regime: str, realization: int = 0,
               sweep_index: int = 0, instantiation: int = 0,
               role: str = "ground_truth") -> np.random.Generator:
        seq = np.random.SeedSequence([
            self.master, TASKS[task].stream_id, _REGIME_IDS[regime],
            realization, sweep_index, instantiation, _ROLE_IDS[role],
        ])
        return np.random.Generator(np.random.Philox(seq))


def _task_of(name: str) -> Task:
    """The task named `name`; ValueError naming the valid tasks otherwise."""
    if name not in TASKS:
        raise ValueError(f"unknown task {name!r}; valid: {', '.join(TASKS)}")
    return TASKS[name]


@dataclass(frozen=True)
class Baselines(ReservoirConfig):
    """All tunable model settings, defaulted to the baseline values; each is sweepable.

    The reservoir settings are `ReservoirConfig`'s; the expert's parameter
    errors follow them.
    """

    sigma_k: float = 0.05
    sigma_omega: float = 0.05

    def __post_init__(self):
        super().__post_init__()
        check_real("sigma_k", self.sigma_k, zero_ok=True)
        check_real("sigma_omega", self.sigma_omega, zero_ok=True)

    @staticmethod
    def check_parameter(name: str) -> None:
        """Raise ValueError unless `name` is a Baselines field, and so sweepable."""
        names = [f.name for f in fields(Baselines)]
        if name not in names:
            raise ValueError(f"unknown sweep parameter {name!r}; valid: {', '.join(names)}")

    def with_param(self, name: str, value: float) -> "Baselines":
        self.check_parameter(name)
        if name == "size":
            if not float(value).is_integer():
                raise ValueError(f"size must be an integer >= 1, got {value!r}")
            value = int(value)
        return replace(self, **{name: value})


def check_list(name: str, value, what: str) -> tuple:
    """`value` as a tuple; ValueError naming `name` unless it is an iterable of items
    (a string or a mapping is not one)."""
    if isinstance(value, Iterable) and not isinstance(value, (str, Mapping)):
        return tuple(value)
    raise ValueError(f"{name} must be a list of {what}, got {value!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter and its grid; everything else stays at baseline."""

    parameter: str
    values: tuple

    def __post_init__(self):
        Baselines.check_parameter(self.parameter)
        object.__setattr__(self, "values", check_list("sweep values", self.values, "numbers"))
        if len(self.values) < 1:
            raise ValueError("sweep needs at least one value")
        for value in self.values:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"sweep values must be numbers, got {value!r}")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))
        names = {}
        for value in self.values:
            name = self.point_name(value)
            if name in names:
                raise ValueError(f"sweep values {names[name]!r} and {value!r} both name "
                                 f"the point {name}")
            names[name] = value

    def point_name(self, value: float) -> str:
        """The name of a point's metric CSV (less `.csv`); distinct for every value."""
        return f"{self.parameter}_{value:g}"


@dataclass(frozen=True)
class GridPoint:
    """One corner of the 2x2x2 grid over (regularization, spectral radius, input scaling)."""

    label: str
    regularization: float
    spectral_radius: float
    input_scaling: float

    def apply(self, baselines: Baselines) -> Baselines:
        return replace(
            baselines,
            regularization=self.regularization,
            spectral_radius=self.spectral_radius,
            input_scaling=self.input_scaling,
        )


GRID_POINTS = (
    GridPoint("A", 1e-4, 0.1, 0.05),
    GridPoint("B", 1e-1, 0.1, 0.05),
    GridPoint("C", 1e-4, 2.0, 0.05),
    GridPoint("D", 1e-1, 2.0, 0.05),
    GridPoint("E", 1e-4, 0.1, 0.20),
    GridPoint("F", 1e-1, 0.1, 0.20),
    GridPoint("G", 1e-4, 2.0, 0.20),
    GridPoint("H", 1e-1, 2.0, 0.20),
)

GRID_REGIMES = ("synchrony", "heteroclinic_cycles", "partial_synchrony")


@dataclass(frozen=True)
class RunManifest:
    """What to run: task, regimes, replication counts, layout, seeding.

    `regimes` defaults to every regime of the task, and `n_realizations` to
    the task's count.
    """

    task: str
    regimes: tuple | None = None
    n_instantiations: int = 40
    n_realizations: int | None = None
    layout: SpanLayout = SpanLayout()
    integrator: IntegratorConfig = IntegratorConfig()
    epsilon: float = 0.4
    master_seed: int = 0

    def __post_init__(self):
        task = _task_of(self.task)
        if self.n_realizations is None:
            object.__setattr__(self, "n_realizations", task.n_realizations)
        check_count("n_instantiations", self.n_instantiations)
        check_count("n_realizations", self.n_realizations)
        check_count("master_seed", self.master_seed, 0)
        check_real("epsilon", self.epsilon)  # at 0 every valid time would be 0
        if self.layout.dt != self.integrator.dt:
            # the expert steps the layout's dt between samples that are
            # integrated the integrator's dt apart
            raise ValueError(f"layout dt {self.layout.dt:g} must equal integrator dt "
                             f"{self.integrator.dt:g}")
        object.__setattr__(self, "regimes", task.regimes if self.regimes is None
                           else check_list("regimes", self.regimes, "regime names"))
        if not self.regimes:
            raise ValueError("regimes must name at least one regime")
        for regime in self.regimes:
            regime_spec(self.task, regime)  # validates the name
        repeated = sorted({r for r in self.regimes if self.regimes.count(r) > 1})
        if repeated:
            # every record of a repeated regime would be run and written twice
            raise ValueError(f"regimes must not repeat: {', '.join(repeated)}")


def regime_spec(task: str, name: str) -> RegimeSpec:
    """The ground-truth regime for a task: standard for the parameter error
    task, bi-harmonic for the residual physics task."""
    return _task_of(task).regime(name)


def draw_ground_truth(manifest: RunManifest, regime_name: str, realization: int = 0,
                      sweep_index: int = 0):
    """(params, theta0) of one ground-truth record, drawn from its own stream."""
    regime = regime_spec(manifest.task, regime_name)  # validates the name before the stream
    return realize_regime(regime, SeedScheme(manifest.master_seed).stream(
        manifest.task, regime_name, realization, sweep_index))


def instantiation_context(manifest: RunManifest, regime_name: str, realization: int = 0,
                          sweep_index: int = 0, instantiation: int = 0) -> dict:
    """The stream context of one instantiation: `SeedScheme.stream`'s keys less the role."""
    return dict(task=manifest.task, regime=regime_name, realization=realization,
                sweep_index=sweep_index, instantiation=instantiation)


def check_record_names(record: MetricRecord) -> None:
    """Raise ValueError unless the record's task, regime, model and parameter name are ones
    this program writes; report file names are built from them."""
    regime_spec(record.task, record.regime)
    if record.model not in MODELS:
        raise ValueError(f"unknown model {record.model!r}; valid: {', '.join(MODELS)}")
    params = ("baseline", *(f.name for f in fields(Baselines)),
              *(f"grid_{p.label}" for p in GRID_POINTS))
    if record.param_name not in params:
        raise ValueError(f"unknown param_name {record.param_name!r}")


class RunCache(dict):
    """The ground truths and internal matrices that the arms of a run share.

    Every key starts (task, regime, realization, sweep index): a ground
    truth's key is just that, and an internal matrix's adds the
    instantiation and the settings A depends on.  So `release` forgets one
    point's entries and no others.  A plain dict serves where nothing is
    released.
    """

    def release(self, sweep_index: int) -> None:
        """Forget every entry of the point at `sweep_index`."""
        for key in [key for key in self if key[3] == sweep_index]:
            del self[key]


def _integrate_ground_truths(manifest, regime_name, sweep_indices, cache) -> None:
    """Integrate the ground truth of every (sweep index, realization) of one regime in one call.

    Each record draws its parameters from its own ground-truth stream, ends
    at the last sample that `segment` reads, and goes into `cache` under
    (task, regime, realization, sweep index) as (record, base params), or as
    the NumericalBlowup it raised, which every arm reading it then raises in
    turn.
    """
    keys = [(manifest.task, regime_name, realization, idx)
            for idx in sweep_indices for realization in range(manifest.n_realizations)]
    draws = [draw_ground_truth(manifest, regime_name, realization, idx)
             for _, _, realization, idx in keys]
    records, failed = simulate_batch([p for p, _ in draws], [t for _, t in draws],
                                     manifest.integrator, manifest.layout.needed_samples - 1)
    for key, (base_params, _), record, step in zip(keys, draws, records, failed):
        cache[key] = NumericalBlowup(int(step)) if step else (record, base_params)


def _perturbed_expert(manifest, baselines, scheme, base_params, role, ctx) -> ExpertModel:
    # the expert knows only the plain Kuramoto model, whatever the ground truth's harmonics
    expert = KuramotoParams(omega=base_params.omega, coupling=base_params.coupling)
    perturbed = perturb_params(expert, baselines.sigma_k, baselines.sigma_omega,
                               scheme.stream(role=role, **ctx))
    return ExpertModel(params=perturbed, dt=manifest.layout.dt)


def train_instantiation(manifest, model_kind, baselines, scheme, training, base_params,
                        cache, ctx) -> Instantiation:
    """One trained RC instantiation: the streams of `ctx`, a readout fit on `training`.

    A's stream is keyed by instantiation, not arm, so the first arm builds
    both matrices and leaves A in `cache` under its stream context and the
    settings it depends on; a later arm draws only its own B.  A build that
    raises leaves nothing behind, so every arm raises in turn.  A fresh dict
    builds all.
    """
    d_u, hybrid = training.shape[0], model_kind == "hybrid"
    key = (*ctx.values(), baselines.size, baselines.mean_degree, baselines.spectral_radius)
    if key in cache:
        matrices = ReservoirMatrices(internal=cache[key], input=build_input_matrix(
            baselines, 2 * d_u if hybrid else d_u, hybrid, scheme.stream(role="input", **ctx)))
    else:
        matrices = build_matrices(baselines, d_u, hybrid, scheme.stream(role="internal", **ctx),
                                  scheme.stream(role="input", **ctx))
        cache[key] = matrices.internal
    expert = (_perturbed_expert(manifest, baselines, scheme, base_params, "expert_error", ctx)
              if hybrid else None)
    # no name keeps the features past the fit, so two sets are never held at once
    readout = train_readout(*collect_states(training, matrices, expert=expert),
                            baselines.regularization)
    return Instantiation(matrices, readout, expert)


def _forecast_records(manifest, model_kind, regime_name, spans, realization,
                      sweep_name, sweep_value, members):
    """Forecast every (instantiation, span) column of one arm in lock step and score it.

    `members` holds each instantiation's `Instantiation`.  Only the per-step
    error norms are kept, not the predictions.
    """
    n_inst, n_spans = len(members), len(spans)
    n_cols = n_inst * n_spans
    expert = (ExpertModel(KuramotoParams.stack([m.expert.params for m in members], n_spans),
                          manifest.layout.dt) if members[0].expert is not None else None)
    if model_kind == "ode":
        # No warm-up: the ODE's state is pinned to the first test sample and
        # stepped forward, so its forecast covers test samples 1..H-1.
        truths = [test[:, 1:] for _, test in spans]
        warmups = np.stack([test[:, :1].T for _, test in spans], axis=1)
        stack = readouts = None
    else:
        truths = [test for _, test in spans]
        warmups = np.stack([warmup.T for warmup, _ in spans], axis=1)
        stack = stack_reservoirs([m.matrices for m in members], n_spans)
        readouts = [m.readout for m in members]
    warmups = np.tile(warmups, (1, n_inst, 1))
    truth_steps = np.stack(truths).transpose(2, 1, 0).copy()  # (H, D_u, n_spans)
    d_u, horizon = truths[0].shape
    norms = np.empty((horizon, n_cols))
    # at least two columns, so that numpy sums axis 0 row by row, as
    # np.linalg.norm(test - preds, axis=0) does on one span, rather than pairwise
    squares = np.zeros((d_u, max(n_cols, 2)))
    diff = squares[:, :n_cols].reshape(d_u, n_inst, n_spans)

    def score(k, u_hat):
        np.subtract(truth_steps[k][:, None, :],
                    u_hat.reshape(n_inst, n_spans, d_u).transpose(2, 0, 1), out=diff)
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.add.reduce(squares, axis=0)[:n_cols], out=norms[k])

    aborts = forecast_columns(warmups, horizon, score, stack, readouts, expert)
    records = []
    for col in range(n_cols):
        inst, k = divmod(col, n_spans)
        nmse, vt = span_metrics(norms[:aborts[col], col], truths[k], manifest.layout.dt,
                                manifest.epsilon)
        records.append(MetricRecord(
            task=manifest.task, regime=regime_name, model=model_kind,
            param_name=sweep_name, param_value=sweep_value, instantiation=inst,
            span=realization * manifest.layout.n_tests + k, mean_nmse=nmse, valid_time=vt,
        ))
    return records


def _record_sort_key(r: MetricRecord):
    return (r.task, r.regime, r.param_name, r.param_value, r.model,
            r.instantiation, r.span)


def run_shared_procedure(manifest: RunManifest, model_kind: str, baselines: Baselines,
                         regime_name: str, sweep_name: str = "baseline",
                         sweep_value: float = 0.0, sweep_index: int = 0,
                         ground_truth_cache: dict | None = None):
    """Train and test one model arm on one regime; one record per (instantiation, span).

    For each realization: take the ground-truth record (integrated here,
    every realization in one batched call, unless `ground_truth_cache`
    holds it), segment it, train every instantiation on the training span
    in turn, and forecast all test spans.  Failed forecasts are scored with
    worst-case padding, never dropped.  The cache (a `RunCache` or a plain
    dict, keyed as `RunCache` says) also carries each instantiation's
    internal matrix A from one RC arm to the next; without one, the call
    integrates and builds all it needs.
    """
    if model_kind not in MODELS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    scheme = SeedScheme(manifest.master_seed)
    cache = {} if ground_truth_cache is None else ground_truth_cache
    keys = [(manifest.task, regime_name, realization, sweep_index)
            for realization in range(manifest.n_realizations)]
    if not all(key in cache for key in keys):
        _integrate_ground_truths(manifest, regime_name, [sweep_index], cache)
    records = []
    for realization, key in enumerate(keys):
        entry = cache[key]
        if isinstance(entry, NumericalBlowup):
            raise entry
        record, base_params = entry
        training, spans = segment(record, manifest.layout)
        contexts = [instantiation_context(manifest, regime_name, realization, sweep_index, inst)
                    for inst in range(manifest.n_instantiations)]
        if model_kind == "ode":
            members = [Instantiation(expert=_perturbed_expert(
                manifest, baselines, scheme, base_params, "ode_error", ctx)) for ctx in contexts]
        else:
            members = [train_instantiation(manifest, model_kind, baselines, scheme, training,
                                           base_params, cache, ctx) for ctx in contexts]
        records.extend(_forecast_records(manifest, model_kind, regime_name, spans, realization,
                                         sweep_name, sweep_value, members))
    records.sort(key=_record_sort_key)
    return records


@dataclass(frozen=True)
class SummaryRow:
    """Two-level aggregate: within instantiation first, then across them."""

    task: str
    regime: str
    model: str
    param_name: str
    param_value: float
    n_instantiations: int
    nmse_mean: float
    nmse_std: float
    nmse_max: float
    valid_time_mean: float
    valid_time_std: float
    valid_time_max: float


def aggregate_report(records) -> list:
    """Mean/std/max across the per-instantiation means, per (model, regime, point)."""
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict = {}
    for r in records:
        key = (r.task, r.regime, r.model, r.param_name, r.param_value)
        groups.setdefault(key, {}).setdefault(r.instantiation, []).append(r)
    rows = []
    for key in sorted(groups):
        per_inst = groups[key]
        nmse_means = np.array([np.mean([r.mean_nmse for r in rs])
                               for _, rs in sorted(per_inst.items())])
        vt_means = np.array([np.mean([r.valid_time for r in rs])
                             for _, rs in sorted(per_inst.items())])
        rows.append(SummaryRow(
            *key, n_instantiations=len(per_inst),
            nmse_mean=float(nmse_means.mean()), nmse_std=float(nmse_means.std()),
            nmse_max=float(nmse_means.max()),
            valid_time_mean=float(vt_means.mean()), valid_time_std=float(vt_means.std()),
            valid_time_max=float(vt_means.max()),
        ))
    return rows


@dataclass(frozen=True)
class PointOutcome:
    """One finished sweep or grid point.

    `key` is the sweep value or grid corner label, `name` the stem of the
    point's metric CSV and `label` its progress label.  `failures` holds a
    (regime, arm, exception) per failed arm; `records` holds the other
    arms' records.
    """

    key: object
    name: str
    label: str
    records: tuple
    failures: tuple = ()

    @property
    def status(self) -> str:
        """The point's progress line."""
        return f"{self.label}: {len(self.records)} records"


def _run_points(manifest, points, models, on_point):
    """The one point loop of sweeps and the grid: every (point, regime, arm) in turn.

    `points` holds (key, name, label, baselines, param name, param value)
    per point.  Every point's ground truth of a regime is integrated in one
    batched call before any arm runs, and the RC arms of a point share each
    instantiation's internal matrix; the cache forgets both when the
    point's last arm ends.  A failed arm goes into its point's outcome and
    the loop goes on.  `on_point` (if given) is called with each
    `PointOutcome` as its point finishes.  Returns (outcomes, summary rows).
    """
    cache = RunCache()
    for regime_name in manifest.regimes:
        _integrate_ground_truths(manifest, regime_name, range(len(points)), cache)
    outcomes = []
    for idx, (key, name, label, point_baselines, param_name, value) in enumerate(points):
        records, failures = [], []
        for regime_name in manifest.regimes:
            for model_kind in models:
                try:
                    records.extend(run_shared_procedure(
                        manifest, model_kind, point_baselines, regime_name,
                        sweep_name=param_name, sweep_value=value, sweep_index=idx,
                        ground_truth_cache=cache,
                    ))
                except Exception as exc:  # noqa: BLE001 - the run must outlive point failures
                    failures.append((regime_name, model_kind, exc))
        cache.release(idx)
        outcomes.append(PointOutcome(key, name, label, tuple(records), tuple(failures)))
        if on_point is not None:
            on_point(outcomes[-1])
    all_records = [r for outcome in outcomes for r in outcome.records]
    summary = aggregate_report(all_records) if all_records else []
    return outcomes, summary


def run_sweep(manifest: RunManifest, sweep: SweepSpec, baselines: Baselines = Baselines(),
              models=MODELS, on_point=None):
    """Run every sweep point for every regime and model arm.

    Returns (one `PointOutcome` per sweep value, summary rows): a failed
    arm is noted in its point's outcome and the sweep goes on, so completed
    points survive.  `on_point(outcome)` (if given) is called as each point
    finishes.
    """
    points = [(value, sweep.point_name(value), f"sweep {sweep.parameter}={value:g}",
               baselines.with_param(sweep.parameter, value), sweep.parameter, value)
              for value in sweep.values]
    return _run_points(manifest, points, models, on_point)


def check_grid_regimes(regimes) -> None:
    """Raise ValueError for a regime outside GRID_REGIMES."""
    for regime_name in regimes:
        if regime_name not in GRID_REGIMES:
            raise ValueError(
                f"grid search regime {regime_name!r} not in {GRID_REGIMES} "
                "(the asynchronous regime is excluded)"
            )


def run_grid_search(manifest: RunManifest, baselines: Baselines = Baselines(), on_point=None):
    """Standard and hybrid arms at all 8 grid corners, per regime.

    As `run_sweep`, with one outcome per corner, keyed by its label.
    """
    check_grid_regimes(manifest.regimes)
    points = [(point.label, f"grid_{point.label}", f"grid point {point.label}",
               point.apply(baselines), f"grid_{point.label}", float(idx))
              for idx, point in enumerate(GRID_POINTS)]
    return _run_points(manifest, points, ("standard", "hybrid"), on_point)


def write_run_log(path, manifest: RunManifest, extra: dict | None = None) -> None:
    """Order-stable JSON log of the manifest (seeds, counts, layout) for reproducibility audits."""
    payload = {**asdict(manifest), "timestamp_s": round(time.time(), 3), **(extra or {})}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
