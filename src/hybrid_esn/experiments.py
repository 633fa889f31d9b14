"""The shared test procedure, parameter sweeps, and grid search.

Every experiment is a pure function of (configuration, master seed).  Seeds
are derived through a splittable counter-based generator (Philox keyed by a
SeedSequence over the full context tuple), so distinct work units draw from
provably distinct streams and any of them may run in parallel.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import dynamics
from .dynamics import (
    BiHarmonicParams,
    IntegratorConfig,
    NumericalBlowup,
    RegimeSpec,
    perturb_params,
    realize_regime,
    simulate_batch,
)
from .evaluation import MetricRecord, SpanLayout, segment, span_metrics
from .hybrid import ExpertModel, Instantiation, stack_experts
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
    "SeedScheme",
    "Baselines",
    "SweepSpec",
    "GridPoint",
    "GRID_POINTS",
    "RunManifest",
    "SummaryRow",
    "regime_spec",
    "train_instantiation",
    "run_shared_procedure",
    "run_sweep",
    "run_grid_search",
    "aggregate_report",
]

_TASK_IDS = {"parameter_error": 1, "residual_physics": 2}
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

SWEEPABLE_PARAMETERS = (
    "spectral_radius", "input_scaling", "regularization", "size",
    "sigma_k", "sigma_omega", "knowledge_ratio", "mean_degree",
)


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
            self.master, _TASK_IDS[task], _REGIME_IDS[regime],
            realization, sweep_index, instantiation, _ROLE_IDS[role],
        ])
        return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class Baselines:
    """All tunable model settings, defaulted to the baseline values."""

    size: int = 300
    spectral_radius: float = 0.4
    input_scaling: float = 0.15
    mean_degree: float = 3.0
    regularization: float = 1e-6
    knowledge_ratio: float = 0.5
    sigma_k: float = 0.05
    sigma_omega: float = 0.05

    def with_param(self, name: str, value: float) -> "Baselines":
        if name not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {name!r}; valid: {', '.join(SWEEPABLE_PARAMETERS)}"
            )
        if name == "size":
            value = int(value)
        return replace(self, **{name: value})

    def reservoir_config(self) -> ReservoirConfig:
        return ReservoirConfig(
            size=self.size,
            spectral_radius=self.spectral_radius,
            input_scaling=self.input_scaling,
            mean_degree=self.mean_degree,
            regularization=self.regularization,
            knowledge_ratio=self.knowledge_ratio,
        )


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter and its grid; everything else stays at baseline."""

    parameter: str
    values: tuple

    def __post_init__(self):
        if self.parameter not in SWEEPABLE_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter {self.parameter!r}; "
                f"valid: {', '.join(SWEEPABLE_PARAMETERS)}"
            )
        if len(self.values) < 1:
            raise ValueError("sweep needs at least one value")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


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
    """What to run: task, regimes, replication counts, layout, seeding."""

    task: str
    regimes: tuple
    n_instantiations: int = 40
    n_realizations: int = 3
    layout: SpanLayout = SpanLayout()
    integrator: IntegratorConfig = IntegratorConfig()
    epsilon: float = 0.4
    master_seed: int = 0

    def __post_init__(self):
        if self.task not in _TASK_IDS:
            raise ValueError(f"unknown task {self.task!r}")
        if self.n_instantiations < 1 or self.n_realizations < 1:
            raise ValueError("replication counts must be >= 1")
        object.__setattr__(self, "regimes", tuple(self.regimes))
        for regime in self.regimes:
            regime_spec(self.task, regime)  # validates the name


def regime_spec(task: str, name: str) -> RegimeSpec:
    """The ground-truth regime for a task: standard for the parameter error
    task, bi-harmonic for the residual physics task."""
    if task == "parameter_error":
        return dynamics.standard_regime(name)
    if task == "residual_physics":
        return dynamics.biharmonic_regime(name)
    raise ValueError(f"unknown task {task!r}")


def _integrate_ground_truths(manifest, regime_name, sweep_indices, cache) -> None:
    """Integrate the ground truth of every (sweep index, realization) of one regime in one call.

    Each record draws its parameters from its own ground-truth stream and
    goes into `cache` under (task, regime, realization, sweep index) as
    (record, base params), or as the NumericalBlowup it raised, which every
    arm reading it then raises in turn.
    """
    scheme = SeedScheme(manifest.master_seed)
    regime = regime_spec(manifest.task, regime_name)
    keys = [(manifest.task, regime_name, realization, idx)
            for idx in sweep_indices for realization in range(manifest.n_realizations)]
    draws = [realize_regime(regime, scheme.stream(task, name, realization, idx))
             for task, name, realization, idx in keys]
    records, failed = simulate_batch([p for p, _ in draws], [t for _, t in draws],
                                     manifest.integrator, manifest.layout.total_steps)
    for key, (base_params, _), record, step in zip(keys, draws, records, failed):
        cache[key] = NumericalBlowup(int(step)) if step else (record, base_params)


def _perturbed_expert(manifest, baselines, scheme, base_params, role, ctx) -> ExpertModel:
    expert_base = base_params.base if isinstance(base_params, BiHarmonicParams) else base_params
    perturbed = perturb_params(expert_base, baselines.sigma_k, baselines.sigma_omega,
                               scheme.stream(role=role, **ctx))
    return ExpertModel(params=perturbed, dt=manifest.layout.dt)


def _instantiation_matrices(cfg, d_u, hybrid, scheme, ctx, cache) -> ReservoirMatrices:
    """(A, B) of one instantiation; A is built once per run and shared by the RC arms.

    A's stream is keyed by instantiation, not arm, so the first arm builds
    both matrices and leaves A in `cache` under its stream context and the
    settings it depends on; a later arm draws only its own B.  A build that
    raises leaves nothing behind, so every arm raises in turn.
    """
    key = ("internal", scheme.master, *ctx.values(), cfg.size, cfg.mean_degree,
           cfg.spectral_radius)
    input_seed = scheme.stream(role="input", **ctx)
    if key in cache:
        return ReservoirMatrices(internal=cache[key], input=build_input_matrix(
            cfg, 2 * d_u if hybrid else d_u, hybrid, input_seed))
    matrices = build_matrices(cfg, d_u, hybrid, scheme.stream(role="internal", **ctx),
                              input_seed)
    cache[key] = matrices.internal
    return matrices


def train_instantiation(manifest, model_kind, baselines, scheme, training, base_params,
                        cache, ctx) -> Instantiation:
    """One trained RC instantiation: the streams of `ctx`, a readout fit on `training`.

    `cache` carries A from one arm of a run to the next; a fresh dict builds all.
    """
    cfg = baselines.reservoir_config()
    hybrid = model_kind == "hybrid"
    matrices = _instantiation_matrices(cfg, training.shape[0], hybrid, scheme, ctx, cache)
    expert = (_perturbed_expert(manifest, baselines, scheme, base_params, "expert_error", ctx)
              if hybrid else None)
    history, targets = collect_states(training, matrices, expert=expert)
    return Instantiation(matrices, train_readout(history, targets, cfg.regularization), expert)


def _forecast_records(manifest, model_kind, regime_name, spans, realization,
                      sweep_name, sweep_value, members):
    """Forecast every (instantiation, span) column of one arm in lock step and score it.

    `members` holds each instantiation's `Instantiation`.  Only the per-step
    error norms are kept, not the predictions.
    """
    n_inst, n_spans = len(members), len(spans)
    n_cols = n_inst * n_spans
    experts = [m.expert for m in members]
    expert = stack_experts(experts, n_spans) if experts[0] is not None else None
    if model_kind == "ode":
        # No warm-up: the ODE's state is pinned to the first test sample and
        # stepped forward, so its forecast covers test samples 1..H-1.
        truths = [test[:, 1:] for _, test in spans]
        warmups = np.stack([test[:, :1].T for _, test in spans], axis=1)
        stack = None
    else:
        truths = [test for _, test in spans]
        warmups = np.stack([warmup.T for warmup, _ in spans], axis=1)
        stack = stack_reservoirs([m.matrices for m in members], [m.readout for m in members],
                                 n_spans)
    warmups = np.tile(warmups, (1, n_inst, 1))
    truth_steps = np.stack(truths).transpose(2, 1, 0).copy()  # (H, D_u, n_spans)
    d_u, horizon = truths[0].shape
    norms = np.empty((horizon, n_cols))
    # at least two columns, so that numpy sums axis 0 row by row, as
    # nmse_series does on a D_u x H span, rather than pairwise
    squares = np.zeros((d_u, max(n_cols, 2)))
    diff = squares[:, :n_cols].reshape(d_u, n_inst, n_spans)

    def score(k, u_hat):
        np.subtract(truth_steps[k][:, None, :],
                    u_hat.reshape(n_inst, n_spans, d_u).transpose(2, 0, 1), out=diff)
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.add.reduce(squares, axis=0)[:n_cols], out=norms[k])

    aborts = forecast_columns(warmups, horizon, score, stack, expert)
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
                         threads: int = 1, ground_truth_cache: dict | None = None):
    """Train and test one model arm on one regime; one record per (instantiation, span).

    For each realization: take the ground-truth record (integrated here,
    every realization in one batched call, unless `ground_truth_cache`
    holds it), segment it, train every instantiation on the training span,
    and forecast all test spans.  Failed forecasts are scored with
    worst-case padding, never dropped.  The cache also carries each
    instantiation's internal matrix A from one RC arm to the next; pool
    threads train distinct instantiations, so they never share a key.
    """
    if model_kind not in ("standard", "hybrid", "ode"):
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
        contexts = [dict(task=manifest.task, regime=regime_name, realization=realization,
                         sweep_index=sweep_index, instantiation=inst)
                    for inst in range(manifest.n_instantiations)]
        if model_kind == "ode":
            members = [Instantiation(expert=_perturbed_expert(
                manifest, baselines, scheme, base_params, "ode_error", ctx)) for ctx in contexts]
        else:
            train = partial(train_instantiation, manifest, model_kind, baselines, scheme,
                            training, base_params, cache)
            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    members = list(pool.map(train, contexts))
            else:
                members = [train(ctx) for ctx in contexts]
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


def run_sweep(manifest: RunManifest, sweep: SweepSpec, baselines: Baselines = Baselines(),
              models=("standard", "hybrid", "ode"), threads: int = 1,
              progress=None):
    """Run every sweep point for every regime and model arm.

    Every point's ground truth of a regime is integrated in one batched call
    before any arm runs, and the RC arms of a point share each
    instantiation's internal matrix.  Returns (records grouped per point,
    summary rows, errors): a failed point or arm adds an error tuple and the
    sweep goes on, so completed points survive; `progress` (if given) is
    called with a status line per point.
    """
    cache: dict = {}
    for regime_name in manifest.regimes:
        _integrate_ground_truths(manifest, regime_name, range(len(sweep.values)), cache)
    per_point = {}
    errors = []
    for idx, value in enumerate(sweep.values):
        point_baselines = baselines.with_param(sweep.parameter, value)
        point_records = []
        for regime_name in manifest.regimes:
            for model_kind in models:
                try:
                    point_records.extend(run_shared_procedure(
                        manifest, model_kind, point_baselines, regime_name,
                        sweep_name=sweep.parameter, sweep_value=value,
                        sweep_index=idx, threads=threads,
                        ground_truth_cache=cache,
                    ))
                except Exception as exc:  # noqa: BLE001 - sweep must outlive point failures
                    errors.append((sweep.parameter, value, regime_name, model_kind, exc))
        per_point[value] = point_records
        if progress is not None:
            progress(f"sweep {sweep.parameter}={value:g}: {len(point_records)} records")
    all_records = [r for recs in per_point.values() for r in recs]
    summary = aggregate_report(all_records) if all_records else []
    return per_point, summary, errors


def run_grid_search(manifest: RunManifest, baselines: Baselines = Baselines(),
                    threads: int = 1, progress=None):
    """Standard and hybrid arms at all 8 grid corners, per regime.

    As in `run_sweep`, every corner's ground truth of a regime is integrated
    in one batched call first, and the two arms of a corner share each
    instantiation's internal matrix.
    """
    for regime_name in manifest.regimes:
        if regime_name not in GRID_REGIMES:
            raise ValueError(
                f"grid search regime {regime_name!r} not in {GRID_REGIMES} "
                "(the asynchronous regime is excluded)"
            )
    cache: dict = {}
    for regime_name in manifest.regimes:
        _integrate_ground_truths(manifest, regime_name, range(len(GRID_POINTS)), cache)
    per_point = {}
    errors = []
    for idx, point in enumerate(GRID_POINTS):
        point_baselines = point.apply(baselines)
        point_records = []
        for regime_name in manifest.regimes:
            for model_kind in ("standard", "hybrid"):
                try:
                    point_records.extend(run_shared_procedure(
                        manifest, model_kind, point_baselines, regime_name,
                        sweep_name=f"grid_{point.label}", sweep_value=float(idx),
                        sweep_index=idx, threads=threads,
                        ground_truth_cache=cache,
                    ))
                except Exception as exc:  # noqa: BLE001
                    errors.append((point.label, regime_name, model_kind, exc))
        per_point[point.label] = point_records
        if progress is not None:
            progress(f"grid point {point.label}: {len(point_records)} records")
    all_records = [r for recs in per_point.values() for r in recs]
    summary = aggregate_report(all_records) if all_records else []
    return per_point, summary, errors


def write_run_log(path, manifest: RunManifest, extra: dict | None = None) -> None:
    """Order-stable JSON log of seeds and counts for reproducibility audits."""
    payload = {
        "task": manifest.task,
        "regimes": list(manifest.regimes),
        "n_instantiations": manifest.n_instantiations,
        "n_realizations": manifest.n_realizations,
        "master_seed": manifest.master_seed,
        "epsilon": manifest.epsilon,
        "layout": {
            "training": manifest.layout.training,
            "train_test_gap": manifest.layout.train_test_gap,
            "warmup": manifest.layout.warmup,
            "test": manifest.layout.test,
            "test_test_gap": manifest.layout.test_test_gap,
            "n_tests": manifest.layout.n_tests,
            "dt": manifest.layout.dt,
        },
        "integrator": {
            "dt": manifest.integrator.dt,
            "substeps_per_sample": manifest.integrator.substeps_per_sample,
        },
        "timestamp_s": round(time.time(), 3),
    }
    if extra:
        payload.update(extra)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
