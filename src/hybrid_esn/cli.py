"""Config-driven command line front end.

Commands: generate | train | forecast | sweep | grid | report.
Exit codes: 0 success, 2 usage/config error, 3 partial experiment failure.
The HYBRID_ESN_SEED environment variable overrides the config master seed.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path

import click

from . import io as hio
from .config import ConfigError, load_config
from .dynamics import NumericalBlowup, realize_regime, simulate, BiHarmonicParams
from .evaluation import ForecastResult, mean_nmse, segment, valid_time
from .experiments import (
    SeedScheme,
    aggregate_report,
    regime_spec,
    run_grid_search,
    run_sweep,
    train_instantiation,
    write_run_log,
)
from .reservoir import CollectionError, ForecastAbort, ReadoutTrainingError, forecast as rc_forecast
from .report import render_sweep_svg, write_summary_csv


def _load(config_path):
    try:
        return load_config(config_path)
    except (ConfigError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


def _fail(message: str, code: int = 2):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _ground_truth(cfg, regime):
    """(params, theta0, record) of the regime's realization 0 under the config's seed."""
    spec = regime_spec(cfg.task, regime)  # raises ValueError on an unknown regime
    rng = SeedScheme(cfg.master_seed).stream(cfg.task, regime, 0, 0, 0, "ground_truth")
    params, theta0 = realize_regime(spec, rng)
    return params, theta0, simulate(params, theta0, cfg.integrator, cfg.layout.total_steps)


@click.group()
def main():
    """Hybrid reservoir computing experiments for oscillator networks."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--regime", required=True)
@click.option("--seed", type=int, default=None, help="Override the config master seed.")
@click.option("--out", "out_path", required=True, type=click.Path())
def generate(config_path, regime, seed, out_path):
    """Generate one ground-truth trajectory CSV plus a sidecar metadata file."""
    cfg = _load(config_path)
    if seed is not None:
        cfg = type(cfg)(**{**cfg.__dict__, "master_seed": seed})
    try:
        params, theta0, trajectory = _ground_truth(cfg, regime)
    except ValueError as exc:
        _fail(str(exc))
    except NumericalBlowup as exc:
        _fail(str(exc), 3)
    try:
        hio.write_trajectory_csv(out_path, trajectory, cfg.layout.dt)
    except OSError as exc:
        _fail(f"cannot write {out_path}: {exc}")
    base = params.base if isinstance(params, BiHarmonicParams) else params
    meta = {
        "task": cfg.task,
        "regime": regime,
        "master_seed": cfg.master_seed,
        "n_steps": cfg.layout.total_steps,
        "dt": cfg.layout.dt,
        "omega": list(base.omega),
        "coupling": base.coupling,
        "theta0": list(theta0),
    }
    if isinstance(params, BiHarmonicParams):
        meta.update(gamma1=params.gamma1, gamma2=params.gamma2,
                    second_harmonic_scale=params.second_harmonic_scale)
    meta_path = Path(out_path).with_suffix(".meta.json")
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {out_path} ({cfg.layout.total_steps + 1} samples) and {meta_path}")


def _train_one(cfg, regime, model_kind):
    """Instantiation 0 of the regime's realization 0, trained by the experiments' builder.

    Returns (model, test spans).  Exits 2 on a bad regime, model or
    regularization and 3 when the ground truth or the training run fails.
    """
    if model_kind not in ("standard", "hybrid"):
        _fail(f"unknown model {model_kind!r}; valid: standard, hybrid")
    try:
        params, _, record = _ground_truth(cfg, regime)
        training, spans = segment(record, cfg.layout)
        ctx = dict(task=cfg.task, regime=regime, realization=0, sweep_index=0, instantiation=0)
        model = train_instantiation(cfg.manifest(), model_kind, cfg.baselines,
                                    SeedScheme(cfg.master_seed), training, params, {}, ctx)
    except (ValueError, ReadoutTrainingError) as exc:
        _fail(str(exc))
    except (NumericalBlowup, CollectionError, FloatingPointError) as exc:
        _fail(str(exc), 3)
    return model, spans


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--regime", required=True)
@click.option("--model", "model_kind", default="hybrid", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def train(config_path, regime, model_kind, out_path):
    """Train one reservoir instantiation and save the (A, B, C) model dump."""
    cfg = _load(config_path)
    model, _ = _train_one(cfg, regime, model_kind)
    try:
        hio.save_model(out_path, model)
    except OSError as exc:
        _fail(f"cannot write {out_path}: {exc}")
    click.echo(f"wrote model dump {out_path}")


@main.command(name="forecast")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--regime", required=True)
@click.option("--model", "model_kind", default="hybrid", show_default=True)
@click.option("--span", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def forecast_cmd(config_path, regime, model_kind, span, out_path):
    """Train one instantiation, forecast one test span, and report metrics."""
    cfg = _load(config_path)
    model, spans = _train_one(cfg, regime, model_kind)
    if not (0 <= span < len(spans)):
        _fail(f"span must be in [0, {len(spans) - 1}]")
    warmup, test = spans[span]
    try:
        preds = rc_forecast(warmup, test.shape[1], model.matrices, model.readout,
                            expert=model.expert)
    except (ForecastAbort, FloatingPointError, ValueError) as exc:
        _fail(str(exc), 3)
    try:
        hio.write_trajectory_csv(out_path, preds, cfg.layout.dt)
    except OSError as exc:
        _fail(f"cannot write {out_path}: {exc}")
    fr = ForecastResult(prediction=preds, truth=test, dt=cfg.layout.dt)
    click.echo(f"wrote forecast {out_path}")
    click.echo(f"mean_nmse={mean_nmse(fr):.9g} valid_time_s={valid_time(fr, cfg.epsilon):.9g}")


def _run_experiment(cfg, threads, out_dir, grid: bool):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = cfg.manifest()
    progress = lambda line: click.echo(line)
    if grid:
        per_point, summary, errors = run_grid_search(
            manifest, cfg.baselines, threads=threads, progress=progress)
        name = lambda key: f"grid_{key}.csv"
    else:
        if cfg.sweep is None:
            _fail("config has no sweep section")
        per_point, summary, errors = run_sweep(
            manifest, cfg.sweep, cfg.baselines, models=cfg.models,
            threads=threads, progress=progress)
        name = lambda key: f"{cfg.sweep.parameter}_{key:g}.csv"
    for key, records in per_point.items():
        if records:
            hio.write_metric_csv(out / name(key), records)
    if summary:
        write_summary_csv(out / "summary.csv", summary)
    write_run_log(out / "run_log.json", manifest,
                  extra={"threads": threads, "mode": "grid" if grid else "sweep"})
    if errors:
        for err in errors:
            click.echo(f"point failed: {err}", err=True)
        click.echo(f"{len(errors)} point(s) failed; completed points preserved", err=True)
        sys.exit(3)
    click.echo(f"all points completed; results in {out}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--threads", type=int, default=None)
@click.option("--out", "out_dir", default=None, type=click.Path())
def sweep(config_path, threads, out_dir):
    """Run the config's parameter sweep across all model arms."""
    cfg = _load(config_path)
    _run_experiment(cfg, threads or cfg.threads, out_dir or cfg.output_dir, grid=False)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--threads", type=int, default=None)
@click.option("--out", "out_dir", default=None, type=click.Path())
def grid(config_path, threads, out_dir):
    """Run the 8-corner grid search (standard and hybrid arms)."""
    cfg = _load(config_path)
    _run_experiment(cfg, threads or cfg.threads, out_dir or cfg.output_dir, grid=True)


@main.command()
@click.option("--in", "in_dir", required=True, type=click.Path())
@click.option("--plot", is_flag=True, help="Also render SVG line plots.")
def report(in_dir, plot):
    """Aggregate metric CSVs into summary.csv and optional SVG figures."""
    in_path = Path(in_dir)
    files = sorted(p for p in in_path.glob("*.csv") if p.name != "summary.csv")
    records = []
    for path in files:
        records.extend(hio.read_metric_csv(path))
    if not records:
        _fail(f"no metric records found in {in_dir}")
    summary = aggregate_report(records)
    write_summary_csv(in_path / "summary.csv", summary)
    click.echo(f"wrote {in_path / 'summary.csv'} ({len(summary)} rows)")
    if plot:
        groups = defaultdict(list)
        for row in summary:
            groups[(row.task, row.regime, row.param_name.split("_")[0]
                    if row.param_name.startswith("grid_") else row.param_name)].append(row)
        for (task, regime, param), rows in sorted(groups.items()):
            for metric in ("mean_nmse", "valid_time"):
                svg = render_sweep_svg(rows, metric=metric,
                                       title=f"{task} / {regime} / {param}")
                path = in_path / f"{task}_{regime}_{param}_{metric}.svg"
                path.write_text(svg)
                click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
