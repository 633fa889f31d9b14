"""Config-driven command line front end.

Commands: generate | train | forecast | sweep | grid | report.
Exit codes: 0 success, 2 usage/config error, 3 partial experiment failure
(or a sweep or grid stopped by SIGINT or SIGTERM).
The HYBRID_ESN_SEED environment variable overrides the config master seed
for every command.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import tempfile
from collections import defaultdict
from dataclasses import fields, replace
from pathlib import Path

import click
import numpy as np

from . import io as hio
from .config import ConfigError, load_config
from .dynamics import NumericalBlowup, simulate
from .evaluation import segment, span_metrics
from .experiments import (
    SeedScheme,
    aggregate_report,
    check_grid_regimes,
    draw_ground_truth,
    instantiation_context,
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


def _write_atomically(path: Path, write, *args) -> None:
    """`write(temp path, *args)`, then rename the temp file to `path`; exits 2 on an OSError.

    The temp name ends in `.part`, never `.csv`, so a reader globbing the
    directory sees only whole files; an interrupt or a failed write removes it.
    """
    part = path.with_name(path.name + ".part")
    try:
        write(part, *args)
        os.replace(part, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):  # e.g. missing, or below a file
            part.unlink()
        if isinstance(exc, OSError):
            _fail(f"cannot write {path}: {exc.strerror or exc}")
        raise


def _ground_truth(manifest, regime, n_steps):
    """(params, theta0, record of n_steps) of realization 0 under the manifest's seed."""
    params, theta0 = draw_ground_truth(manifest, regime)  # ValueError on an unknown regime
    return params, theta0, simulate(params, theta0, manifest.integrator, n_steps)


@click.group()
def main():
    """Hybrid reservoir computing experiments for oscillator networks."""


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=False))
@click.option("--regime", required=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def generate(config_path, regime, out_path):
    """Generate one ground-truth trajectory CSV plus a sidecar metadata file."""
    manifest = _load(config_path).manifest
    try:
        params, theta0, trajectory = _ground_truth(manifest, regime, manifest.layout.total_steps)
    except ValueError as exc:
        _fail(str(exc))
    except NumericalBlowup as exc:
        _fail(str(exc), 3)
    layout = manifest.layout
    _write_atomically(Path(out_path), hio.write_trajectory_csv, trajectory, layout.dt)
    meta = {
        "task": manifest.task,
        "regime": regime,
        "master_seed": manifest.master_seed,
        "n_steps": layout.total_steps,
        "dt": layout.dt,
        "omega": list(params.omega),
        "coupling": params.coupling,
        "theta0": list(theta0),
    }
    if params.biharmonic:
        meta.update(gamma1=params.gamma1, gamma2=params.gamma2,
                    second_harmonic_scale=params.second_harmonic_scale)
    meta_path = Path(out_path).with_suffix(".meta.json")
    _write_atomically(meta_path, Path.write_text, json.dumps(meta, indent=2, sort_keys=True) + "\n")
    click.echo(f"wrote {out_path} ({layout.total_steps + 1} samples) and {meta_path}")


def _train_one(cfg, regime, model_kind, n_steps):
    """Instantiation 0 of the regime's realization 0, trained by the experiments' builder.

    The ground truth is integrated for `n_steps` steps only, which must
    cover the training span.  Returns (model, ground-truth record).  Exits 2
    on a bad regime, model or regularization and 3 when the ground truth or
    the training run fails.
    """
    if model_kind not in ("standard", "hybrid"):
        _fail(f"unknown model {model_kind!r}; valid: standard, hybrid")
    manifest = cfg.manifest
    try:
        params, _, record = _ground_truth(manifest, regime, n_steps)
        model = train_instantiation(manifest, model_kind, cfg.baselines,
                                    SeedScheme(manifest.master_seed),
                                    record[:, :manifest.layout.training + 1], params, {},
                                    instantiation_context(manifest, regime))
    except (ValueError, ReadoutTrainingError) as exc:
        _fail(str(exc))
    except (NumericalBlowup, CollectionError, FloatingPointError) as exc:
        _fail(str(exc), 3)
    return model, record


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--regime", required=True)
@click.option("--model", "model_kind", default="hybrid", show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def train(config_path, regime, model_kind, out_path):
    """Train one reservoir instantiation and save the (A, B, C) model dump."""
    cfg = _load(config_path)
    model, _ = _train_one(cfg, regime, model_kind, cfg.manifest.layout.training)
    _write_atomically(Path(out_path), hio.save_model, model)
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
    manifest = cfg.manifest
    if not (0 <= span < manifest.layout.n_tests):
        _fail(f"span must be in [0, {manifest.layout.n_tests - 1}]")
    layout = replace(manifest.layout, n_tests=span + 1)  # the record ends with this span's test
    model, record = _train_one(cfg, regime, model_kind, layout.needed_samples - 1)
    warmup, test = segment(record, layout)[1][span]
    try:
        preds = rc_forecast(warmup, test.shape[1], model.matrices, model.readout,
                            expert=model.expert)
    except (ForecastAbort, FloatingPointError, ValueError) as exc:
        _fail(str(exc), 3)
    _write_atomically(Path(out_path), hio.write_trajectory_csv, preds, layout.dt)
    nmse, vt = span_metrics(np.linalg.norm(test - preds, axis=0), test, layout.dt,
                            manifest.epsilon)
    click.echo(f"wrote forecast {out_path}")
    click.echo(f"mean_nmse={nmse:.9g} valid_time_s={vt:.9g}")


def _interrupt(signum, frame):
    """SIGTERM handler: stop a sweep or grid as Ctrl-C does."""
    raise KeyboardInterrupt


def _run_experiment(cfg, out_dir, grid: bool):
    """Run the sweep or grid, writing each point's metric CSV as soon as the point ends."""
    manifest = cfg.manifest
    if grid:
        try:
            check_grid_regimes(manifest.regimes)
        except ValueError as exc:
            _fail(str(exc))
    elif cfg.sweep is None:
        _fail("config has no sweep section")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        tempfile.TemporaryFile(dir=out).close()
    except OSError as exc:
        _fail(f"cannot write to output directory {out}: {exc.strerror or exc}")
    finished = []

    def on_point(outcome):
        if outcome.records:
            _write_atomically(out / f"{outcome.name}.csv", hio.write_metric_csv, outcome.records)
        finished.append(outcome.name)
        click.echo(outcome.status)

    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        if grid:
            outcomes, summary = run_grid_search(manifest, cfg.baselines, on_point=on_point)
        else:
            outcomes, summary = run_sweep(manifest, cfg.sweep, cfg.baselines,
                                          models=cfg.models, on_point=on_point)
        if summary:
            _write_atomically(out / "summary.csv", write_summary_csv, summary)
        _write_atomically(out / "run_log.json", write_run_log, manifest,
                          {"threads": cfg.threads, "mode": "grid" if grid else "sweep"})
    except KeyboardInterrupt:
        _fail(f"interrupted; finished points in {out}: {', '.join(finished) or 'none'}", 3)
    finally:
        signal.signal(signal.SIGTERM, previous)
    failed = [outcome for outcome in outcomes if outcome.failures]
    if failed:
        for outcome in failed:
            for regime, arm, exc in outcome.failures:
                message = json.dumps(str(exc), ensure_ascii=False)
                click.echo(f"arm failed: point={outcome.name} regime={regime} arm={arm} "
                           f"error={type(exc).__name__} message={message}", err=True)
        n_arms = sum(len(outcome.failures) for outcome in failed)
        click.echo(f"{n_arms} arm(s) failed, at {len(failed)} of {len(outcomes)} point(s); "
                   f"the other arms' records are in {out}", err=True)
        sys.exit(3)
    click.echo(f"all points completed; results in {out}")


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default="out", show_default=True, type=click.Path())
def sweep(config_path, out_dir):
    """Run the config's parameter sweep across all model arms."""
    _run_experiment(_load(config_path), out_dir, grid=False)


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", "out_dir", default="out", show_default=True, type=click.Path())
def grid(config_path, out_dir):
    """Run the 8-corner grid search (standard and hybrid arms)."""
    _run_experiment(_load(config_path), out_dir, grid=True)


@main.command()
@click.option("--in", "in_dir", required=True, type=click.Path())
@click.option("--plot", is_flag=True, help="Also render SVG line plots.")
def report(in_dir, plot):
    """Aggregate metric CSVs into summary.csv and optional SVG figures."""
    in_path = Path(in_dir)
    files = sorted(p for p in in_path.glob("*.csv") if p.name != "summary.csv")
    records, origin = [], {}
    for path in files:
        try:
            rows = hio.read_metric_csv(path)
        except (OSError, ValueError) as exc:
            _fail(f"cannot read metric CSV {path}: {exc}")
        for r in rows:  # every field but the two metrics; a repeated key would be averaged
            key = tuple(getattr(r, f.name) for f in fields(r)[:-2])
            if key in origin:
                named = " ".join(f"{f.name}={value}" for f, value in zip(fields(r), key))
                _fail(f"duplicate metric record {named} in {origin[key]} and {path}")
            origin[key] = path
        records.extend(rows)
    if not records:
        _fail(f"no metric records found in {in_dir}")
    summary = aggregate_report(records)
    _write_atomically(in_path / "summary.csv", write_summary_csv, summary)
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
                _write_atomically(path, Path.write_text, svg)
                click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
