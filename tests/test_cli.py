import json
import signal
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from hybrid_esn import cli, experiments
from hybrid_esn import io as hio
from hybrid_esn.cli import main
from hybrid_esn.config import SCHEMA_VERSION, SEED_ENV_VAR, load_config
from hybrid_esn.evaluation import segment
from hybrid_esn.experiments import SeedScheme, run_shared_procedure, train_instantiation
from hybrid_esn.io import load_model, read_metric_csv, read_trajectory_csv
from hybrid_esn.reservoir import CollectionError


@pytest.fixture
def runner():
    return CliRunner()


TINY_LAYOUT = {"training": 150, "train_test_gap": 30, "warmup": 15,
               "test": 40, "test_test_gap": 5, "n_tests": 2}


def write_config(tmp_path, **kw):
    doc = {
        "schema_version": SCHEMA_VERSION,
        "task": "parameter_error",
        "regimes": ["synchrony"],
        "baselines": {"size": 40},
        "layout": TINY_LAYOUT,
        "n_instantiations": 1,
        "n_realizations": 1,
        "master_seed": 5,
    }
    doc.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def assert_one_line_error(result, code, fragment):
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)  # no traceback
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0]


class TestGenerate:
    def test_writes_trajectory_and_sidecar(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "traj.csv"
        result = runner.invoke(main, ["generate", "--config", str(cfg),
                                      "--regime", "synchrony", "--out", str(out)])
        assert result.exit_code == 0, result.output
        traj, dt = read_trajectory_csv(out)
        total = 150 + 30 + 2 * (15 + 40 + 5)
        assert traj.shape == (10, total + 1)  # one row per step plus t=0
        assert dt == pytest.approx(0.1)
        meta = json.loads((tmp_path / "traj.meta.json").read_text())
        assert meta["regime"] == "synchrony"
        assert len(meta["omega"]) == 5

    def test_same_seed_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            result = runner.invoke(main, ["generate", "--config", str(cfg),
                                          "--regime", "synchrony", "--out", str(out)])
            assert result.exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_changes_output(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        runner.invoke(main, ["generate", "--config", str(cfg), "--regime",
                             "synchrony", "--out", str(a)])
        runner.invoke(main, ["generate", "--config", str(cfg), "--regime",
                             "synchrony", "--out", str(b)],
                      env={"HYBRID_ESN_SEED": "99"})
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_regime_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(main, ["generate", "--config", str(cfg),
                                      "--regime", "turbulence",
                                      "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert "turbulence" in result.output

    def test_numerical_blowup_exits_3(self, runner, tmp_path):
        # this seed draws a Cauchy-tail natural frequency that RK4 at 10
        # substeps per sample cannot follow; the one error line is all it
        # prints (a numpy overflow warning would be raised here)
        cfg = write_config(tmp_path, task="residual_physics",
                           regimes=["heteroclinic_cycles"], master_seed=14317)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["generate", "--config", str(cfg),
                                          "--regime", "heteroclinic_cycles",
                                          "--out", str(tmp_path / "x.csv")])
        assert_one_line_error(result, 3, "non-finite state")

    def test_single_sample_test_span_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path, layout={**TINY_LAYOUT, "test": 1})
        result = runner.invoke(main, ["generate", "--config", str(cfg),
                                      "--regime", "synchrony", "--out", str(tmp_path / "x.csv")])
        assert_one_line_error(result, 2, "test must be >= 2")

    def test_malformed_config_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        result = runner.invoke(main, ["generate", "--config", str(bad),
                                      "--regime", "synchrony",
                                      "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2
        assert "line 1" in result.output


class TestTrainForecast:
    def test_train_saves_loadable_model(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "model.bin"
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--regime", "synchrony",
                                      "--model", "hybrid", "--out", str(out)])
        assert result.exit_code == 0, result.output
        model = load_model(out)
        assert model.matrices.d_r == 40
        assert model.readout.shape == (10, 50)
        assert model.expert is not None

    def test_train_standard_has_no_expert(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "model.bin"
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--regime", "synchrony",
                                      "--model", "standard", "--out", str(out)])
        assert result.exit_code == 0
        model = load_model(out)
        assert model.expert is None
        assert model.readout.shape == (10, 40)

    def test_unknown_model_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(main, ["train", "--config", str(cfg),
                                      "--regime", "synchrony", "--model", "lstm",
                                      "--out", str(tmp_path / "m.bin")])
        assert result.exit_code == 2

    def test_forecast_writes_csv_and_metrics(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "pred.csv"
        result = runner.invoke(main, ["forecast", "--config", str(cfg),
                                      "--regime", "synchrony", "--model", "hybrid",
                                      "--span", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        preds, _ = read_trajectory_csv(out)
        assert preds.shape == (10, 40)
        assert "mean_nmse=" in result.output and "valid_time_s=" in result.output

    def test_train_zero_regularization_exits_2(self, runner, tmp_path):
        # a rank-deficient Gram matrix with beta = 0 is a configuration error
        cfg = write_config(tmp_path, baselines={"size": 200, "regularization": 0})
        result = runner.invoke(main, ["train", "--config", str(cfg), "--regime", "synchrony",
                                      "--model", "hybrid", "--out", str(tmp_path / "m.bin")])
        assert_one_line_error(result, 2, "rank deficient")

    def test_forecast_abort_exits_3(self, runner, tmp_path):
        # an overwhelming ridge penalty shrinks the readout to ~0, which
        # cannot be renormalized at the first step
        cfg = write_config(tmp_path, baselines={"size": 40, "regularization": 1e30})
        result = runner.invoke(main, ["forecast", "--config", str(cfg), "--regime", "synchrony",
                                      "--model", "standard", "--out", str(tmp_path / "p.csv")])
        assert_one_line_error(result, 3, "forecast aborted at step 0")

    def test_forecast_collection_error_exits_3(self, runner, tmp_path, monkeypatch):
        def fail(*args, **kwargs):
            raise CollectionError(4)

        monkeypatch.setattr("hybrid_esn.experiments.collect_states", fail)
        cfg = write_config(tmp_path)
        result = runner.invoke(main, ["forecast", "--config", str(cfg), "--regime", "synchrony",
                                      "--out", str(tmp_path / "p.csv")])
        assert_one_line_error(result, 3, "training step 4")

    @pytest.mark.parametrize("model", ["standard", "hybrid"])
    def test_cli_trains_through_shared_builder(self, runner, tmp_path, model):
        # the train dump is the experiments' instantiation 0, and forecast
        # prints the metrics of its record for every span
        path = write_config(tmp_path)
        cfg = load_config(path)
        cache = {}
        records = run_shared_procedure(cfg.manifest(), model, cfg.baselines, "synchrony",
                                       ground_truth_cache=cache)
        record, params = cache[(cfg.task, "synchrony", 0, 0)]
        ctx = dict(task=cfg.task, regime="synchrony", realization=0, sweep_index=0,
                   instantiation=0)
        want = train_instantiation(cfg.manifest(), model, cfg.baselines,
                                   SeedScheme(cfg.master_seed), segment(record, cfg.layout)[0],
                                   params, {}, ctx)
        out = tmp_path / "model.bin"
        result = runner.invoke(main, ["train", "--config", str(path), "--regime", "synchrony",
                                      "--model", model, "--out", str(out)])
        assert result.exit_code == 0, result.output
        got = load_model(out)
        np.testing.assert_array_equal(got.matrices.internal.toarray(),
                                      want.matrices.internal.toarray())
        np.testing.assert_array_equal(got.matrices.input, want.matrices.input)
        np.testing.assert_array_equal(got.readout, want.readout)
        if model == "hybrid":
            np.testing.assert_array_equal(got.expert.params.omega, want.expert.params.omega)
            assert got.expert.params.coupling == want.expert.params.coupling
        else:
            assert got.expert is None and want.expert is None
        firsts = [r for r in records if r.instantiation == 0]
        assert [r.span for r in firsts] == [0, 1]
        for rec in firsts:
            result = runner.invoke(main, ["forecast", "--config", str(path),
                                          "--regime", "synchrony", "--model", model,
                                          "--span", str(rec.span),
                                          "--out", str(tmp_path / "p.csv")])
            assert result.exit_code == 0, result.output
            assert result.output.splitlines()[-1] == (
                f"mean_nmse={rec.mean_nmse:.9g} valid_time_s={rec.valid_time:.9g}")

    def test_forecast_span_out_of_range_exits_2(self, runner, tmp_path, monkeypatch):
        def no_integration(*args, **kwargs):
            raise AssertionError("ground truth integrated")

        monkeypatch.setattr(cli, "simulate", no_integration)
        cfg = write_config(tmp_path)
        result = runner.invoke(main, ["forecast", "--config", str(cfg),
                                      "--regime", "synchrony", "--span", "9",
                                      "--out", str(tmp_path / "p.csv")])
        assert_one_line_error(result, 2, "span must be in [0, 1]")

    @pytest.mark.parametrize("argv, n_steps", [
        (["train", "--out", "m.bin"], 150),
        (["forecast", "--span", "0", "--out", "p.csv"], 150 + 30 + 15 + 40 - 1),
        (["forecast", "--span", "1", "--out", "p.csv"], 150 + 30 + 60 + 15 + 40 - 1),
    ], ids=["train", "forecast_span_0", "forecast_span_1"])
    def test_integrates_only_the_samples_read(self, runner, tmp_path, monkeypatch, argv,
                                              n_steps):
        # train reads the training span, forecast the record through its span's test
        real, steps = cli.simulate, []

        def counted(params, theta0, integrator, n):
            steps.append(n)
            return real(params, theta0, integrator, n)

        monkeypatch.setattr(cli, "simulate", counted)
        cfg = write_config(tmp_path)
        argv = [argv[0], "--config", str(cfg), "--regime", "synchrony",
                *argv[1:-1], str(tmp_path / argv[-1])]
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        assert steps == [n_steps]


class TestSweepGridReport:
    def test_sweep_outputs(self, runner, tmp_path):
        cfg = write_config(tmp_path, sweep={"parameter": "sigma_k",
                                            "values": [0.0, 0.1]},
                           models=["standard", "ode"])
        out = tmp_path / "out"
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "sigma_k_0.csv").exists()
        assert (out / "sigma_k_0.1.csv").exists()
        assert (out / "summary.csv").exists()
        log = json.loads((out / "run_log.json").read_text())
        assert log["mode"] == "sweep" and log["master_seed"] == 5
        recs = read_metric_csv(out / "sigma_k_0.csv")
        assert {r.model for r in recs} == {"standard", "ode"}

    def test_sweep_threads_byte_identical(self, runner, tmp_path):
        cfg = write_config(tmp_path, sweep={"parameter": "sigma_k", "values": [0.05]},
                           models=["hybrid"], n_instantiations=3)
        out1, out8 = tmp_path / "o1", tmp_path / "o8"
        for out, threads in ((out1, "1"), (out8, "8")):
            result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                          "--threads", threads, "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert ((out1 / "sigma_k_0.05.csv").read_bytes()
                == (out8 / "sigma_k_0.05.csv").read_bytes())
        assert (out1 / "summary.csv").read_bytes() == (out8 / "summary.csv").read_bytes()

    @pytest.mark.parametrize("baselines, values", [
        ({"size": 40, "regularization": -1}, [0.0]),
        ({"size": 40}, [0.0, -0.1]),
    ], ids=["baseline", "sweep_value"])
    def test_out_of_range_baseline_exits_2(self, runner, tmp_path, baselines, values):
        cfg = write_config(tmp_path, baselines=baselines,
                           sweep={"parameter": "sigma_k", "values": values})
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert_one_line_error(result, 2, "must be")
        assert not (tmp_path / "o").exists()

    def test_sweep_without_sweep_section_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(main, ["sweep", "--config", str(cfg),
                                      "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_grid_outputs_eight_points(self, runner, tmp_path):
        cfg = write_config(tmp_path, task="residual_physics",
                           regimes=["synchrony"],
                           baselines={"size": 30}, grid=True)
        out = tmp_path / "grid"
        result = runner.invoke(main, ["grid", "--config", str(cfg),
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        for label in "ABCDEFGH":
            assert (out / f"grid_{label}.csv").exists()
        assert (out / "summary.csv").exists()

    def test_report_regenerates_summary(self, runner, tmp_path):
        cfg = write_config(tmp_path, sweep={"parameter": "sigma_k",
                                            "values": [0.0]},
                           models=["ode"])
        out = tmp_path / "out"
        runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])
        original = (out / "summary.csv").read_bytes()
        (out / "summary.csv").unlink()
        result = runner.invoke(main, ["report", "--in", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "summary.csv").read_bytes() == original

    def test_report_with_plots(self, runner, tmp_path):
        cfg = write_config(tmp_path, sweep={"parameter": "sigma_k",
                                            "values": [0.0, 0.1]},
                           models=["standard", "ode"])
        out = tmp_path / "out"
        runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])
        result = runner.invoke(main, ["report", "--in", str(out), "--plot"])
        assert result.exit_code == 0, result.output
        svgs = list(out.glob("*.svg"))
        assert len(svgs) == 2  # mean_nmse and valid_time figures
        for svg in svgs:
            text = svg.read_text()
            assert text.startswith("<svg") and "</svg>" in text

    def test_report_empty_dir_exits_2(self, runner, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = runner.invoke(main, ["report", "--in", str(empty)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text, fragment", [
        ("model,instantiation,span\nhybrid,0,0\n", "missing column(s) task, regime"),
        (hio.METRIC_CSV_HEADER + "\nparameter_error,synchrony,hybrid,sigma_k,0,0,0,0.1,1\n"
         "parameter_error,synchrony,hybrid,sigma_k,0,0,1,abc,1\n",
         "line 3: could not convert string to float: 'abc'"),
    ], ids=["missing_columns", "non_numeric_cell"])
    def test_report_malformed_csv_exits_2(self, runner, tmp_path, text, fragment):
        (tmp_path / "points.csv").write_text(text)
        result = runner.invoke(main, ["report", "--in", str(tmp_path)])
        assert_one_line_error(result, 2, f"cannot read metric CSV {tmp_path / 'points.csv'}: ")
        assert fragment in result.output
        assert not (tmp_path / "summary.csv").exists()


class TestStreamedPoints:
    """Each sweep point's metric CSV lands as the point ends; an interrupt keeps it."""

    SWEEP = {"parameter": "sigma_k", "values": [0.0, 0.1]}

    def run_sweep_cmd(self, runner, tmp_path, out):
        cfg = write_config(tmp_path, sweep=self.SWEEP, models=["standard", "ode"])
        return runner.invoke(main, ["sweep", "--config", str(cfg), "--out", str(out)])

    def hook_point_2(self, monkeypatch, hook):
        """Call `hook()` when the first arm of the second point starts."""
        real = experiments.run_shared_procedure

        def hooked(*args, sweep_index=0, **kwargs):
            if sweep_index == 1:
                hook()
            return real(*args, sweep_index=sweep_index, **kwargs)

        monkeypatch.setattr(experiments, "run_shared_procedure", hooked)

    def test_point_1_csv_complete_before_point_2_starts(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "out"
        snapshots = []

        def snapshot():
            if not snapshots:
                snapshots.append(({p.name for p in out.iterdir()},
                                  (out / "sigma_k_0.csv").read_bytes()))

        self.hook_point_2(monkeypatch, snapshot)
        result = self.run_sweep_cmd(runner, tmp_path, out)
        assert result.exit_code == 0, result.output
        names, point_1 = snapshots[0]
        assert names == {"sigma_k_0.csv"}  # no temp file, nothing of point 2
        assert point_1 == (out / "sigma_k_0.csv").read_bytes()
        assert len(read_metric_csv(out / "sigma_k_0.csv")) == 2 * 1 * 2

    def test_interrupt_after_point_1_exits_3(self, runner, tmp_path, monkeypatch):
        full = tmp_path / "full"
        assert self.run_sweep_cmd(runner, tmp_path, full).exit_code == 0

        def interrupt():
            raise KeyboardInterrupt

        self.hook_point_2(monkeypatch, interrupt)
        out = tmp_path / "out"
        result = self.run_sweep_cmd(runner, tmp_path, out)
        assert result.exit_code == 3, result.output
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [f"error: interrupted; finished points in {out}: sigma_k_0"]
        assert [p.name for p in out.iterdir()] == ["sigma_k_0.csv"]
        assert (out / "sigma_k_0.csv").read_bytes() == (full / "sigma_k_0.csv").read_bytes()

    def test_sigterm_after_point_1_exits_3(self, runner, tmp_path, monkeypatch):
        before = signal.getsignal(signal.SIGTERM)

        def terminate():
            # without a handler of the sweep's own, SIGTERM would end the test run
            assert signal.getsignal(signal.SIGTERM) is not before
            signal.raise_signal(signal.SIGTERM)

        self.hook_point_2(monkeypatch, terminate)
        out = tmp_path / "out"
        result = self.run_sweep_cmd(runner, tmp_path, out)
        assert result.exit_code == 3, result.output
        assert "Traceback" not in result.output
        errors = [line for line in result.output.splitlines() if line.startswith("error:")]
        assert errors == [f"error: interrupted; finished points in {out}: sigma_k_0"]
        assert [p.name for p in out.iterdir()] == ["sigma_k_0.csv"]
        assert signal.getsignal(signal.SIGTERM) is before

    def test_interrupt_inside_csv_write_leaves_no_temp_file(self, runner, tmp_path,
                                                              monkeypatch):
        def torn_write(path, records):
            Path(path).write_text(hio.METRIC_CSV_HEADER + "\n")
            raise KeyboardInterrupt

        monkeypatch.setattr(hio, "write_metric_csv", torn_write)
        out = tmp_path / "out"
        result = self.run_sweep_cmd(runner, tmp_path, out)
        assert result.exit_code == 3, result.output
        assert result.output.splitlines() == [
            f"error: interrupted; finished points in {out}: none"]
        assert list(out.iterdir()) == []


def bad_out_file(tmp_path):
    (tmp_path / "taken").write_text("not a directory\n")
    return ["--out", str(tmp_path / "taken")]


def bad_out_below_file(tmp_path):
    (tmp_path / "taken").write_text("not a directory\n")
    return ["--out", str(tmp_path / "taken" / "results")]


def seed_env(value):
    """No extra arguments; the command runs with HYBRID_ESN_SEED set to `value`."""
    def extra(tmp_path):
        return []
    extra.env = {SEED_ENV_VAR: value}
    return extra


@pytest.mark.parametrize("command, config, extra, fragment", [
    ("sweep", {}, bad_out_file, "taken"),
    ("grid", {"grid": True}, bad_out_file, "taken"),
    ("sweep", {}, bad_out_below_file, "taken/results"),
    ("grid", {"grid": True, "regimes": ["asynchrony"]}, lambda p: [], "'asynchrony'"),
    ("sweep", {}, lambda p: ["--threads", "0"], "--threads must be >= 1"),
    ("grid", {"grid": True}, lambda p: ["--threads", "-2"], "--threads must be >= 1"),
    ("sweep", {"n_instantiations": 0}, lambda p: [],
     "n_instantiations must be an integer >= 1, got 0"),
    ("sweep", {"n_realizations": 0}, lambda p: [],
     "n_realizations must be an integer >= 1, got 0"),
    ("sweep", {"n_instantiations": 2.5}, lambda p: [],
     "n_instantiations must be an integer >= 1, got 2.5"),
    ("grid", {"grid": True, "n_realizations": "2"}, lambda p: [],
     "n_realizations must be an integer >= 1"),
    ("sweep", {"threads": 1.5}, lambda p: [], "threads must be an integer >= 1, got 1.5"),
    ("sweep", {"layout": {**TINY_LAYOUT, "dt": 0.05}}, lambda p: [],
     "layout dt 0.05 must equal integrator dt 0.1"),
    ("generate", {"integrator": {"dt": 0.05}, "layout": {**TINY_LAYOUT, "dt": 0.1}},
     lambda p: ["--regime", "synchrony"], "layout dt 0.1 must equal integrator dt 0.05"),
    ("sweep", {"master_seed": -1}, lambda p: [], "master_seed must be an integer >= 0, got -1"),
    ("sweep", {"master_seed": "a"}, lambda p: [], "master_seed must be an integer >= 0, got 'a'"),
    ("sweep", {}, seed_env("-1"), "HYBRID_ESN_SEED must be an integer >= 0, got '-1'"),
    ("generate", {}, lambda p: ["--regime", "synchrony", "--seed", "-1"],
     "master_seed must be an integer >= 0, got -1"),
    ("sweep", {"integrator": {"substeps_per_sample": 2.5}}, lambda p: [],
     "substeps_per_sample must be an integer >= 1, got 2.5"),
    ("sweep", {"integrator": {"dt": "a"}}, lambda p: [], "'<=' not supported"),
    ("sweep", {"layout": {**TINY_LAYOUT, "test": 40.5}}, lambda p: [],
     "test must be an integer >= 1, got 40.5"),
    ("sweep", {"epsilon": -1}, lambda p: [], "epsilon must be a positive number, got -1"),
    ("sweep", {"models": []}, lambda p: [], "models must name at least one model arm"),
    ("sweep", {"regimes": []}, lambda p: [], "regimes must name at least one regime"),
    ("sweep", {"grid": "no"}, lambda p: [], "grid must be true or false, got 'no'"),
    ("sweep", {"output_dir": 5}, lambda p: [], "output_dir must be a string, got 5"),
    ("sweep", {"layout": 5}, lambda p: [], "layout must be a JSON object"),
    ("sweep", {"sweep": {"parameter": "sigma_k", "values": 5}}, lambda p: [],
     "'int' object is not iterable"),
], ids=["sweep_out_is_file", "grid_out_is_file", "out_below_file", "grid_regime",
        "threads_0", "threads_negative", "instantiations_0", "realizations_0",
        "instantiations_float", "realizations_str", "config_threads_float", "layout_dt",
        "integrator_dt", "master_seed_negative", "master_seed_str", "env_seed_negative",
        "generate_seed_negative", "substeps_float", "integrator_dt_str", "layout_test_float",
        "epsilon_negative", "models_empty", "regimes_empty", "grid_str", "output_dir_int",
        "layout_not_object", "sweep_values_int"])
def test_experiment_usage_error_exits_2(runner, tmp_path, monkeypatch, command, config,
                                        extra, fragment):
    def no_integration(*args, **kwargs):
        raise AssertionError("ground truth integrated")

    monkeypatch.setattr(experiments, "simulate_batch", no_integration)
    monkeypatch.setattr(cli, "simulate", no_integration)
    if command == "sweep":
        config = {"sweep": {"parameter": "sigma_k", "values": [0.0]}, **config}
    cfg = write_config(tmp_path, **config)
    argv = [command, "--config", str(cfg), *extra(tmp_path)]
    if "--out" not in argv:
        argv += ["--out", str(tmp_path / "o")]
    result = runner.invoke(main, argv, env=getattr(extra, "env", None))
    assert_one_line_error(result, 2, fragment)
    assert "Traceback" not in result.output
    assert not (tmp_path / "o").exists()

