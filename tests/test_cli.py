import json
import warnings

import numpy as np
import pytest
from click.testing import CliRunner

from hybrid_esn.cli import main
from hybrid_esn.config import SCHEMA_VERSION, load_config
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
        assert model.readout.weights.shape == (10, 50)
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
        assert model.readout.weights.shape == (10, 40)

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
        np.testing.assert_array_equal(got.readout.weights, want.readout.weights)
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

    def test_forecast_span_out_of_range_exits_2(self, runner, tmp_path):
        cfg = write_config(tmp_path)
        result = runner.invoke(main, ["forecast", "--config", str(cfg),
                                      "--regime", "synchrony", "--span", "9",
                                      "--out", str(tmp_path / "p.csv")])
        assert result.exit_code == 2


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
