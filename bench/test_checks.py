"""Each output check accepts the program's real output and rejects a corrupted copy.

    python3 -m pytest bench/test_checks.py -q      # from the repository root

The program runs in-process on tiny configs (seconds in total); every test
corrupts one file of a copy of those outputs and expects a CheckError.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import check_forecast, check_generate, check_report, check_sweep  # noqa: E402

LAYOUT = {"training": 60, "train_test_gap": 10, "warmup": 10, "test": 80,
          "test_test_gap": 10, "n_tests": 2}
CONFIG = {
    "schema_version": 1, "task": "residual_physics", "regimes": ["heteroclinic_cycles"],
    "baselines": {"size": 40}, "layout": LAYOUT, "n_instantiations": 2, "n_realizations": 1,
    "sweep": {"parameter": "regularization", "values": [1e-6, 1e-3]},
    "models": ["standard", "hybrid", "ode"], "master_seed": 1, "threads": 1,
}


def _cli(argv, cwd):
    from click.testing import CliRunner
    from hybrid_esn.cli import main

    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(cwd)
        mp.delenv("HYBRID_ESN_SEED", raising=False)
        result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    return result.output


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    out = tmp_path_factory.mktemp("pristine")
    (out / "config.json").write_text(json.dumps(CONFIG))
    regime = CONFIG["regimes"][0]
    _cli(["generate", "--config", "config.json", "--regime", regime, "--out", "traj.csv"], out)
    stdout = _cli(["forecast", "--config", "config.json", "--regime", regime, "--model",
                   "hybrid", "--span", "0", "--out", "pred.csv"], out)
    _cli(["sweep", "--config", "config.json", "--out", "results"], out)
    _cli(["report", "--in", "results", "--plot"], out)
    return out, stdout


@pytest.fixture
def outputs(pristine, tmp_path):
    src, stdout = pristine
    dst = tmp_path / "round"
    shutil.copytree(src, dst)
    return dst, stdout


def _edit_csv(path, row, col, fn):
    lines = Path(path).read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def _drop_line(path, row):
    lines = Path(path).read_text().splitlines()
    del lines[row]
    Path(path).write_text("\n".join(lines) + "\n")


def test_pristine_outputs_pass(outputs):
    out, stdout = outputs
    check_generate(out, CONFIG, "")
    check_forecast(out, CONFIG, stdout)
    check_sweep(out, CONFIG, "")
    check_report(out, CONFIG, "")


def test_trajectory_rejects_a_rotated_sample(outputs):
    out, _ = outputs
    traj = checks.read_trajectory(out / "traj.csv")[1]
    theta = np.arctan2(traj[100, 1], traj[100, 0]) + 1e-3
    _edit_csv(out / "traj.csv", 101, 1, lambda _: repr(float(np.cos(theta))))
    _edit_csv(out / "traj.csv", 101, 2, lambda _: repr(float(np.sin(theta))))
    with pytest.raises(CheckError, match="phase-form oracle"):
        check_generate(out, CONFIG, "")


def test_trajectory_rejects_a_sample_off_the_unit_circle(outputs):
    out, _ = outputs
    _edit_csv(out / "traj.csv", 50, 3, lambda v: repr(float(v) * (1 + 1e-9)))
    with pytest.raises(CheckError, match="unit circle"):
        check_generate(out, CONFIG, "")


def test_trajectory_rejects_a_missing_sample(outputs):
    out, _ = outputs
    _drop_line(out / "traj.csv", -1)
    with pytest.raises(CheckError, match="shape"):
        check_generate(out, CONFIG, "")


def test_forecast_rejects_a_misprinted_nmse(outputs):
    out, stdout = outputs
    printed = float(stdout.split("mean_nmse=")[1].split()[0])
    wrong = stdout.replace(f"mean_nmse={printed:.9g}", f"mean_nmse={printed * (1 + 1e-7):.9g}")
    with pytest.raises(CheckError, match="mean_nmse"):
        check_forecast(out, CONFIG, wrong)


def test_forecast_rejects_an_altered_prediction(outputs):
    out, stdout = outputs
    _edit_csv(out / "pred.csv", 5, 1, lambda v: repr(-float(v)))
    with pytest.raises(CheckError, match="mean_nmse"):
        check_forecast(out, CONFIG, stdout)


def test_forecast_rejects_a_misprinted_valid_time(outputs):
    out, stdout = outputs
    printed = float(stdout.split("valid_time_s=")[1].split()[0])
    wrong = stdout.replace(f"valid_time_s={printed:.9g}", f"valid_time_s={printed - 0.1:.9g}")
    with pytest.raises(CheckError, match="valid_time_s"):
        check_forecast(out, CONFIG, wrong)


@pytest.mark.parametrize("edit, message", [
    (lambda p: _drop_line(p, 3), "records"),
    (lambda p: _edit_csv(p, 2, 7, lambda v: "2.5"), r"outside \[0, 2\]"),
    (lambda p: _edit_csv(p, 2, 8, lambda v: "0.15"), "multiple of dt"),
    (lambda p: _edit_csv(p, 2, 8, lambda v: "8.1"), "outside"),
    (lambda p: _edit_csv(p, 2, 5, lambda v: "7"), "keys differ"),
    (lambda p: _edit_csv(p, 2, 4, lambda v: "0.002"), "expected regularization"),
])
def test_metric_csv_rejects_corruption(outputs, edit, message):
    out, _ = outputs
    edit(out / "results" / "regularization_1e-06.csv")
    with pytest.raises(CheckError, match=message):
        check_sweep(out, CONFIG, "")


def test_summary_rejects_a_changed_statistic(outputs):
    out, _ = outputs
    _edit_csv(out / "results" / "summary.csv", 1, 6, lambda v: repr(float(v) * (1 + 1e-5)))
    with pytest.raises(CheckError, match="re-aggregated"):
        check_report(out, CONFIG, "")


def test_summary_rejects_a_missing_row(outputs):
    out, _ = outputs
    _drop_line(out / "results" / "summary.csv", 2)
    with pytest.raises(CheckError, match="rows"):
        check_sweep(out, CONFIG, "")


def test_svg_rejects_truncated_xml(outputs):
    out, _ = outputs
    svg = out / "results" / "residual_physics_heteroclinic_cycles_regularization_valid_time.svg"
    svg.write_text(svg.read_text()[:-20])
    with pytest.raises(CheckError, match="XML"):
        check_report(out, CONFIG, "")


def test_run_log_rejects_a_wrong_seed(outputs):
    out, _ = outputs
    log_path = out / "results" / "run_log.json"
    log = json.loads(log_path.read_text())
    log["master_seed"] = 2
    log_path.write_text(json.dumps(log))
    with pytest.raises(CheckError, match="master_seed"):
        check_sweep(out, CONFIG, "")


def _summary(hybrid, standard, ode):
    return {("t", "r", model, "p", 0.0): {"mean_nmse_mean": value}
            for model, value in (("hybrid", hybrid), ("standard", standard), ("ode", ode))}


def test_hybrid_property_accepts_the_paper_ordering():
    checks.check_hybrid_wins(_summary(0.01, 0.1, 1.0))


@pytest.mark.parametrize("values, message", [
    ((0.06, 0.1, 1.0), "not below 0.05"),
    ((0.02, 0.01, 1.0), "not below standard"),
    ((0.02, 0.1, 0.01), "not below ode"),
])
def test_hybrid_property_rejects_a_losing_hybrid(values, message):
    with pytest.raises(CheckError, match=message):
        checks.check_hybrid_wins(_summary(*values))
