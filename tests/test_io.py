from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from hybrid_esn.dynamics import KuramotoParams
from hybrid_esn.evaluation import MetricRecord
from hybrid_esn.hybrid import ExpertModel, Instantiation
from hybrid_esn.io import (
    METRIC_CSV_HEADER,
    load_model,
    read_metric_csv,
    save_model,
    write_metric_csv,
    write_trajectory_csv,
)
from hybrid_esn.reservoir import ReservoirMatrices
from oracle import read_trajectory_csv


class TestTrajectoryCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        traj = rng.uniform(-1, 1, (6, 40))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, 0.1)
        back, dt = read_trajectory_csv(path)
        # 17 significant digits round-trips IEEE doubles exactly
        np.testing.assert_array_equal(back, traj)
        assert dt == pytest.approx(0.1)

    def test_header_and_row_count(self, tmp_path):
        traj = np.zeros((4, 11))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, 0.1)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x_1,y_1,x_2,y_2"
        assert len(lines) == 12  # header + one row per sample

    def test_bytes_equal_per_value_format(self, tmp_path):
        values = [-0.0, 1e-05, 5e-324, 1e+300, -2.5, 0.1, float("nan"), float("-inf")]
        traj = np.array([values, values[::-1]])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, 0.01)
        rows = [",".join(format(x, ".17g") for x in (k * 0.01, *traj[:, k]))
                for k in range(traj.shape[1])]
        assert path.read_bytes() == ("t,x_1,y_1\n" + "".join(r + "\n" for r in rows)).encode()

    def test_time_column(self, tmp_path):
        traj = np.ones((2, 5))
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, traj, 0.25)
        t = np.loadtxt(path, delimiter=",", skiprows=1)[:, 0]
        np.testing.assert_allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)


class TestMetricCsv:
    def _records(self):
        return [
            MetricRecord(task="parameter_error", regime="synchrony", model="hybrid",
                         param_name="sigma_k", param_value=0.05, instantiation=0,
                         span=3, mean_nmse=0.123456789123, valid_time=12.5),
            MetricRecord(task="residual_physics", regime="partial_synchrony",
                         model="ode", param_name="grid_A", param_value=0.0,
                         instantiation=7, span=19, mean_nmse=2.0, valid_time=0.0),
        ]

    def test_header_line(self, tmp_path):
        path = tmp_path / "m.csv"
        write_metric_csv(path, self._records())
        assert path.read_text().splitlines()[0] == METRIC_CSV_HEADER
        assert METRIC_CSV_HEADER == ("task,regime,model,param_name,param_value,"
                                     "instantiation,span,mean_nmse,valid_time_s")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "m.csv"
        recs = self._records()
        write_metric_csv(path, recs)
        back = read_metric_csv(path)
        assert len(back) == 2
        for a, b in zip(recs, back):
            assert (a.task, a.regime, a.model, a.param_name) == (b.task, b.regime, b.model, b.param_name)
            assert a.instantiation == b.instantiation and a.span == b.span
            assert b.mean_nmse == pytest.approx(a.mean_nmse, rel=1e-8)  # 9 sig digits
            assert b.valid_time == pytest.approx(a.valid_time, rel=1e-8)

    def test_write_is_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metric_csv(p1, self._records())
        write_metric_csv(p2, self._records())
        assert p1.read_bytes() == p2.read_bytes()


def _matrices(d_r=8, d_in=4, seed=0):
    rng = np.random.default_rng(seed)
    a = scipy.sparse.random(d_r, d_r, density=0.2, random_state=seed).tocsr()
    b = np.zeros((d_r, d_in))
    b[np.arange(d_r), rng.integers(0, d_in, d_r)] = rng.uniform(-0.15, 0.15, d_r)
    return ReservoirMatrices(internal=a, input=b)


class TestModelDump:
    def test_magic_and_header(self, tmp_path):
        path = tmp_path / "model.bin"
        m = _matrices()
        save_model(path, Instantiation(m, np.zeros((4, 8))))
        blob = path.read_bytes()
        assert blob[:8] == b"HESNMDL1"
        import struct
        version, d_r, d_u, d_in, d_feat = struct.unpack("<5I", blob[8:28])
        assert (version, d_r, d_u, d_in, d_feat) == (1, 8, 4, 4, 8)

    def test_round_trip_standard(self, tmp_path):
        path = tmp_path / "model.bin"
        m = _matrices()
        rng = np.random.default_rng(1)
        readout = rng.normal(size=(4, 8))
        save_model(path, Instantiation(m, readout))
        model = load_model(path)
        assert model.expert is None
        np.testing.assert_array_equal(model.matrices.internal.toarray(), m.internal.toarray())
        np.testing.assert_array_equal(model.matrices.input, m.input)
        np.testing.assert_array_equal(model.readout, readout)

    def test_round_trip_hybrid_kuramoto(self, tmp_path):
        path = tmp_path / "model.bin"
        m = _matrices(d_r=6, d_in=8)
        readout = np.ones((4, 10))
        params = KuramotoParams(omega=np.array([0.3, -0.7]), coupling=4.0)
        save_model(path, Instantiation(m, readout, ExpertModel(params=params, dt=0.1)))
        expert = load_model(path).expert
        assert expert is not None and expert.dt == 0.1
        assert isinstance(expert.params, KuramotoParams)
        np.testing.assert_array_equal(expert.params.omega, params.omega)
        assert expert.params.coupling == 4.0

    def test_round_trip_hybrid_biharmonic(self, tmp_path):
        path = tmp_path / "model.bin"
        m = _matrices(d_r=6, d_in=8)
        readout = np.ones((4, 10))
        base = KuramotoParams(omega=np.array([0.01, -0.02]), coupling=1.0)
        params = replace(base, gamma1=1.3, gamma2=np.pi, second_harmonic_scale=0.2)
        save_model(path, Instantiation(m, readout, ExpertModel(params=params, dt=0.1)))
        import struct
        assert struct.unpack_from("<I", path.read_bytes(), 28) == (2,)  # the expert flag
        expert = load_model(path).expert
        assert expert.params.biharmonic
        assert expert.params.gamma1 == 1.3
        assert expert.params.gamma2 == np.pi
        assert expert.params.second_harmonic_scale == 0.2
        np.testing.assert_array_equal(expert.params.omega, base.omega)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMODEL" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_model(path)

    def test_loaded_model_forecasts_identically(self, tmp_path):
        from hybrid_esn.dynamics import (IntegratorConfig, realize_regime, simulate,
                                         standard_regime)
        from hybrid_esn.reservoir import (ReservoirConfig, build_matrices,
                                          collect_states, forecast, train_readout)
        traj = simulate(*realize_regime(standard_regime("synchrony"), 2), IntegratorConfig(), 300)
        cfg = ReservoirConfig(size=60)
        m = build_matrices(cfg, 10, False, 0, 1)
        features, targets = collect_states(traj[:, :201], m)
        readout = train_readout(features, targets, cfg.regularization)
        path = tmp_path / "model.bin"
        save_model(path, Instantiation(m, readout))
        loaded = load_model(path)
        a = forecast(traj[:, 200:250], 20, m, readout)
        b = forecast(traj[:, 200:250], 20, loaded.matrices, loaded.readout)
        np.testing.assert_array_equal(a, b)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, Instantiation(_matrices(), np.zeros((4, 8))))
        path.write_bytes(path.read_bytes() + b"\x00" * 40)
        with pytest.raises(ValueError, match="40 trailing bytes"):
            load_model(path)

    def test_truncated_dump_rejected(self, tmp_path):
        path = tmp_path / "model.bin"
        save_model(path, Instantiation(_matrices(), np.zeros((4, 8))))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_readout_wider_than_header_model_rejected(self, tmp_path):
        # flag 0 (no expert) but d_feat = d_r + d_u: the file is as long as
        # its header says, yet its readout needs an expert block
        import struct
        d_r, d_u = 8, 4
        path = tmp_path / "model.bin"
        path.write_bytes(b"HESNMDL1" + struct.pack("<6I", 1, d_r, d_u, d_u, d_r + d_u, 0)
                         + np.zeros(d_r * d_r + d_r * d_u + d_u * (d_r + d_u)).tobytes())
        with pytest.raises(ValueError, match="readout shape"):
            load_model(path)
