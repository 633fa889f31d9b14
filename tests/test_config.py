import json

import pytest

from hybrid_esn.config import (
    SCHEMA_VERSION,
    SEED_ENV_VAR,
    ConfigError,
    load_config,
    parse_config,
)
from hybrid_esn.dynamics import IntegratorConfig
from hybrid_esn.evaluation import SpanLayout
from hybrid_esn.experiments import Baselines, RunManifest


def minimal_doc(**kw):
    doc = {"schema_version": SCHEMA_VERSION, "task": "parameter_error"}
    doc.update(kw)
    return doc


class TestParsing:
    def test_minimal_config_fills_baselines(self):
        cfg = parse_config(minimal_doc())
        man = cfg.manifest
        assert man.task == "parameter_error"
        assert man.regimes == ("synchrony", "asynchrony", "multi_frequency")
        assert cfg.baselines == Baselines()
        assert man.n_instantiations == 40
        assert man.n_realizations == 3  # parameter-error default
        assert man.epsilon == 0.4
        assert man.layout.total_steps == 62_000
        assert man.integrator.dt == 0.1
        assert man.integrator.substeps_per_sample == 10

    def test_residual_task_defaults(self):
        man = parse_config(minimal_doc(task="residual_physics")).manifest
        assert man.n_realizations == 1
        assert man.regimes == ("synchrony", "asynchrony", "heteroclinic_cycles",
                               "partial_synchrony")

    def test_schema_version_required(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config({"task": "parameter_error"})
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config(minimal_doc(schema_version=99))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="sweeep"):
            parse_config(minimal_doc(sweeep={}))

    def test_unknown_nested_key_rejected(self):
        with pytest.raises(ConfigError, match="leak_rate"):
            parse_config(minimal_doc(baselines={"leak_rate": 0.5}))
        with pytest.raises(ConfigError, match="hforce"):
            parse_config(minimal_doc(layout={"hforce": 1}))

    def test_invalid_regime_for_task_rejected(self):
        with pytest.raises(ConfigError, match="heteroclinic"):
            parse_config(minimal_doc(regimes=["heteroclinic_cycles"]))

    def test_grid_key_rejected(self):
        # the grid command runs the 8 corners of any config; there is no grid key
        doc = minimal_doc(sweep={"parameter": "sigma_k", "values": [0.0, 0.1]}, grid=True)
        with pytest.raises(ConfigError, match=r"unknown key\(s\) in config: grid$"):
            parse_config(doc)

    def test_sweep_parameter_validated(self):
        with pytest.raises(ConfigError):
            parse_config(minimal_doc(sweep={"parameter": "leak", "values": [1]}))
        with pytest.raises(ConfigError, match="values"):
            parse_config(minimal_doc(sweep={"parameter": "sigma_k"}))

    def test_unknown_model_arm_rejected(self):
        with pytest.raises(ConfigError, match="lstm"):
            parse_config(minimal_doc(models=["lstm"]))

    def test_layout_inherits_integrator_dt(self):
        cfg = parse_config(minimal_doc(integrator={"dt": 0.05}))
        assert cfg.manifest.layout.dt == 0.05


class TestSeedOverride:
    def test_env_var_wins(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "1234")
        cfg = parse_config(minimal_doc(master_seed=7))
        assert cfg.manifest.master_seed == 1234

    def test_env_var_absent_uses_config(self, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        cfg = parse_config(minimal_doc(master_seed=7))
        assert cfg.manifest.master_seed == 7

    def test_non_integer_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "not-a-seed")
        with pytest.raises(ConfigError, match=SEED_ENV_VAR):
            parse_config(minimal_doc())


class TestRoundTrip:
    def test_manifest_projection(self):
        cfg = parse_config(minimal_doc(regimes=["synchrony"], n_instantiations=3))
        man = cfg.manifest
        assert man.task == "parameter_error"
        assert man.regimes == ("synchrony",)
        assert man.n_instantiations == 3
        assert man.n_realizations == 3
        assert man.epsilon == 0.4


class TestLoadConfig:
    def test_file_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(minimal_doc(master_seed=3)))
        assert load_config(path).manifest.master_seed == 3

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "task": "parameter_error",,\n}\n')
        with pytest.raises(ConfigError, match=r"line 2"):
            load_config(path)

    def test_non_object_root_rejected(self, tmp_path):
        path = tmp_path / "arr.json"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ConfigError, match="object"):
            load_config(path)

    def test_threads_validated(self):
        with pytest.raises(ConfigError, match="threads"):
            parse_config(minimal_doc(threads=0))

    def test_direct_constructor_validates_task(self):
        with pytest.raises(ValueError, match="unknown task 'nope'; valid: parameter_error, "
                                             "residual_physics"):
            RunManifest(task="nope", regimes=())
        with pytest.raises(ValueError, match="'heteroclinic_cycles'; valid: synchrony, "
                                             "asynchrony, multi_frequency$"):
            RunManifest(task="parameter_error", regimes=("heteroclinic_cycles",))

    def test_direct_constructor_defaults_realizations_per_task(self):
        assert RunManifest(task="residual_physics", regimes=("synchrony",)).n_realizations == 1
        assert RunManifest(task="parameter_error", regimes=("synchrony",)).n_realizations == 3

    def test_direct_constructor_rejects_layout_dt_mismatch(self):
        # a config fills layout.dt from integrator.dt, so only a library caller reaches this
        with pytest.raises(ValueError, match="layout dt 0.05 must equal integrator dt 0.1"):
            RunManifest(task="parameter_error", layout=SpanLayout(dt=0.05),
                        integrator=IntegratorConfig(dt=0.1))
