import json
import threading
import time

import numpy as np
import pytest
import scipy.linalg

from hybrid_esn import dynamics, experiments, reservoir
from hybrid_esn.dynamics import NumericalBlowup, perturb_params, realize_regime, simulate
from hybrid_esn.evaluation import (
    ForecastResult,
    MetricRecord,
    SpanLayout,
    mean_nmse,
    segment,
    valid_time,
)
from hybrid_esn.experiments import (
    GRID_POINTS,
    GRID_REGIMES,
    Baselines,
    RunManifest,
    SeedScheme,
    SweepSpec,
    aggregate_report,
    regime_spec,
    run_grid_search,
    run_shared_procedure,
    run_sweep,
    write_run_log,
)
from hybrid_esn.hybrid import ExpertModel
from hybrid_esn.reservoir import build_matrices, collect_states, forecast, train_readout

TINY = SpanLayout(training=200, train_test_gap=50, warmup=20, test=60,
                  test_test_gap=10, n_tests=2)


def tiny_manifest(task="parameter_error", regimes=("synchrony",), **kw):
    kw.setdefault("n_instantiations", 2)
    kw.setdefault("n_realizations", 1)
    kw.setdefault("layout", TINY)
    return RunManifest(task=task, regimes=regimes, **kw)


def tiny_baselines(**kw):
    kw.setdefault("size", 50)
    return Baselines(**kw)


class TestSeedScheme:
    def test_distinct_contexts_distinct_streams(self):
        scheme = SeedScheme(0)
        draws = set()
        for task in ("parameter_error", "residual_physics"):
            for role in ("ground_truth", "internal", "input", "expert_error", "ode_error"):
                for inst in range(3):
                    rng = scheme.stream(task, "synchrony", 0, 0, inst, role)
                    draws.add(tuple(rng.random(4).tolist()))
        assert len(draws) == 30

    def test_same_context_reproducible(self):
        a = SeedScheme(7).stream("parameter_error", "asynchrony", 1, 2, 3, "internal")
        b = SeedScheme(7).stream("parameter_error", "asynchrony", 1, 2, 3, "internal")
        np.testing.assert_array_equal(a.random(8), b.random(8))

    def test_master_seed_changes_streams(self):
        a = SeedScheme(0).stream("parameter_error", "synchrony")
        b = SeedScheme(1).stream("parameter_error", "synchrony")
        assert not np.array_equal(a.random(8), b.random(8))


class TestBaselines:
    def test_defaults_are_the_published_baselines(self):
        base = Baselines()
        assert base.size == 300
        assert base.spectral_radius == 0.4
        assert base.input_scaling == 0.15
        assert base.mean_degree == 3.0
        assert base.regularization == 1e-6
        assert base.knowledge_ratio == 0.5
        assert base.sigma_k == 0.05
        assert base.sigma_omega == 0.05

    def test_with_param_round_trip(self):
        base = Baselines().with_param("spectral_radius", 1.2)
        assert base.spectral_radius == 1.2
        assert base.input_scaling == 0.15  # untouched

    def test_size_coerced_to_int(self):
        assert Baselines().with_param("size", 500.0).size == 500

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError):
            Baselines().with_param("leak_rate", 0.1)
        with pytest.raises(ValueError):
            SweepSpec("leak_rate", (0.1,))


class TestGridPoints:
    def test_labels_and_corner_values(self):
        assert tuple(p.label for p in GRID_POINTS) == tuple("ABCDEFGH")
        a = GRID_POINTS[0]
        assert (a.regularization, a.spectral_radius, a.input_scaling) == (1e-4, 0.1, 0.05)
        h = GRID_POINTS[-1]
        assert (h.regularization, h.spectral_radius, h.input_scaling) == (1e-1, 2.0, 0.20)
        # all 8 corners of the 2x2x2 box, no duplicates
        corners = {(p.regularization, p.spectral_radius, p.input_scaling) for p in GRID_POINTS}
        assert len(corners) == 8

    def test_asynchrony_excluded_from_grid(self):
        assert "asynchrony" not in GRID_REGIMES
        man = tiny_manifest(task="residual_physics", regimes=("asynchrony",))
        with pytest.raises(ValueError):
            run_grid_search(man, tiny_baselines())


class TestRegimeSpec:
    def test_task_selects_model_family(self):
        assert regime_spec("parameter_error", "synchrony").model_family == "standard"
        assert regime_spec("residual_physics", "synchrony").model_family == "biharmonic"

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            regime_spec("parameter_error", "heteroclinic_cycles")
        with pytest.raises(ValueError):
            RunManifest(task="parameter_error", regimes=("nope",))
        with pytest.raises(ValueError):
            RunManifest(task="bad_task", regimes=("synchrony",))


class TestSharedProcedure:
    def test_record_count_and_sort(self):
        man = tiny_manifest(n_instantiations=3, n_realizations=2)
        recs = run_shared_procedure(man, "standard", tiny_baselines(), "synchrony")
        assert len(recs) == 3 * 2 * TINY.n_tests
        keys = [(r.model, r.instantiation, r.span) for r in recs]
        assert keys == sorted(keys)
        spans = {r.span for r in recs}
        assert spans == set(range(2 * TINY.n_tests))  # realization-major span ids

    def test_serial_and_threaded_identical(self):
        man = tiny_manifest(n_instantiations=4)
        a = run_shared_procedure(man, "hybrid", tiny_baselines(), "synchrony", threads=1)
        b = run_shared_procedure(man, "hybrid", tiny_baselines(), "synchrony", threads=4)
        assert a == b

    def test_ground_truth_cache_shared_across_arms(self):
        man = tiny_manifest()
        cache: dict = {}
        key = (man.task, "synchrony", 0, 0)
        run_shared_procedure(man, "standard", tiny_baselines(), "synchrony",
                             ground_truth_cache=cache)
        record1, params1 = cache[key]
        run_shared_procedure(man, "hybrid", tiny_baselines(), "synchrony",
                             ground_truth_cache=cache)
        record2, params2 = cache[key]
        assert record1 is record2 and params1 is params2
        # beside the one ground truth, one internal matrix per instantiation
        assert len(cache) == 1 + man.n_instantiations

    def test_determinism_across_calls(self):
        man = tiny_manifest()
        a = run_shared_procedure(man, "ode", tiny_baselines(), "synchrony")
        b = run_shared_procedure(man, "ode", tiny_baselines(), "synchrony")
        assert a == b

    def test_ode_arm_independent_of_reservoir_settings(self):
        man = tiny_manifest()
        a = run_shared_procedure(man, "ode", tiny_baselines(size=50), "synchrony")
        b = run_shared_procedure(man, "ode", tiny_baselines(size=80), "synchrony")
        assert a == b

    def test_unknown_model_kind_rejected(self):
        with pytest.raises(ValueError):
            run_shared_procedure(tiny_manifest(), "lstm", tiny_baselines(), "synchrony")

    def test_metrics_are_finite_and_bounded(self):
        man = tiny_manifest(task="residual_physics")
        for model in ("standard", "hybrid", "ode"):
            for r in run_shared_procedure(man, model, tiny_baselines(), "synchrony"):
                assert np.isfinite(r.mean_nmse) and r.mean_nmse >= 0.0
                horizon = TINY.test if model != "ode" else TINY.test - 1
                assert 0.0 <= r.valid_time <= horizon * TINY.dt + 1e-12


    @pytest.mark.parametrize("model", ["standard", "hybrid", "ode"])
    def test_records_equal_per_span_reference(self, model):
        # the lock-step forecast and its online scoring reproduce, bit for
        # bit, forecasting and scoring every (instantiation, span) on its own
        man = tiny_manifest(n_instantiations=2,
                            layout=SpanLayout(training=200, train_test_gap=50, warmup=20,
                                              test=60, test_test_gap=10, n_tests=3))
        base = tiny_baselines()
        got = run_shared_procedure(man, model, base, "synchrony", threads=2)
        scheme = SeedScheme(man.master_seed)
        params, theta0 = realize_regime(regime_spec(man.task, "synchrony"),
                                        scheme.stream(man.task, "synchrony"))
        record = simulate(params, theta0, man.integrator, man.layout.total_steps)
        training, spans = segment(record, man.layout)
        cfg = base.reservoir_config()
        want = []
        for inst in range(man.n_instantiations):
            ctx = dict(task=man.task, regime="synchrony", realization=0, sweep_index=0,
                       instantiation=inst)
            role = "ode_error" if model == "ode" else "expert_error"
            expert = ExpertModel(perturb_params(params, base.sigma_k, base.sigma_omega,
                                                scheme.stream(role=role, **ctx)))
            if model != "ode":
                m = build_matrices(cfg, 10, model == "hybrid",
                                   scheme.stream(role="internal", **ctx),
                                   scheme.stream(role="input", **ctx))
                expert = expert if model == "hybrid" else None
                readout = train_readout(*collect_states(training, m, expert=expert),
                                        cfg.regularization)
            for k, (warmup, test) in enumerate(spans):
                if model == "ode":
                    preds, truth = np.empty((10, test.shape[1] - 1)), test[:, 1:]
                    u = test[:, 0]
                    for step in range(truth.shape[1]):
                        u = preds[:, step] = expert.step(u)
                else:
                    preds = forecast(warmup, test.shape[1], m, readout, expert=expert)
                    truth = test
                fr = ForecastResult(prediction=preds, truth=truth, dt=man.layout.dt)
                want.append(MetricRecord(
                    task=man.task, regime="synchrony", model=model, param_name="baseline",
                    param_value=0.0, instantiation=inst, span=k, mean_nmse=mean_nmse(fr),
                    valid_time=valid_time(fr, man.epsilon)))
        assert got == want

    def test_pool_runs_one_ridge_fit_at_a_time(self, monkeypatch):
        # a counter around the factorization, inside the fit's locked
        # section; the sleep leaves a second pool thread time to enter
        real = scipy.linalg.cho_factor
        guard = threading.Lock()
        inside, peak, fit_threads = [0], [0], set()

        def counted(*args, **kwargs):
            with guard:
                inside[0] += 1
                peak[0] = max(peak[0], inside[0])
                fit_threads.add(threading.get_ident())
            time.sleep(0.05)
            try:
                return real(*args, **kwargs)
            finally:
                with guard:
                    inside[0] -= 1

        monkeypatch.setattr(scipy.linalg, "cho_factor", counted)
        man = tiny_manifest(n_instantiations=4)
        serial = run_shared_procedure(man, "hybrid", tiny_baselines(), "synchrony", threads=1)
        fit_threads.clear()
        pooled = run_shared_procedure(man, "hybrid", tiny_baselines(), "synchrony", threads=2)
        assert len(fit_threads) == 2  # both pool threads fitted
        assert peak[0] == 1
        assert pooled == serial

    def test_threads_identical_above_dense_eigen_limit(self):
        # sizes above 2048 take their spectral radius from ARPACK
        layout = SpanLayout(training=30, train_test_gap=5, warmup=5, test=10,
                            test_test_gap=2, n_tests=2)
        man = tiny_manifest(layout=layout)
        base = tiny_baselines(size=2100)
        a = run_shared_procedure(man, "standard", base, "synchrony", threads=1)
        b = run_shared_procedure(man, "standard", base, "synchrony", threads=2)
        assert a == b


def _rec(model="standard", inst=0, span=0, nmse=0.0, vt=0.0):
    return MetricRecord(task="parameter_error", regime="synchrony", model=model,
                        param_name="baseline", param_value=0.0, instantiation=inst,
                        span=span, mean_nmse=nmse, valid_time=vt)


class TestAggregation:
    def test_two_level_hand_example(self):
        # inst 0 spans (0, 2) -> mean 1; inst 1 spans (1, 1) -> mean 1
        recs = [_rec(inst=0, span=0, nmse=0.0, vt=0.0),
                _rec(inst=0, span=1, nmse=2.0, vt=2.0),
                _rec(inst=1, span=0, nmse=1.0, vt=1.0),
                _rec(inst=1, span=1, nmse=1.0, vt=1.0)]
        row, = aggregate_report(recs)
        assert row.n_instantiations == 2
        assert row.nmse_mean == pytest.approx(1.0)
        assert row.nmse_std == pytest.approx(0.0)  # both instantiation means are 1
        assert row.nmse_max == pytest.approx(1.0)
        assert row.valid_time_mean == pytest.approx(1.0)

    def test_across_instantiation_spread(self):
        recs = [_rec(inst=0, nmse=0.0, vt=0.0), _rec(inst=1, nmse=2.0, vt=4.0)]
        row, = aggregate_report(recs)
        assert row.nmse_std == pytest.approx(1.0)   # population std of {0, 2}
        assert row.nmse_max == pytest.approx(2.0)
        assert row.valid_time_max == pytest.approx(4.0)

    def test_groups_kept_separate(self):
        recs = [_rec(model="standard"), _rec(model="hybrid")]
        rows = aggregate_report(recs)
        assert {r.model for r in rows} == {"standard", "hybrid"}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_report([])


class TestSweepAndGrid:
    def test_sweep_points_complete(self):
        man = tiny_manifest()
        sweep = SweepSpec("sigma_k", (0.0, 0.1))
        per_point, summary, errors = run_sweep(man, sweep, tiny_baselines(),
                                               models=("standard", "ode"))
        assert errors == []
        assert set(per_point) == {0.0, 0.1}
        for recs in per_point.values():
            assert {r.param_name for r in recs} == {"sigma_k"}
            assert len(recs) == 2 * 2 * TINY.n_tests  # 2 models x 2 inst x 2 spans
        assert len(summary) == 4  # 2 points x 2 models x 1 regime

    def test_zero_sigma_ode_is_exactly_right_short_term(self):
        # with no parameter error the bare ODE control matches the ground
        # truth up to integrator truncation, so short-span NMSE is tiny
        man = tiny_manifest()
        per_point, _, errors = run_sweep(man, SweepSpec("sigma_k", (0.0,)),
                                         tiny_baselines(sigma_omega=0.0),
                                         models=("ode",))
        assert errors == []
        for r in per_point[0.0]:
            assert r.mean_nmse < 1e-3

    def test_grid_search_runs_all_corners(self):
        man = tiny_manifest(task="residual_physics", regimes=("synchrony",),
                            n_instantiations=1)
        per_point, summary, errors = run_grid_search(man, tiny_baselines())
        assert errors == []
        assert list(per_point) == list("ABCDEFGH")
        for label, recs in per_point.items():
            assert {r.param_name for r in recs} == {f"grid_{label}"}
            assert len(recs) == 2 * 1 * TINY.n_tests  # standard + hybrid
        assert len(summary) == 16

    def test_ground_truth_one_batched_call_per_regime(self, monkeypatch):
        batches = []

        def counting_batch(params, theta0s, cfg, n_steps):
            batches.append(len(params))
            return dynamics.simulate_batch(params, theta0s, cfg, n_steps)

        def no_simulate(*args, **kwargs):
            raise AssertionError("simulate called")

        monkeypatch.setattr(experiments, "simulate_batch", counting_batch)
        monkeypatch.setattr(dynamics, "simulate", no_simulate)
        man = tiny_manifest(regimes=("synchrony", "asynchrony"), n_realizations=2)
        _, _, errors = run_sweep(man, SweepSpec("sigma_k", (0.0, 0.1, 0.2)),
                                 tiny_baselines(), models=("ode",))
        assert errors == []
        assert batches == [3 * 2, 3 * 2]  # one call per regime: points x realizations
        batches.clear()
        man = tiny_manifest(task="residual_physics", regimes=("synchrony",),
                            n_instantiations=1)
        _, _, errors = run_grid_search(man, tiny_baselines())
        assert errors == []
        assert batches == [len(GRID_POINTS)]

    def test_blowup_fails_only_its_point_once_per_arm(self):
        # master seed 14317's sweep index 0 draws |omega| = 486 rad/s, which
        # blows up at sample 1; index 1 integrates fine in the same batch
        man = tiny_manifest(task="residual_physics", regimes=("heteroclinic_cycles",),
                            master_seed=14317)
        sweep = SweepSpec("regularization", (1e-6, 1e-4))
        models = ("standard", "hybrid", "ode")
        per_point, _, errors = run_sweep(man, sweep, tiny_baselines(), models=models)
        assert [err[:4] for err in errors] == [
            ("regularization", 1e-6, "heteroclinic_cycles", model) for model in models]
        for err in errors:
            assert isinstance(err[4], NumericalBlowup) and err[4].step == 1
        assert per_point[1e-6] == []
        direct = []
        for model in models:
            direct.extend(run_shared_procedure(
                man, model, tiny_baselines(regularization=1e-4), "heteroclinic_cycles",
                sweep_name="regularization", sweep_value=1e-4, sweep_index=1))
        assert per_point[1e-4] == direct

    def test_on_point_sees_each_point_as_it_finishes(self, monkeypatch):
        # the callback of point k runs before any arm of point k + 1 starts
        events = []
        real = experiments.run_shared_procedure

        def logged(manifest, model_kind, *args, sweep_index=0, **kwargs):
            events.append(("arm", sweep_index, model_kind))
            return real(manifest, model_kind, *args, sweep_index=sweep_index, **kwargs)

        monkeypatch.setattr(experiments, "run_shared_procedure", logged)
        man = tiny_manifest(regimes=("synchrony", "asynchrony"))
        seen = {}

        def on_point(key, records, status):
            events.append(("point", key))
            seen[key] = (records, status)

        per_point, _, errors = run_sweep(man, SweepSpec("sigma_k", (0.0, 0.1)),
                                         tiny_baselines(), models=("standard", "ode"),
                                         on_point=on_point)
        assert errors == []

        def arms(idx):
            return [("arm", idx, model) for _ in man.regimes for model in ("standard", "ode")]

        assert events == [*arms(0), ("point", 0.0), *arms(1), ("point", 0.1)]
        assert {key: recs for key, (recs, _) in seen.items()} == per_point
        assert seen[0.1][1] == f"sweep sigma_k=0.1: {len(per_point[0.1])} records"
        labels = []
        man = tiny_manifest(task="residual_physics", n_instantiations=1)
        run_grid_search(man, tiny_baselines(),
                        on_point=lambda key, records, status: labels.append(status))
        assert labels == [f"grid point {p.label}: {2 * TINY.n_tests} records"
                          for p in GRID_POINTS]

    def test_ground_truth_ends_at_last_sample_read(self):
        # the batched sweep record is the prefix of the full-length record
        # that segment reads; the trailing test-test gap is not integrated
        man = tiny_manifest(task="residual_physics", regimes=("heteroclinic_cycles",),
                            n_realizations=2)
        cache = {}
        experiments._integrate_ground_truths(man, "heteroclinic_cycles", [0, 1], cache)
        scheme = SeedScheme(man.master_seed)
        for (task, regime, realization, idx), (record, base) in cache.items():
            params, theta0 = realize_regime(regime_spec(task, regime),
                                            scheme.stream(task, regime, realization, idx))
            full = simulate(params, theta0, man.integrator, TINY.total_steps)
            assert record.shape == (full.shape[0], TINY.needed_samples)
            assert TINY.needed_samples == full.shape[1] - TINY.test_test_gap - 1
            assert np.array_equal(record, full[:, :TINY.needed_samples])
            assert np.array_equal(segment(record, TINY)[1][-1][1], segment(full, TINY)[1][-1][1])

    def test_run_log_round_trips(self, tmp_path):
        man = tiny_manifest()
        path = tmp_path / "run_log.json"
        write_run_log(path, man, extra={"n_records": 8})
        payload = json.loads(path.read_text())
        assert payload["task"] == "parameter_error"
        assert payload["master_seed"] == 0
        assert payload["layout"]["test"] == TINY.test
        assert payload["n_records"] == 8


def count_internal_builds(monkeypatch, fail_at=None):
    """Count build_internal_matrix calls; raise for the (sweep index, instantiation) `fail_at`."""
    calls = []
    real = reservoir.build_internal_matrix

    def counting(cfg, seed):
        entropy = seed.bit_generator.seed_seq.entropy
        calls.append(tuple(entropy))
        if fail_at is not None and tuple(entropy[4:6]) == fail_at:
            raise RuntimeError("internal matrix build failed")
        return real(cfg, seed)

    monkeypatch.setattr(reservoir, "build_internal_matrix", counting)
    return calls


class TestSharedInternalMatrix:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_sweep_builds_once_per_instantiation(self, monkeypatch, threads):
        man = tiny_manifest(n_instantiations=2)
        sweep = SweepSpec("size", (40, 50))
        calls = count_internal_builds(monkeypatch)
        per_point, _, errors = run_sweep(man, sweep, tiny_baselines(),
                                         models=("standard", "hybrid"), threads=threads)
        assert errors == []
        # 2 points x 1 regime x 1 realization x 2 instantiations
        assert len(calls) == len(set(calls)) == 4
        for idx, value in enumerate(sweep.values):
            point = tiny_baselines().with_param("size", value)
            direct = [r for model in ("standard", "hybrid") for r in run_shared_procedure(
                man, model, point, "synchrony", sweep_name="size", sweep_value=value,
                sweep_index=idx, threads=threads)]
            assert repr(per_point[value]) == repr(direct)

    def test_grid_builds_once_per_instantiation(self, monkeypatch):
        man = tiny_manifest(n_instantiations=1)
        calls = count_internal_builds(monkeypatch)
        per_point, _, errors = run_grid_search(man, tiny_baselines())
        assert errors == []
        assert len(calls) == len(set(calls)) == len(GRID_POINTS)
        for idx, point in enumerate(GRID_POINTS):
            direct = [r for model in ("standard", "hybrid") for r in run_shared_procedure(
                man, model, point.apply(tiny_baselines()), "synchrony",
                sweep_name=f"grid_{point.label}", sweep_value=float(idx), sweep_index=idx)]
            assert repr(per_point[point.label]) == repr(direct)

    def test_failed_build_fails_each_rc_arm_of_its_point(self, monkeypatch):
        man = tiny_manifest(n_instantiations=2)
        sweep = SweepSpec("spectral_radius", (0.3, 0.4))
        calls = count_internal_builds(monkeypatch, fail_at=(1, 1))
        per_point, _, errors = run_sweep(man, sweep, tiny_baselines(),
                                         models=("standard", "hybrid", "ode"))
        assert [err[:4] for err in errors] == [("spectral_radius", 0.4, "synchrony", model)
                                               for model in ("standard", "hybrid")]
        assert all(isinstance(err[4], RuntimeError) for err in errors)
        # a failed build is not cached: each RC arm tries it again
        assert sum(c[4:6] == (1, 1) for c in calls) == 2
        assert {r.model for r in per_point[0.4]} == {"ode"}
        assert len(per_point[0.3]) == 3 * 2 * TINY.n_tests
