import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_esn.dynamics import (
    BiHarmonicParams,
    IntegratorConfig,
    KuramotoParams,
    NumericalBlowup,
    RK4Stepper,
    RowParams,
    biharmonic_regime,
    components_to_phases,
    generate_trajectory,
    integrate_step,
    normalize_rows,
    perturb_params,
    phases_to_components,
    realize_regime,
    sample_frequencies,
    simulate,
    simulate_batch,
    standard_regime,
)
from hybrid_esn.experiments import SeedScheme
from oracle import biharmonic_rhs, component_rhs, kuramoto_rhs, normalize_components, rk4_step

RNG = np.random.default_rng(1234)


def random_unit_state(n, rng=RNG):
    return phases_to_components(rng.uniform(-np.pi, np.pi, n))


class TestKuramotoRhs:
    def test_equal_phases_coupling_vanishes(self):
        params = KuramotoParams(omega=np.array([0.3, -1.2, 0.7]), coupling=5.0)
        out = kuramoto_rhs(np.full(3, 1.1), params)
        np.testing.assert_allclose(out, params.omega, atol=1e-15)

    def test_two_oscillator_hand_value(self):
        # direct evaluation: (K/N) sin(pi/2) = 1 and its negative
        params = KuramotoParams(omega=np.zeros(2), coupling=2.0)
        out = kuramoto_rhs(np.array([0.0, np.pi / 2]), params)
        np.testing.assert_allclose(out, [1.0, -1.0], atol=1e-15)

    def test_dimension_mismatch_rejected(self):
        params = KuramotoParams(omega=np.zeros(3), coupling=1.0)
        with pytest.raises(ValueError):
            kuramoto_rhs(np.zeros(2), params)

    def test_non_finite_rejected(self):
        params = KuramotoParams(omega=np.zeros(2), coupling=1.0)
        with pytest.raises(ValueError):
            kuramoto_rhs(np.array([0.0, np.nan]), params)

    @given(st.integers(2, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_coupling_antisymmetry(self, n, seed):
        rng = np.random.default_rng(seed)
        params = KuramotoParams(omega=rng.normal(size=n), coupling=rng.uniform(0, 5))
        theta = rng.uniform(-np.pi, np.pi, n)
        out = kuramoto_rhs(theta, params)
        assert abs(out.sum() - params.omega.sum()) < 1e-12 * max(1.0, n)


class TestBiharmonicRhs:
    def test_reduces_to_kuramoto(self):
        rng = np.random.default_rng(7)
        base = KuramotoParams(omega=rng.normal(size=4), coupling=1.7)
        params = BiHarmonicParams(base=base, gamma1=0.0, gamma2=0.9,
                                  second_harmonic_scale=0.0)
        theta = rng.uniform(-np.pi, np.pi, 4)
        np.testing.assert_allclose(biharmonic_rhs(theta, params),
                                   kuramoto_rhs(theta, base), atol=1e-15)

    def test_equal_phases_with_vanishing_shifts(self):
        base = KuramotoParams(omega=np.array([0.5, -0.5]), coupling=1.0)
        params = BiHarmonicParams(base=base, gamma1=2 * np.pi, gamma2=np.pi,
                                  second_harmonic_scale=0.2)
        out = biharmonic_rhs(np.full(2, 0.3), params)
        np.testing.assert_allclose(out, base.omega, atol=1e-14)

    def test_heteroclinic_parameters_accepted(self):
        regime = biharmonic_regime("heteroclinic_cycles")
        assert regime.gamma1 == 1.3
        assert regime.gamma2 == np.pi
        assert regime.second_harmonic_scale == 0.2
        assert regime.coupling == 1.0
        params, theta0 = realize_regime(regime, 0)
        assert np.all(np.isfinite(biharmonic_rhs(theta0, params)))


class TestComponentRhs:
    def test_zero_radial_component_on_unit_circle(self):
        rng = np.random.default_rng(11)
        base = KuramotoParams(omega=rng.normal(size=6), coupling=2.0)
        for params in (base, BiHarmonicParams(base=base, gamma1=1.3, gamma2=np.pi,
                                              second_harmonic_scale=0.2)):
            c = random_unit_state(6, rng)
            d = component_rhs(c, params)
            radial = c[0::2] * d[0::2] + c[1::2] * d[1::2]
            np.testing.assert_allclose(radial, 0.0, atol=1e-12)

    def test_single_oscillator_rotation_generator(self):
        params = KuramotoParams(omega=np.array([2.0]), coupling=0.0)
        np.testing.assert_allclose(component_rhs(np.array([1.0, 0.0]), params),
                                   [0.0, 2.0], atol=1e-15)

    def test_matches_chain_rule_on_phase_rhs(self):
        rng = np.random.default_rng(3)
        base = KuramotoParams(omega=rng.normal(size=5), coupling=1.5)
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, 5)
            c = phases_to_components(theta)
            dtheta = kuramoto_rhs(theta, base)
            expected = np.empty(10)
            expected[0::2] = -np.sin(theta) * dtheta
            expected[1::2] = np.cos(theta) * dtheta
            np.testing.assert_allclose(component_rhs(c, base), expected, atol=1e-12)

    def test_biharmonic_matches_chain_rule(self):
        rng = np.random.default_rng(4)
        base = KuramotoParams(omega=rng.normal(size=5), coupling=1.0)
        params = BiHarmonicParams(base=base, gamma1=1.5, gamma2=np.pi,
                                  second_harmonic_scale=0.2)
        for _ in range(20):
            theta = rng.uniform(-np.pi, np.pi, 5)
            dtheta = biharmonic_rhs(theta, params)
            expected = np.empty(10)
            expected[0::2] = -np.sin(theta) * dtheta
            expected[1::2] = np.cos(theta) * dtheta
            np.testing.assert_allclose(component_rhs(phases_to_components(theta), params),
                                       expected, atol=1e-12)

    def test_odd_length_rejected(self):
        params = KuramotoParams(omega=np.zeros(2), coupling=1.0)
        with pytest.raises(ValueError):
            component_rhs(np.zeros(3), params)

    @pytest.mark.parametrize("n", [5, 10])
    def test_batch_rows_equal_single_calls(self, n):
        # a leading batch axis reduces over the same contiguous last axis, so
        # every row is bitwise the 1-d call, and both follow the phase form
        rng = np.random.default_rng(n)
        base = KuramotoParams(omega=rng.normal(size=n), coupling=1.5)
        phase_forms = ((base, kuramoto_rhs),
                       (BiHarmonicParams(base=base, gamma1=1.3, gamma2=np.pi,
                                         second_harmonic_scale=0.2), biharmonic_rhs))
        for params, phase_rhs in phase_forms:
            theta = rng.uniform(-np.pi, np.pi, (7, n))
            states = np.stack([phases_to_components(t) for t in theta])
            batch = component_rhs(states, params)
            for row, t, state in zip(batch, theta, states):
                np.testing.assert_array_equal(row, component_rhs(state, params))
                dtheta = phase_rhs(t, params)
                np.testing.assert_allclose(row[0::2], -np.sin(t) * dtheta, atol=1e-12)
                np.testing.assert_allclose(row[1::2], np.cos(t) * dtheta, atol=1e-12)

    def test_per_row_parameters(self):
        # RowParams rows (omega (S, N), coupling (S, 1)) equal the 1-d call
        # with each row's own KuramotoParams
        rng = np.random.default_rng(8)
        params = [KuramotoParams(omega=rng.normal(size=5), coupling=rng.uniform(0.5, 4.0))
                  for _ in range(4)]
        rows = RowParams(omega=np.stack([p.omega for p in params]),
                         coupling=np.array([[p.coupling] for p in params]))
        states = np.stack([random_unit_state(5, rng) for _ in params])
        batch = component_rhs(states, rows)
        for row, p, state in zip(batch, params, states):
            np.testing.assert_array_equal(row, component_rhs(state, p))


def with_family(base, family):
    """base itself, or a bi-harmonic model over it.

    gamma2 is not the regimes' pi, whose sine is 1e-16: every harmonic term
    must weigh in for a changed rounding to show.
    """
    if family == "standard":
        return base
    return BiHarmonicParams(base=base, gamma1=1.3, gamma2=0.9, second_harmonic_scale=0.2)


def oracle_steps(params, state, h, n):
    """n steps of the oracle's rk4_step(component_rhs), each result kept."""
    out = []
    for _ in range(n):
        state = rk4_step(lambda v: component_rhs(v, params), state, h)
        out.append(state)
    return out


def stepper_steps(params, state, h, n):
    stepper = RK4Stepper(params, state.shape[:-1], h)
    stepper.load(state)
    out = []
    for _ in range(n):
        stepper.step()
        out.append(stepper.components())
    return out


FAMILIES = ["standard", "biharmonic"]


class TestRK4Stepper:
    """The planar stepper performs the oracle's IEEE operations: equal bit for bit."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    def test_single_state_equals_oracle(self, family, n):
        rng = np.random.default_rng(n)
        params = with_family(KuramotoParams(omega=rng.normal(size=n),
                                            coupling=rng.uniform(0.5, 4.0)), family)
        state = random_unit_state(n, rng)
        for got, want in zip(stepper_steps(params, state, 0.05, 20),
                             oracle_steps(params, state, 0.05, 20)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 5, 10])
    @pytest.mark.parametrize("per_row_coupling", [False, True], ids=["scalar_K", "row_K"])
    def test_row_batch_equals_oracle(self, family, n, per_row_coupling):
        # RowParams rows, as (S, 2N) and under a second leading axis, equal
        # the oracle on the batch and the 1-d stepper on each row
        rng = np.random.default_rng(10 * n + per_row_coupling)
        n_rows = 4
        omega = rng.normal(size=(n_rows, n))
        coupling = rng.uniform(0.5, 4.0, (n_rows, 1)) if per_row_coupling else 2.5
        params = with_family(RowParams(omega=omega, coupling=coupling), family)
        states = np.stack([random_unit_state(n, rng) for _ in range(3 * n_rows)])
        for batch in (states[:n_rows], states.reshape(3, n_rows, 2 * n)):
            got = stepper_steps(params, batch, 0.05, 12)
            for g, w in zip(got, oracle_steps(params, batch, 0.05, 12)):
                np.testing.assert_array_equal(g, w)
        for row in range(n_rows):
            k = coupling[row, 0] if per_row_coupling else coupling
            single = with_family(KuramotoParams(omega=omega[row], coupling=k), family)
            alone = stepper_steps(single, states[row], 0.05, 12)
            np.testing.assert_array_equal(np.stack(alone), np.stack(got)[:, 0, row])

    def test_normalize_flags_rows_as_normalize_rows(self):
        rng = np.random.default_rng(6)
        states = rng.normal(size=(5, 8))
        states[1, 3] = np.inf
        states[3, 4:6] = 0.0
        stepper = RK4Stepper(RowParams(omega=np.zeros((5, 4)), coupling=1.0), (5,), 0.1)
        stepper.load(states)
        ok = stepper.normalize()
        want, want_ok = normalize_rows(states)
        np.testing.assert_array_equal(ok, want_ok)
        np.testing.assert_array_equal(stepper.components(), want)

    def test_shape_mismatch_rejected(self):
        params = KuramotoParams(omega=np.zeros(2), coupling=1.0)
        stepper = RK4Stepper(params, (), 0.1)
        with pytest.raises(ValueError):
            stepper.load(np.zeros(3))
        with pytest.raises(ValueError):
            stepper.load(np.zeros((2, 4)))


class TestIntegrateStep:
    def test_pure_rotation_accuracy(self):
        params = KuramotoParams(omega=np.array([1.0]), coupling=0.0)
        cfg = IntegratorConfig(dt=0.1, substeps_per_sample=1)
        out = integrate_step(np.array([1.0, 0.0]), params, cfg, 0.1)
        angle = np.arctan2(out[1], out[0])
        assert abs(angle - 0.1) < 1e-7

    def test_zero_dynamics_identity(self):
        params = KuramotoParams(omega=np.zeros(2), coupling=0.0)
        cfg = IntegratorConfig(dt=0.1, substeps_per_sample=1)
        state = random_unit_state(2)
        np.testing.assert_allclose(integrate_step(state, params, cfg, 0.1), state)

    def test_zero_duration_rejected(self):
        params = KuramotoParams(omega=np.zeros(1), coupling=0.0)
        with pytest.raises(ValueError):
            integrate_step(np.array([1.0, 0.0]), params, IntegratorConfig(), 0.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_one_based_substep(self):
        bad = KuramotoParams(omega=np.array([1e200]), coupling=0.0)
        with pytest.raises(NumericalBlowup) as err:
            integrate_step(np.array([1.0, 0.0]), bad, IntegratorConfig(), 0.1)
        assert err.value.step == 1

    def test_fourth_order_convergence(self):
        # Richardson oracle: halving the step shrinks error ~16x vs a fine reference
        rng = np.random.default_rng(21)
        params = KuramotoParams(omega=rng.uniform(-1, 1, 5), coupling=2.0)
        state = random_unit_state(5, rng)
        ref = integrate_step(state, params, IntegratorConfig(dt=1.0, substeps_per_sample=4000), 1.0)
        errs = []
        for sub in (50, 100):
            got = integrate_step(state, params, IntegratorConfig(dt=1.0, substeps_per_sample=sub), 1.0)
            errs.append(np.linalg.norm(got - ref))
        ratio = errs[0] / errs[1]
        assert 8.0 < ratio < 32.0

    def test_rk4_order_across_grid(self):
        # h^4 scaling within a factor 2 across h in {0.01, 0.005, 0.0025}
        rng = np.random.default_rng(22)
        params = KuramotoParams(omega=rng.uniform(-1, 1, 4), coupling=3.0)
        state = random_unit_state(4, rng)
        ref = integrate_step(state, params, IntegratorConfig(dt=1.0, substeps_per_sample=8000), 1.0)
        errs = {}
        for h in (0.01, 0.005, 0.0025):
            got = integrate_step(state, params, IntegratorConfig(dt=1.0, substeps_per_sample=int(round(1.0 / h))), 1.0)
            errs[h] = np.linalg.norm(got - ref)
        for h1, h2 in ((0.01, 0.005), (0.005, 0.0025)):
            ratio = errs[h1] / errs[h2]
            assert 8.0 < ratio < 32.0


class TestTransforms:
    def test_axis_values(self):
        np.testing.assert_allclose(phases_to_components([0.0]), [1.0, 0.0], atol=1e-16)
        np.testing.assert_allclose(phases_to_components([np.pi / 2]), [0.0, 1.0], atol=1e-16)

    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        theta = rng.uniform(-np.pi, np.pi, 100)
        back = components_to_phases(phases_to_components(theta))
        assert np.max(np.abs(back - theta)) < 1e-12

    def test_origin_pair_rejected(self):
        with pytest.raises(ValueError):
            components_to_phases(np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            normalize_components(np.array([0.0, 0.0]))

    def test_normalize_examples(self):
        np.testing.assert_allclose(normalize_components(np.array([3.0, 4.0])),
                                   [0.6, 0.8], atol=1e-15)
        np.testing.assert_allclose(normalize_components(np.array([1.0, 0.0])),
                                   [1.0, 0.0], atol=1e-16)


class TestSampling:
    def test_multi_frequency_fast_oscillator_range(self):
        regime = standard_regime("multi_frequency")
        for seed in range(200):
            omega = sample_frequencies(regime, seed)
            assert 3.0 <= abs(omega[-1]) <= 4.0
            assert np.all(np.abs(omega[:-1]) < 1.0)

    def test_uniform_law_support(self):
        regime = standard_regime("synchrony")
        omega = sample_frequencies(regime, np.random.default_rng(0))
        assert omega.shape == (5,)
        assert np.all((-1 < omega) & (omega < 1))

    def test_cauchy_median(self):
        regime = biharmonic_regime("synchrony")
        rng = np.random.default_rng(99)
        draws = np.concatenate([sample_frequencies(regime, rng) for _ in range(10_000)])
        assert abs(np.median(draws)) < 0.002

    def test_realization_determinism(self):
        regime = standard_regime("asynchrony")
        p1, t1 = realize_regime(regime, 42)
        p2, t2 = realize_regime(regime, 42)
        np.testing.assert_array_equal(p1.omega, p2.omega)
        np.testing.assert_array_equal(t1, t2)


class TestPerturbParams:
    def test_zero_sigma_identity(self):
        params = KuramotoParams(omega=np.array([0.2, -0.4]), coupling=4.0)
        out = perturb_params(params, 0.0, 0.0, 0)
        np.testing.assert_array_equal(out.omega, params.omega)
        assert out.coupling == params.coupling

    def test_negative_sigma_rejected(self):
        params = KuramotoParams(omega=np.zeros(2), coupling=1.0)
        with pytest.raises(ValueError):
            perturb_params(params, -0.1, 0.0, 0)

    def test_large_sweep_sigma_accepted(self):
        params = KuramotoParams(omega=np.ones(3), coupling=1.0)
        out = perturb_params(params, 0.28, 0.28, 1)
        assert np.all(np.isfinite(out.omega))

    def test_coupling_error_statistics(self):
        params = KuramotoParams(omega=np.ones(2), coupling=2.0)
        rng = np.random.default_rng(123)
        ratios = np.array([perturb_params(params, 0.05, 0.0, rng).coupling / 2.0 - 1.0
                           for _ in range(100_000)])
        assert abs(ratios.std() - 0.05) < 0.002

    def test_harmonics_untouched(self):
        base = KuramotoParams(omega=np.ones(2), coupling=1.0)
        params = BiHarmonicParams(base=base, gamma1=1.3, gamma2=np.pi,
                                  second_harmonic_scale=0.2)
        out = perturb_params(params, 0.1, 0.1, 7)
        assert out.gamma1 == params.gamma1
        assert out.gamma2 == params.gamma2
        assert out.second_harmonic_scale == params.second_harmonic_scale


class TestTrajectories:
    def test_same_seed_bit_identical(self):
        regime = standard_regime("synchrony")
        cfg = IntegratorConfig()
        a = generate_trajectory(regime, cfg, 50, 3)
        b = generate_trajectory(regime, cfg, 50, 3)
        np.testing.assert_array_equal(a, b)

    def test_unit_circle_throughout(self):
        regime = standard_regime("asynchrony")
        traj = generate_trajectory(regime, IntegratorConfig(), 200, 9)
        radii = traj[0::2] ** 2 + traj[1::2] ** 2
        assert np.max(np.abs(radii - 1.0)) < 1e-6

    def test_synchrony_phase_locks(self):
        # above-critical coupling: instantaneous frequencies agree after a transient
        regime = standard_regime("synchrony")
        params, theta0 = realize_regime(regime, 8)
        traj = simulate(params, theta0, IntegratorConfig(), 600)
        theta_end = components_to_phases(traj[:, -1])
        rates = kuramoto_rhs(theta_end, params)
        assert np.max(rates) - np.min(rates) < 1e-3

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_reports_step_index(self):
        bad = KuramotoParams(omega=np.array([1e200]), coupling=0.0)
        with pytest.raises(NumericalBlowup) as err:
            simulate(bad, np.array([0.0]), IntegratorConfig(), 10)
        assert err.value.step >= 1

    def test_rk4_step_linear_exactness(self):
        # autonomous linear system: RK4 reproduces the Taylor expansion to 4th order
        f = lambda y: -y
        y1 = rk4_step(f, np.array([1.0]), 0.01)
        assert abs(y1[0] - np.exp(-0.01)) < 1e-11


def loop_simulate(params, theta0, cfg, n_steps):
    """simulate as a plain loop: the oracle's RK4 per substep, normalization per sample.

    Returns (samples, k): k is 0, or the first sample whose state is not finite.
    """
    state = phases_to_components(theta0)
    out = np.empty((state.size, n_steps + 1))
    out[:, 0] = state
    h = cfg.dt / cfg.substeps_per_sample
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            for _ in range(cfg.substeps_per_sample):
                state = rk4_step(lambda v: component_rhs(v, params), state, h)
            if not np.all(np.isfinite(state)):
                return out, k
            state = normalize_components(state)
            out[:, k] = state
    return out, 0


@pytest.mark.parametrize("regime", [standard_regime("synchrony"),
                                    biharmonic_regime("heteroclinic_cycles")],
                         ids=["synchrony", "heteroclinic_cycles"])
def test_simulate_equals_plain_loop(regime):
    params, theta0 = realize_regime(regime, 17)
    want, failed = loop_simulate(params, theta0, IntegratorConfig(), 40)
    assert failed == 0
    np.testing.assert_array_equal(simulate(params, theta0, IntegratorConfig(), 40), want)


def sweep_draws(task, regime, master_seed, n):
    """The ground-truth (params, theta0) of sweep indices 0..n-1, as a sweep draws them."""
    scheme = SeedScheme(master_seed)
    return [realize_regime(regime, scheme.stream(task, regime.name, 0, idx)) for idx in range(n)]


class TestSimulateBatch:
    @pytest.mark.parametrize("task, regime", [
        ("parameter_error", standard_regime("synchrony")),
        ("parameter_error", standard_regime("multi_frequency")),
        ("residual_physics", biharmonic_regime("heteroclinic_cycles")),
    ], ids=["synchrony", "multi_frequency", "heteroclinic_cycles"])
    def test_rows_equal_per_record_simulate(self, task, regime):
        draws = sweep_draws(task, regime, 3, 8)
        cfg = IntegratorConfig()
        records, failed = simulate_batch([p for p, _ in draws], [t for _, t in draws], cfg, 150)
        assert records.shape == (8, 2 * regime.n_oscillators, 151)
        np.testing.assert_array_equal(failed, 0)
        for record, (params, theta0) in zip(records, draws):
            np.testing.assert_array_equal(record, simulate(params, theta0, cfg, 150))

    def test_single_record_equals_simulate(self):
        params, theta0 = realize_regime(biharmonic_regime("synchrony"), 5)
        records, failed = simulate_batch([params], [theta0], IntegratorConfig(), 60)
        assert records.shape == (1, 20, 61) and failed.tolist() == [0]
        np.testing.assert_array_equal(records[0], simulate(params, theta0, IntegratorConfig(), 60))

    def test_blowup_fails_only_its_row(self):
        # master seed 14317 draws |omega| = 486 rad/s at sweep index 0, which
        # RK4 at 10 substeps per sample cannot follow: simulate raises at
        # sample 1, the batch flags that row alone and prints nothing
        regime = biharmonic_regime("heteroclinic_cycles")
        draws = sweep_draws("residual_physics", regime, 14317, 4)
        cfg = IntegratorConfig()
        with pytest.raises(NumericalBlowup) as err:
            simulate(*draws[0], cfg, 40)
        assert err.value.step == 1
        assert loop_simulate(*draws[0], cfg, 40)[1] == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, failed = simulate_batch([p for p, _ in draws], [t for _, t in draws],
                                             cfg, 40)
        assert failed.tolist() == [1, 0, 0, 0]
        for record, (params, theta0) in zip(records[1:], draws[1:]):
            np.testing.assert_array_equal(record, simulate(params, theta0, cfg, 40))

    def test_records_must_share_coupling_and_harmonics(self):
        a = KuramotoParams(omega=np.zeros(2), coupling=1.0)
        b = KuramotoParams(omega=np.ones(2), coupling=2.0)
        with pytest.raises(ValueError):
            simulate_batch([a, b], [np.zeros(2)] * 2, IntegratorConfig(), 5)
        bi = BiHarmonicParams(base=a, gamma1=1.3, gamma2=np.pi, second_harmonic_scale=0.2)
        with pytest.raises(ValueError):
            simulate_batch([bi, replace(bi, gamma1=1.5)], [np.zeros(2)] * 2, IntegratorConfig(), 5)
        with pytest.raises(ValueError):
            simulate_batch([a], [np.zeros(2)] * 2, IntegratorConfig(), 5)
