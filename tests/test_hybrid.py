import warnings

import numpy as np
import pytest

from hybrid_esn.dynamics import (
    IntegratorConfig,
    KuramotoParams,
    generate_trajectory,
    integrate_step,
    normalize_rows,
    perturb_params,
    phases_to_components,
    realize_regime,
    simulate,
    standard_regime,
)
from hybrid_esn.hybrid import ExpertModel, Instantiation, stack_experts
from hybrid_esn.reservoir import (
    CollectionError,
    ReservoirConfig,
    ReservoirMatrices,
    build_matrices,
    collect_states,
    forecast,
    nonlinear_transform,
    train_readout,
)
import scipy.sparse
from hybrid_esn.io import save_model
from oracle import component_rhs, kuramoto_rhs, normalize_components, rk4_step


class TestExpertModel:
    def test_trivial_dynamics_identity(self):
        expert = ExpertModel(KuramotoParams(omega=np.zeros(2), coupling=0.0))
        u = phases_to_components([0.3, -1.2])
        np.testing.assert_allclose(expert.step(u), u, atol=1e-15)

    def test_single_oscillator_rotation(self):
        expert = ExpertModel(KuramotoParams(omega=np.array([1.0]), coupling=0.0))
        out = expert.step(np.array([1.0, 0.0]))
        angle = np.arctan2(out[1], out[0])
        assert abs(angle - 0.1) < 1e-7

    def test_matches_phase_space_rk4(self):
        # dual-representation oracle: one RK4 step in phase space, projected
        rng = np.random.default_rng(3)
        params = KuramotoParams(omega=rng.uniform(-1, 1, 5), coupling=2.0)
        expert = ExpertModel(params)
        theta = rng.uniform(-np.pi, np.pi, 5)
        got = expert.step(phases_to_components(theta))
        theta1 = rk4_step(lambda t: kuramoto_rhs(t, params), theta, 0.1)
        want = phases_to_components(theta1)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_single_step_no_substepping(self):
        # the expert takes ONE dt-sized RK4 step, coarser than ground truth
        params = KuramotoParams(omega=np.array([3.5]), coupling=0.0)
        expert = ExpertModel(params)
        u = np.array([1.0, 0.0])
        coarse = expert.step(u)
        fine = integrate_step(u, params, IntegratorConfig(dt=0.1, substeps_per_sample=10), 0.1)
        # both land near 0.35 rad but the single coarse step is visibly less
        # accurate for a fast oscillator
        assert 1e-11 < np.linalg.norm(coarse - fine) < 1e-3

    def test_call_counter(self):
        expert = ExpertModel(KuramotoParams(omega=np.zeros(1), coupling=0.0))
        u = np.array([1.0, 0.0])
        for _ in range(7):
            expert.step(u)
        assert expert.calls == 7

    def test_overflow_flagged_without_warnings(self):
        expert = ExpertModel(KuramotoParams(omega=np.full(5, 1e300), coupling=1.0))
        u = phases_to_components(np.linspace(0.0, 1.0, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ok = stack_experts([expert], 2).step_rows(np.stack([u, u]))
            np.testing.assert_array_equal(ok, [False, False])
            with pytest.raises(FloatingPointError):
                expert.step(u)

    def test_step_and_step_rows_equal_oracle(self):
        # one oracle RK4 step of size dt, then the normalization, bit for bit:
        # for a single state, a batch of rows, and stacked per-row experts
        rng = np.random.default_rng(12)
        experts = [ExpertModel(KuramotoParams(omega=rng.uniform(-1, 1, 5),
                                              coupling=rng.uniform(1, 4))) for _ in range(3)]

        def oracle(params, u):
            return rk4_step(lambda v: component_rhs(v, params), u, 0.1)

        states = np.stack([phases_to_components(rng.uniform(-np.pi, np.pi, 5))
                           for _ in range(6)])
        for expert in experts:
            for u in states:
                np.testing.assert_array_equal(expert.step(u),
                                              normalize_components(oracle(expert.params, u)))
            rows, ok = expert.step_rows(states)
            want, want_ok = normalize_rows(oracle(expert.params, states))
            np.testing.assert_array_equal(rows, want)
            np.testing.assert_array_equal(ok, want_ok)
        stacked = stack_experts(experts, 2)
        rows, ok = stacked.step_rows(states)
        assert ok.all()
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(row, experts[i // 2].step(states[i]))
        np.testing.assert_array_equal(stacked.step(states), rows)

    def test_stepper_follows_shape_and_params(self):
        # the kept stepper is rebuilt when the input shape or the parameters change
        rng = np.random.default_rng(13)
        p1 = KuramotoParams(omega=rng.uniform(-1, 1, 3), coupling=2.0)
        p2 = KuramotoParams(omega=rng.uniform(-1, 1, 3), coupling=3.0)
        u = phases_to_components(rng.uniform(-np.pi, np.pi, 3))
        expert = ExpertModel(p1)
        first = expert.step(u)
        np.testing.assert_array_equal(expert.step(np.stack([u, u]))[1], first)
        expert.params = p2
        np.testing.assert_array_equal(expert.step(u), ExpertModel(p2).step(u))
        expert.dt = 0.05
        np.testing.assert_array_equal(expert.step(u), ExpertModel(p2, dt=0.05).step(u))

    def test_stepper_outside_eq_repr_and_dump(self, tmp_path):
        params = KuramotoParams(omega=np.array([0.3, -0.2]), coupling=1.5)
        used, fresh = ExpertModel(params), ExpertModel(params)
        used.step(phases_to_components([0.1, 0.7]))
        assert used._stepper is not None and fresh._stepper is None
        assert used == fresh
        fresh.calls = used.calls  # the counter is in the repr; the stepper is not
        assert repr(used) == repr(fresh)
        m = build_matrices(ReservoirConfig(size=12), 4, True, 1, 2)
        for name, expert in (("used", used), ("fresh", fresh)):
            save_model(tmp_path / name, Instantiation(m, np.zeros((4, 16)), expert))
        assert (tmp_path / "used").read_bytes() == (tmp_path / "fresh").read_bytes()

    def test_output_unit_circle(self):
        rng = np.random.default_rng(4)
        params = KuramotoParams(omega=rng.uniform(-1, 1, 4), coupling=4.0)
        expert = ExpertModel(params)
        out = expert.step(phases_to_components(rng.uniform(-np.pi, np.pi, 4)))
        radii = out[0::2] ** 2 + out[1::2] ** 2
        assert np.max(np.abs(radii - 1.0)) < 1e-12


def _probe_matrices(d_u=4, weight=0.5):
    """A = 0 and B routing input j to reservoir node 2j, which g passes through."""
    d_r, d_in = 4 * d_u, 2 * d_u
    b = np.zeros((d_r, d_in))
    b[2 * np.arange(d_in), np.arange(d_in)] = weight
    return ReservoirMatrices(internal=scipy.sparse.csr_matrix((d_r, d_r)), input=b)


class TestHybridInputAndFeatures:
    def test_input_block_order(self):
        # the reservoir input is [u_tilde; u], expert block first: with A = 0
        # the first state reads it back through tanh
        expert = ExpertModel(KuramotoParams(omega=np.array([3.0, -2.0]), coupling=0.0))
        u = phases_to_components([0.5, 1.0])
        features, _ = collect_states(np.stack([u, u], axis=1), _probe_matrices(), expert=expert)
        v = np.arctanh(features[4::2, 0]) / 0.5
        assert v.shape == (8,)
        np.testing.assert_allclose(v[:4], expert.step(u), atol=1e-12)
        np.testing.assert_allclose(v[4:], u, atol=1e-12)
        assert np.max(np.abs(v[:4] - u)) > 0.1  # the two blocks are told apart

    def test_features_expert_block_untransformed(self):
        # g squares even-index entries of r but must never touch u_tilde
        expert = ExpertModel(KuramotoParams(omega=np.zeros(2), coupling=0.0))
        u = phases_to_components([-0.5, 2.0])  # u_tilde == u, with negative entries
        m = _probe_matrices()
        features, _ = collect_states(np.stack([u, u], axis=1), m, expert=expert)
        feat = features[:, 0]
        np.testing.assert_array_equal(feat[:4], expert.step(u))
        r = np.tanh(m.input @ np.concatenate([expert.step(u), u]))
        np.testing.assert_array_equal(feat[4:], nonlinear_transform(r))
        assert np.any(feat[:4] < 0)


@pytest.fixture(scope="module")
def sync_setup():
    regime = standard_regime("synchrony")
    params, theta0 = realize_regime(regime, 13)
    traj = simulate(params, theta0, IntegratorConfig(), 1500)
    return params, traj


class TestHybridTraining:
    def test_feature_shapes(self, sync_setup):
        params, traj = sync_setup
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, True, 1, 2)
        expert = ExpertModel(params)
        features, targets = collect_states(traj[:, :301], m, expert=expert)
        assert features.shape == (310, 300)
        assert targets.shape == (10, 300)

    def test_expert_called_once_per_sample(self, sync_setup):
        params, traj = sync_setup
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, True, 1, 2)
        expert = ExpertModel(params)
        collect_states(traj[:, :201], m, expert=expert)
        assert expert.calls == 200

    def test_teacher_forced_blocks_equal_per_step_expert(self, sync_setup):
        # across the blocks of batched expert calls, the expert features are
        # those of a per-step expert and each sample counts one call
        params, traj = sync_setup
        m = build_matrices(ReservoirConfig(size=40), 10, True, 1, 2)
        expert = ExpertModel(params)
        features, _ = collect_states(traj[:, :601], m, expert=expert)
        assert expert.calls == 600
        per_step = ExpertModel(params)
        want = np.stack([per_step.step(traj[:, t]) for t in range(600)], axis=1)
        np.testing.assert_array_equal(features[:10], want)

    @pytest.mark.parametrize("bad, error", [((0.0, 0.0), ValueError),
                                            ((np.inf, 0.0), FloatingPointError)],
                             ids=["origin_pair", "non_finite"])
    def test_expert_failure_raised_at_its_step(self, sync_setup, bad, error):
        # the teacher-forced expert runs all rows in one call, yet a failed row
        # raises what a per-step expert raises, and an earlier CollectionError wins
        params, traj = sync_setup
        training = traj[:, :11].copy()
        training[:2, 3] = bad
        m = build_matrices(ReservoirConfig(size=30), 10, True, 1, 2)
        with pytest.raises(error):
            collect_states(training, m, expert=ExpertModel(params))
        broken = ReservoirMatrices(internal=m.internal * np.nan, input=m.input)
        with pytest.raises(CollectionError) as err:
            collect_states(training, broken, expert=ExpertModel(params))
        assert err.value.step == 0

    def test_perfect_expert_low_training_error(self, sync_setup):
        # with the true parameters the expert's one-step prediction is nearly
        # exact, so the trained readout should fit the targets very closely
        params, traj = sync_setup
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, True, 3, 4)
        expert = ExpertModel(params)
        training = traj[:, :1001]
        features, targets = collect_states(training, m, expert=expert)
        readout = train_readout(features, targets, cfg.regularization)
        resid = readout @ features - targets
        nmse = np.linalg.norm(resid) / np.linalg.norm(targets)
        assert nmse < 1e-3

    def test_hybrid_never_worse_than_padded_standard(self, sync_setup):
        # zero-padding a standard readout into the hybrid feature space gives
        # a feasible point of the same ridge problem, so the hybrid optimum's
        # objective can only be lower or equal
        params, traj = sync_setup
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, True, 5, 6)
        expert = ExpertModel(params)
        training = traj[:, :501]
        features, targets = collect_states(training, m, expert=expert)
        beta = cfg.regularization
        hybrid_readout = train_readout(features, targets, beta)

        # standard problem on the same reservoir activations
        res_only = features[10:, :]
        std_readout = train_readout(res_only, targets, beta)
        padded = np.hstack([np.zeros((10, 10)), std_readout])

        def loss(w):
            return np.sum((w @ features - targets) ** 2) + beta * np.sum(w ** 2)

        assert loss(hybrid_readout) <= loss(padded) + 1e-10


@pytest.fixture(scope="module")
def trained(sync_setup):
    params, traj = sync_setup
    cfg = ReservoirConfig()
    m = build_matrices(cfg, 10, True, 7, 8)
    expert = ExpertModel(params)
    readout = train_readout(*collect_states(traj[:, :1001], m, expert=expert),
                            cfg.regularization)
    return Instantiation(m, readout, expert), traj


def model_forecast(warmup, horizon, model):
    return forecast(warmup, horizon, model.matrices, model.readout, expert=model.expert)


class TestHybridForecast:
    def test_tracks_truth_far_beyond_standard_horizon(self, trained):
        model, traj = trained
        preds = model_forecast(traj[:, 1100:1200], 300, model)
        truth = traj[:, 1200:1500]
        err = np.linalg.norm(preds - truth, axis=0) / np.sqrt(5)
        assert np.all(err < 0.4)

    def test_deterministic(self, trained):
        model, traj = trained
        a = model_forecast(traj[:, 1100:1200], 50, model)
        b = model_forecast(traj[:, 1100:1200], 50, model)
        np.testing.assert_array_equal(a, b)

    def test_shape_validation(self, sync_setup):
        params, _ = sync_setup
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, True, 7, 8)
        bad = np.zeros((10, 300))  # missing expert block
        with pytest.raises(ValueError):
            Instantiation(m, bad, ExpertModel(params))

    def test_instantiation_shapes_checked_for_every_arm(self, sync_setup):
        params, _ = sync_setup
        cfg = ReservoirConfig(size=30)
        expert = ExpertModel(params)
        standard = build_matrices(cfg, 10, False, 1, 2)
        hybrid = build_matrices(cfg, 10, True, 1, 2)
        Instantiation(standard, np.zeros((10, 30)))
        Instantiation(hybrid, np.zeros((10, 40)), expert)
        Instantiation(expert=expert)
        bad = [
            (None, None, None),  # a model without a reservoir needs an expert
            (standard, None, None),  # matrices without a readout
            (None, np.zeros((10, 30)), expert),  # a readout without matrices
            (hybrid, np.zeros((10, 40)), None),  # hybrid B, no expert
            (standard, np.zeros((10, 40)), expert),  # standard B with an expert
            (standard, np.zeros((10, 40)), None),  # expert block but no expert
        ]
        for matrices, readout, ex in bad:
            with pytest.raises(ValueError):
                Instantiation(matrices, readout, ex)

    def test_block_order_pinned_by_construction(self, sync_setup):
        # a B matrix that reads ONLY the expert block must behave differently
        # from one reading only the state block when the expert is imperfect
        params, traj = sync_setup
        wrong = perturb_params(params, 0.3, 0.3, 99)
        cfg = ReservoirConfig(size=50)
        rng = np.random.default_rng(0)
        internal = scipy.sparse.random(50, 50, density=0.06, random_state=1,
                                       data_rvs=lambda k: rng.uniform(-1, 1, k)).tocsr()
        rows = np.arange(50)
        b_expert = np.zeros((50, 20))
        b_expert[rows, rng.integers(0, 10, 50)] = 0.15
        b_state = np.zeros((50, 20))
        b_state[rows, 10 + rng.integers(0, 10, 50)] = 0.15
        m1 = ReservoirMatrices(internal=internal, input=b_expert)
        m2 = ReservoirMatrices(internal=internal, input=b_state)
        e1 = ExpertModel(wrong)
        e2 = ExpertModel(wrong)
        h1, _ = collect_states(traj[:, :101], m1, expert=e1)
        h2, _ = collect_states(traj[:, :101], m2, expert=e2)
        # expert blocks agree (same expert), reservoir blocks must differ
        np.testing.assert_array_equal(h1[:10], h2[:10])
        assert np.max(np.abs(h1[10:] - h2[10:])) > 1e-3
