import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from hybrid_esn import reservoir
from hybrid_esn.dynamics import (
    IntegratorConfig,
    KuramotoParams,
    generate_trajectory,
    normalize_components,
    perturb_params,
    realize_regime,
    simulate,
    standard_regime,
)
from hybrid_esn.hybrid import ExpertModel, stack_experts
from hybrid_esn.reservoir import (
    ForecastAbort,
    ReadoutTrainingError,
    ReservoirConfig,
    ReservoirMatrices,
    Readout,
    StateHistory,
    build_input_matrix,
    build_internal_matrix,
    build_matrices,
    collect_states,
    forecast,
    forecast_columns,
    nonlinear_transform,
    spectral_radius_of,
    stack_reservoirs,
    train_readout,
    update_state,
)


class TestSpectralRadius:
    def test_diagonal_matrix(self):
        a = scipy.sparse.diags([1.0, -3.0, 2.0]).tocsr()
        assert abs(spectral_radius_of(a) - 3.0) < 1e-10

    def test_complex_dominant_pair(self):
        # rotation-like block: eigenvalues are a complex pair of magnitude sqrt(2)
        a = scipy.sparse.csr_matrix(np.array([[1.0, -1.0], [1.0, 1.0]]))
        assert abs(spectral_radius_of(a) - np.sqrt(2.0)) < 1e-10

    def test_large_sparse_matches_dense(self):
        rng = np.random.default_rng(0)
        dense = rng.uniform(-1, 1, (600, 600)) * (rng.random((600, 600)) < 0.01)
        want = np.max(np.abs(np.linalg.eigvals(dense)))
        got = spectral_radius_of(scipy.sparse.csr_matrix(dense))
        assert abs(got - want) < 1e-8 * want


    def test_arpack_radius_reproducible_above_dense_limit(self):
        # above 2048 the radius comes from ARPACK; its start vector is fixed,
        # so other ARPACK calls in between cannot move the result
        a = build_internal_matrix(ReservoirConfig(size=2100), 3)
        first = spectral_radius_of(a)
        other = scipy.sparse.random(500, 500, density=0.02, random_state=0).tocsr()
        for _ in range(3):
            scipy.sparse.linalg.eigs(other, k=4, return_eigenvectors=False)
        assert spectral_radius_of(a) == first
        assert abs(first - 0.4) < 1e-6


class TestInternalMatrix:
    def test_target_radius_enforced(self):
        cfg = ReservoirConfig()
        a = build_internal_matrix(cfg, 0)
        assert a.shape == (300, 300)
        assert abs(spectral_radius_of(a) - 0.4) < 1e-6

    def test_radius_enforced_across_sizes_and_seeds(self):
        # invariant sweep: many seeds at several sizes, always within 1e-6
        for size in (50, 300, 1000):
            cfg = ReservoirConfig(size=size)
            seeds = range(50) if size < 1000 else range(8)
            for seed in seeds:
                a = build_internal_matrix(cfg, seed)
                assert abs(spectral_radius_of(a) - 0.4) < 1e-6, (size, seed)

    def test_edge_count_matches_erdos_renyi(self):
        # pooled nnz over 20 seeds vs Binomial(20*300^2, 3/300) within 3 sigma
        cfg = ReservoirConfig()
        total = sum(build_internal_matrix(cfg, s).nnz for s in range(20))
        n_draws = 20 * 300 * 300
        p = 3.0 / 300.0
        sigma = np.sqrt(n_draws * p * (1 - p))
        assert abs(total - n_draws * p) < 3 * sigma

    def test_determinism(self):
        cfg = ReservoirConfig(size=100)
        a = build_internal_matrix(cfg, 5)
        b = build_internal_matrix(cfg, 5)
        assert (a != b).nnz == 0


def plain_internal_matrix(cfg, seed):
    """The whole-matrix draw that the row-blocked build replaces."""
    rng = np.random.default_rng(seed)
    n = cfg.size
    p = cfg.mean_degree / n
    for _ in range(16):
        mask = rng.random((n, n)) < p
        weights = rng.uniform(-1.0, 1.0, (n, n))
        a = scipy.sparse.csr_matrix(np.where(mask, weights, 0.0))
        rho = spectral_radius_of(a)
        if rho > 0:
            return a * (cfg.spectral_radius / rho)
    raise AssertionError("no draw with a non-zero spectral radius")


def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


class TestRowBlockedDraw:
    # 1500 and 2100 are not multiples of the row block (699 and 499 rows);
    # 2100 also takes its radius from ARPACK
    @pytest.mark.parametrize("size,seed", [(1, 0), (2, 1), (7, 2), (50, 3), (300, 4),
                                           (1000, 5), (1500, 6), (2100, 7)])
    def test_csr_equals_plain_draw(self, size, seed):
        cfg = ReservoirConfig(size=size, mean_degree=min(3.0, size))
        assert_same_csr(build_internal_matrix(cfg, seed), plain_internal_matrix(cfg, seed))

    @pytest.mark.parametrize("block", [1, 7 * 50 + 3, 50 * 50])
    def test_many_small_blocks(self, monkeypatch, block):
        # one row per block, 7 rows with a 1-row remainder, one whole block
        monkeypatch.setattr(reservoir, "_DRAW_BLOCK", block)
        cfg = ReservoirConfig(size=50)
        for seed in range(5):
            assert_same_csr(build_internal_matrix(cfg, seed), plain_internal_matrix(cfg, seed))

    def test_empty_first_draw_resampled(self):
        # one possible edge present with probability 1/2: seed 1's first draw
        # is empty, so the build resamples from the same stream
        cfg = ReservoirConfig(size=1, mean_degree=0.5)
        assert np.random.default_rng(1).random() >= 0.5
        a = build_internal_matrix(cfg, 1)
        assert a.nnz == 1 and abs(abs(a.data[0]) - cfg.spectral_radius) < 1e-15
        assert_same_csr(a, plain_internal_matrix(cfg, 1))

    def test_peak_memory_bounded(self):
        # the whole-matrix draw peaks at about 150 MB at this size
        tracemalloc.start()
        try:
            build_internal_matrix(ReservoirConfig(size=3000), 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40e6


class TestInputMatrix:
    def test_one_nonzero_per_row(self):
        cfg = ReservoirConfig()
        b = build_input_matrix(cfg, 10, False, 3)
        assert b.shape == (300, 10)
        assert np.all(np.count_nonzero(b, axis=1) == 1)
        assert np.max(np.abs(b)) <= 0.15

    def test_hybrid_knowledge_ratio_extremes(self):
        cfg_all = ReservoirConfig(size=200, knowledge_ratio=1.0)
        b = build_input_matrix(cfg_all, 20, True, 0)
        cols = np.nonzero(b)[1]
        assert np.all(cols < 10)  # expert block only
        cfg_none = ReservoirConfig(size=200, knowledge_ratio=0.0)
        b = build_input_matrix(cfg_none, 20, True, 0)
        assert np.all(np.nonzero(b)[1] >= 10)

    def test_hybrid_knowledge_ratio_statistics(self):
        cfg = ReservoirConfig(size=10_000, knowledge_ratio=0.5)
        b = build_input_matrix(cfg, 20, True, 1)
        frac = np.mean(np.nonzero(b)[1] < 10)
        assert abs(frac - 0.5) < 0.015  # 3 sigma of Binomial(1e4, .5)/1e4

    def test_standard_column_coverage(self):
        cfg = ReservoirConfig()
        b = build_input_matrix(cfg, 10, False, 7)
        assert set(np.nonzero(b)[1]) == set(range(10))


class TestUpdateState:
    def _tiny(self):
        a = scipy.sparse.csr_matrix(np.array([[0.0, 0.2], [0.1, 0.0]]))
        b = np.array([[0.1, 0.0], [0.0, -0.1]])
        return ReservoirMatrices(internal=a, input=b)

    def test_zero_everything(self):
        m = self._tiny()
        np.testing.assert_array_equal(update_state(np.zeros(2), np.zeros(2), m),
                                      np.zeros(2))

    def test_hand_value(self):
        m = self._tiny()
        got = update_state(np.array([1.0, -1.0]), np.array([2.0, 3.0]), m)
        want = np.tanh([0.2 * -1.0 + 0.1 * 2.0, 0.1 * 1.0 - 0.1 * 3.0])
        np.testing.assert_allclose(got, want, atol=1e-15)

    def test_bounded_activation(self):
        m = self._tiny()
        got = update_state(np.array([1e6, -1e6]), np.array([1e6, 1e6]), m)
        assert np.all(np.abs(got) <= 1.0)

    def test_shape_mismatch_rejected(self):
        m = self._tiny()
        with pytest.raises(ValueError):
            update_state(np.zeros(3), np.zeros(2), m)


class TestNonlinearTransform:
    def test_hand_example(self):
        np.testing.assert_allclose(nonlinear_transform(np.array([0.5, -0.5, 0.3, 2.0])),
                                   [0.5, 0.25, 0.3, 4.0], atol=1e-16)

    def test_input_not_mutated(self):
        r = np.array([1.0, -2.0])
        nonlinear_transform(r)
        np.testing.assert_array_equal(r, [1.0, -2.0])

    def test_idempotent_on_odd_positions(self):
        rng = np.random.default_rng(2)
        r = rng.normal(size=8)
        out = nonlinear_transform(r)
        np.testing.assert_array_equal(out[0::2], r[0::2])
        np.testing.assert_allclose(out[1::2], r[1::2] ** 2, atol=1e-16)


class TestRidgeReadout:
    def test_identity_features_zero_beta(self):
        rng = np.random.default_rng(0)
        y = rng.normal(size=(3, 12))
        phi = np.tile(np.eye(3), 4)
        readout = train_readout(StateHistory(features=phi), y, 0.0)
        oracle = y @ phi.T @ np.linalg.inv(phi @ phi.T)
        np.testing.assert_allclose(readout.weights, oracle, atol=1e-10)

    def test_matches_dense_normal_equation_oracle(self):
        rng = np.random.default_rng(42)
        phi = rng.normal(size=(8, 20))
        y = rng.normal(size=(3, 20))
        beta = 1e-3
        readout = train_readout(StateHistory(features=phi), y, beta)
        oracle = y @ phi.T @ np.linalg.inv(phi @ phi.T + beta * np.eye(8))
        np.testing.assert_allclose(readout.weights, oracle, rtol=1e-8)

    def test_scalar_shrinkage_example(self):
        # phi = [1], y = [1]: C = 1/(1+beta)
        phi = np.ones((1, 1))
        y = np.ones((1, 1))
        readout = train_readout(StateHistory(features=phi), y, 1.0)
        assert abs(readout.weights[0, 0] - 0.5) < 1e-14

    def test_rank_deficient_zero_beta_raises(self):
        phi = np.zeros((4, 10))
        y = np.ones((2, 10))
        with pytest.raises(ReadoutTrainingError):
            train_readout(StateHistory(features=phi), y, 0.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            train_readout(StateHistory(features=np.ones((1, 1))), np.ones((1, 1)), -1.0)

    def test_optimality_against_perturbations(self):
        # the closed-form solution minimizes the ridge objective: no random
        # perturbation of the weights may lower it
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(10, 40))
        y = rng.normal(size=(4, 40))
        beta = 1e-2
        c = train_readout(StateHistory(features=phi), y, beta).weights

        def loss(w):
            return np.sum((w @ phi - y) ** 2) + beta * np.sum(w ** 2)

        base = loss(c)
        for _ in range(100):
            delta = rng.normal(size=c.shape) * rng.choice([1e-6, 1e-3, 1e-1])
            assert loss(c + delta) >= base - 1e-10 * max(1.0, base)

    def test_ridge_norm_shrinks_with_beta(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(6, 30))
        y = rng.normal(size=(2, 30))
        norms = [np.linalg.norm(train_readout(StateHistory(features=phi), y, b).weights)
                 for b in (1e-8, 1e-4, 1e-2, 1.0, 100.0)]
        assert all(n2 <= n1 + 1e-12 for n1, n2 in zip(norms, norms[1:]))


def copying_ridge(phi, y, beta):
    """Ridge readout through a copying cho_factor, as the fit did before it factored in place."""
    gram = phi @ phi.T
    gram[np.diag_indices_from(gram)] += beta
    return scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram), phi @ y.T).T


class TestRidgeInPlace:
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_equals_copying_factorization(self, layout):
        rng = np.random.default_rng(30)
        base = rng.normal(size=(120, 900))
        phi = {"C": base[:60, :300].copy(), "F": np.asfortranarray(base[:60, :300]),
               "strided": base[::2, ::3]}[layout]
        y = rng.normal(size=(10, 300))
        for beta in (0.0, 1e-6, 1e-1):
            got = train_readout(StateHistory(features=phi), y, beta).weights
            assert np.array_equal(got, copying_ridge(phi, y, beta)), beta

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_features_rejected(self, bad):
        rng = np.random.default_rng(32)
        phi = rng.normal(size=(6, 40))
        phi[2, 5] = bad
        with pytest.raises(ValueError):
            train_readout(StateHistory(features=phi), rng.normal(size=(2, 40)), 1e-6)

    def test_features_not_modified(self):
        rng = np.random.default_rng(33)
        phi, y = rng.normal(size=(20, 80)), rng.normal(size=(3, 80))
        phi0, y0 = phi.copy(), y.copy()
        train_readout(StateHistory(features=phi), y, 1e-3)
        np.testing.assert_array_equal(phi, phi0)
        np.testing.assert_array_equal(y, y0)

    def test_peak_memory_one_gram_matrix(self):
        # 3010 features: the Gram matrix is 72 MB; a copying fit peaks at about 155 MB
        rng = np.random.default_rng(34)
        phi, y = rng.normal(size=(3010, 1000)), rng.normal(size=(10, 1000))
        tracemalloc.start()
        try:
            train_readout(StateHistory(features=phi), y, 1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6


@pytest.fixture(scope="module")
def sync_training():
    regime = standard_regime("synchrony")
    return generate_trajectory(regime, IntegratorConfig(), 1000, 13)


class TestCollection:
    def test_shapes_standard(self, sync_training):
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, False, 1, 2)
        history, targets = collect_states(sync_training, m)
        assert history.features.shape == (300, 1000)
        assert targets.shape == (10, 1000)
        np.testing.assert_array_equal(targets, sync_training[:, 1:])

    def test_first_column_uses_zero_initial_state(self, sync_training):
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, False, 1, 2)
        history, _ = collect_states(sync_training[:, :3], m)
        want = nonlinear_transform(update_state(np.zeros(300), sync_training[:, 0], m))
        np.testing.assert_allclose(history.features[:, 0], want, atol=1e-15)

    def test_too_few_samples_rejected(self):
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, False, 1, 2)
        with pytest.raises(ValueError):
            collect_states(np.ones((10, 1)), m)

    def test_determinism(self, sync_training):
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, False, 1, 2)
        h1, _ = collect_states(sync_training, m)
        h2, _ = collect_states(sync_training, m)
        np.testing.assert_array_equal(h1.features, h2.features)


@pytest.fixture(scope="module")
def trained(sync_training):
    cfg = ReservoirConfig()
    m = build_matrices(cfg, 10, False, 11, 12)
    history, targets = collect_states(sync_training, m)
    readout = train_readout(history, targets, cfg.regularization)
    return cfg, m, readout


class TestForecast:
    def test_output_shape_and_unit_circle(self, trained, sync_training):
        cfg, m, readout = trained
        preds = forecast(sync_training[:, :100], 50, m, readout)
        assert preds.shape == (10, 50)
        radii = preds[0::2] ** 2 + preds[1::2] ** 2
        assert np.max(np.abs(radii - 1.0)) < 1e-9

    def test_short_horizon_tracks_truth(self, trained, sync_training):
        cfg, m, readout = trained
        warmup = sync_training[:, :500]
        preds = forecast(warmup, 5, m, readout)
        truth = sync_training[:, 500:505]
        assert np.max(np.abs(preds - truth)) < 0.05

    def test_feedback_closure(self, trained, sync_training):
        # the forecast loop feeds predictions back exactly: re-driving the
        # reservoir with [warmup, preds[:-1]] reproduces the last prediction
        cfg, m, readout = trained
        warmup = sync_training[:, :200]
        preds = forecast(warmup, 10, m, readout)
        r = np.zeros(300)
        from hybrid_esn.dynamics import normalize_components
        for t in range(warmup.shape[1]):
            r = update_state(r, warmup[:, t], m)
        for k in range(9):
            u_hat = normalize_components(readout.weights @ nonlinear_transform(r))
            np.testing.assert_allclose(u_hat, preds[:, k], atol=1e-9)
            r = update_state(r, u_hat, m)
        last = normalize_components(readout.weights @ nonlinear_transform(r))
        np.testing.assert_allclose(last, preds[:, 9], atol=1e-9)

    def test_determinism(self, trained, sync_training):
        cfg, m, readout = trained
        a = forecast(sync_training[:, :100], 30, m, readout)
        b = forecast(sync_training[:, :100], 30, m, readout)
        np.testing.assert_array_equal(a, b)

    def test_bad_horizon_rejected(self, trained, sync_training):
        cfg, m, readout = trained
        with pytest.raises(ValueError):
            forecast(sync_training[:, :100], 0, m, readout)

    def test_abort_carries_prefix(self, trained, sync_training):
        cfg, m, _ = trained
        # a readout that always outputs zeros cannot be renormalized
        bad = Readout(weights=np.zeros((10, 300)))
        with pytest.raises(ForecastAbort) as err:
            forecast(sync_training[:, :100], 20, m, bad)
        assert err.value.step == 0
        assert err.value.partial.shape == (10, 0)


class TestEchoState:
    def test_fading_memory(self, sync_training):
        # two different initial reservoir states converge under the same drive
        cfg = ReservoirConfig()
        m = build_matrices(cfg, 10, False, 21, 22)
        rng = np.random.default_rng(0)
        r1 = np.zeros(300)
        r2 = rng.uniform(-1, 1, 300)
        for t in range(150):
            u = sync_training[:, t]
            r1 = update_state(r1, u, m)
            r2 = update_state(r2, u, m)
        assert np.max(np.abs(r1 - r2)) < 1e-6


def reference_forecast(warmup, horizon, m, readout, expert=None):
    """The per-span loop that the lock-step forecast replaces; returns the
    predictions up to an abort."""
    r = np.zeros(m.d_r)
    u_tilde = None
    for t in range(warmup.shape[1]):
        u = warmup[:, t]
        if expert is not None:
            u_tilde = expert.step(u)
            u = np.concatenate([u_tilde, u])
        r = update_state(r, u, m)
    preds = np.empty((warmup.shape[0], horizon))
    for k in range(horizon):
        g = nonlinear_transform(r)
        u_hat = readout.weights @ (np.concatenate([u_tilde, g]) if expert is not None else g)
        if not np.all(np.isfinite(u_hat)):
            return preds[:, :k]
        try:
            u_hat = normalize_components(u_hat)
        except ValueError:
            return preds[:, :k]
        preds[:, k] = u_hat
        if expert is not None:
            u_tilde = expert.step(u_hat)
            u_hat = np.concatenate([u_tilde, u_hat])
        r = update_state(r, u_hat, m)
    return preds


def reference_expert_forecast(start, horizon, expert):
    """The per-step ExpertModel.step loop of the bare-ODE arm."""
    preds = np.empty((start.size, horizon))
    u = start
    for k in range(horizon):
        try:
            u = expert.step(u)
        except (FloatingPointError, ValueError):
            return preds[:, :k]
        preds[:, k] = u
    return preds


N_INST, N_SPANS, WARMUP, HORIZON = 2, 3, 25, 60


@pytest.fixture(scope="module")
def lockstep_setup():
    params, theta0 = realize_regime(standard_regime("synchrony"), 31)
    record = simulate(params, theta0, IntegratorConfig(), 700)
    starts = [250 + 140 * j for j in range(N_SPANS)]
    spans = [record[:, s:s + WARMUP] for s in starts]
    truths = [record[:, s + WARMUP:s + WARMUP + HORIZON] for s in starts]
    return params, record[:, :201], spans, truths


def train_instantiations(setup, hybrid, size=60):
    params, training, _, _ = setup
    cfg = ReservoirConfig(size=size)
    members = []
    for k in range(N_INST):
        m = build_matrices(cfg, 10, hybrid, 40 + k, 50 + k)
        expert = ExpertModel(perturb_params(params, 0.1, 0.1, 60 + k)) if hybrid else None
        history, targets = collect_states(training, m, expert=expert)
        members.append((m, train_readout(history, targets, cfg.regularization), expert))
    return members


def run_lockstep(warmups, horizon, stack, expert):
    """Columns are instantiation-major: column k*N_SPANS + j is (k, j)."""
    warm = np.tile(np.stack([w.T for w in warmups], axis=1), (1, N_INST, 1))
    preds = np.full((horizon, warm.shape[1], warm.shape[2]), np.nan)

    def keep(k, u_hat):
        preds[k] = u_hat

    aborts = forecast_columns(warm, horizon, keep, stack, expert)
    return [preds[:aborts[c], c].T for c in range(warm.shape[1])], aborts


class TestLockstepForecast:
    @pytest.mark.parametrize("hybrid", [False, True])
    def test_columns_equal_per_span_forecasts(self, lockstep_setup, hybrid):
        _, _, spans, _ = lockstep_setup
        members = train_instantiations(lockstep_setup, hybrid)
        stack = stack_reservoirs([m for m, _, _ in members], [r for _, r, _ in members],
                                 N_SPANS)
        expert = stack_experts([e for _, _, e in members], N_SPANS) if hybrid else None
        columns, aborts = run_lockstep(spans, HORIZON, stack, expert)
        assert np.all(aborts == HORIZON)
        for c, got in enumerate(columns):
            m, readout, ex = members[c // N_SPANS]
            want = reference_forecast(spans[c % N_SPANS], HORIZON, m, readout, ex)
            np.testing.assert_array_equal(got, want)
            if c % N_SPANS == 0:
                np.testing.assert_array_equal(
                    forecast(spans[0], HORIZON, m, readout, expert=ex), want)

    @pytest.mark.parametrize("hybrid", [False, True])
    def test_nan_readout_aborts_only_its_columns(self, lockstep_setup, hybrid):
        _, _, spans, _ = lockstep_setup
        members = train_instantiations(lockstep_setup, hybrid)
        bad = Readout(weights=np.full_like(members[0][1].weights, np.nan))
        members[0] = (members[0][0], bad, members[0][2])
        stack = stack_reservoirs([m for m, _, _ in members], [r for _, r, _ in members],
                                 N_SPANS)
        expert = stack_experts([e for _, _, e in members], N_SPANS) if hybrid else None
        columns, aborts = run_lockstep(spans, HORIZON, stack, expert)
        np.testing.assert_array_equal(aborts, [0] * N_SPANS + [HORIZON] * N_SPANS)
        for c, got in enumerate(columns):
            m, readout, ex = members[c // N_SPANS]
            want = reference_forecast(spans[c % N_SPANS], HORIZON, m, readout, ex)
            np.testing.assert_array_equal(got, want)

    def test_bare_expert_columns_equal_step_loop(self, lockstep_setup):
        params, _, _, truths = lockstep_setup
        experts = [ExpertModel(perturb_params(params, 0.1, 0.1, 70 + k)) for k in range(N_INST)]
        # an expert whose fast oscillator overflows in one RK4 step fails
        # only its own columns
        experts.append(ExpertModel(KuramotoParams(omega=np.full(5, 1e300), coupling=1.0)))
        starts = [t[:, :1] for t in truths]
        n_inst = len(experts)
        warm = np.tile(np.stack([s.T for s in starts], axis=1), (1, n_inst, 1))
        preds = np.empty((HORIZON, warm.shape[1], 10))

        def keep(k, u_hat):
            preds[k] = u_hat

        aborts = forecast_columns(warm, HORIZON, keep, None, stack_experts(experts, N_SPANS))
        for c in range(warm.shape[1]):
            want = reference_expert_forecast(starts[c % N_SPANS][:, 0], HORIZON,
                                             experts[c // N_SPANS])
            assert aborts[c] == want.shape[1]
            np.testing.assert_array_equal(preds[:aborts[c], c].T, want)
        np.testing.assert_array_equal(aborts[-N_SPANS:], 0)
        assert np.all(aborts[:-N_SPANS] == HORIZON)
