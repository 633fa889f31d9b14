import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybrid_esn.evaluation import SpanLayout, nmse_denominator, segment, span_metrics


class TestSpanLayout:
    def test_full_scale_totals(self):
        layout = SpanLayout()
        assert layout.total_steps == 62_000
        assert layout.needed_samples == 61_600  # the last test span ends 400 steps early
        assert layout.n_tests == 20

    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            SpanLayout(training=0)
        with pytest.raises(ValueError):
            SpanLayout(dt=0.0)

    def test_rejects_single_sample_test_span(self):
        # the bare-ODE forecast covers test - 1 samples: a 0-step forecast
        # has no NMSE
        with pytest.raises(ValueError, match="test must be >= 2"):
            SpanLayout(test=1)
        assert SpanLayout(test=2).test == 2


class TestSegment:
    def test_full_layout_arithmetic(self):
        layout = SpanLayout()
        record = np.arange(62_001, dtype=float)[None, :]
        training, spans = segment(record, layout)
        assert training.shape == (1, 1001)
        assert training[0, 0] == 0 and training[0, -1] == 1000
        assert len(spans) == 20
        w0, t0 = spans[0]
        assert w0.shape == (1, 100) and t0.shape == (1, 2500)
        assert w0[0, 0] == 2000  # first warm-up starts right after the gap
        assert t0[0, 0] == 2100
        w1, _ = spans[1]
        assert w1[0, 0] == 5000  # stride = 100 + 2500 + 400

    def test_spans_disjoint_and_ordered(self):
        layout = SpanLayout(training=10, train_test_gap=5, warmup=3, test=7,
                            test_test_gap=2, n_tests=4)
        record = np.arange(layout.total_steps + 1, dtype=float)[None, :]
        _, spans = segment(record, layout)
        seen = []
        for w, t in spans:
            seen.extend(w[0].tolist())
            seen.extend(t[0].tolist())
        assert len(seen) == len(set(seen))
        assert seen == sorted(seen)

    def test_short_record_rejected(self):
        layout = SpanLayout()
        with pytest.raises(ValueError):
            segment(np.zeros((2, 100)), layout)

    def test_training_has_extra_transition_sample(self):
        layout = SpanLayout(training=50, train_test_gap=10, warmup=5, test=20,
                            test_test_gap=3, n_tests=1)
        record = np.zeros((3, layout.total_steps + 1))
        training, _ = segment(record, layout)
        assert training.shape[1] == 51


def nmse(prediction, truth):
    """The NMSE series of a full forecast, as `span_metrics` normalizes it."""
    return np.linalg.norm(truth - prediction, axis=0) / nmse_denominator(truth)


class TestNmse:
    def test_perfect_forecast_zero(self):
        truth = np.vstack([np.ones(10), np.zeros(10)])
        np.testing.assert_array_equal(nmse(truth.copy(), truth), np.zeros(10))
        assert span_metrics(np.linalg.norm(truth - truth.copy(), axis=0), truth, 0.1)[0] == 0.0

    def test_unit_circle_denominator_is_sqrt_n(self):
        # truth on 3 unit circles: denominator sqrt(3); a prediction offset by
        # a fixed vector of norm d gives NMSE d/sqrt(3) at every step
        rng = np.random.default_rng(0)
        theta = rng.uniform(-np.pi, np.pi, (3, 20))
        truth = np.empty((6, 20))
        truth[0::2] = np.cos(theta)
        truth[1::2] = np.sin(theta)
        offset = np.zeros((6, 1))
        offset[0] = 0.3
        np.testing.assert_allclose(nmse(truth + offset, truth), 0.3 / np.sqrt(3), atol=1e-12)

    def test_antipodal_forecast_scores_two(self):
        theta = np.linspace(0, 3, 15)
        truth = np.vstack([np.cos(theta), np.sin(theta)])
        np.testing.assert_allclose(nmse(-truth, truth), 2.0, atol=1e-12)

    def test_zero_truth_rejected(self):
        truth = np.zeros((2, 3))
        with pytest.raises(ValueError, match="ground truth is identically zero"):
            span_metrics(np.linalg.norm(truth - np.ones((2, 3)), axis=0), truth, 0.1)

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_oscillator_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        theta_t = rng.uniform(-np.pi, np.pi, (4, 12))
        theta_p = rng.uniform(-np.pi, np.pi, (4, 12))

        def comp(th):
            out = np.empty((8, 12))
            out[0::2] = np.cos(th)
            out[1::2] = np.sin(th)
            return out

        perm = rng.permutation(4)
        np.testing.assert_allclose(nmse(comp(theta_p), comp(theta_t)),
                                   nmse(comp(theta_p[perm]), comp(theta_t[perm])), atol=1e-12)


def series_valid_time(series, epsilon):
    """`span_metrics`'s valid time of a 1-oscillator forecast whose NMSE series is `series`."""
    h = len(series)
    truth = np.vstack([np.ones(h), np.zeros(h)])
    pred = truth.copy()
    pred[1] = np.asarray(series, dtype=float)  # error norm = series value
    return span_metrics(np.linalg.norm(truth - pred, axis=0), truth, 0.1, epsilon)[1]


class TestValidTime:
    def test_first_crossing_convention(self):
        assert series_valid_time([0.1, 0.2, 0.5, 0.3], 0.4) == pytest.approx(0.2)

    def test_immediate_failure_scores_zero(self):
        assert series_valid_time([0.41, 0.1], 0.4) == 0.0

    def test_never_fails_scores_full_horizon(self):
        assert series_valid_time([0.1] * 25, 0.4) == pytest.approx(2.5)

    def test_boundary_is_inclusive(self):
        assert series_valid_time([0.4, 0.4], 0.4) == pytest.approx(0.2)

    def test_bad_epsilon_rejected(self):
        truth = np.vstack([np.ones(4), np.zeros(4)])
        for epsilon in (0.0, -0.4):
            with pytest.raises(ValueError, match="epsilon must be positive"):
                series_valid_time([0.1], epsilon)
            with pytest.raises(ValueError, match="epsilon must be positive"):
                span_metrics(np.empty(0), truth, 0.1, epsilon)  # an aborted forecast too

    @given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=50),
           st.floats(0.05, 1.0), st.floats(0.05, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_epsilon(self, series, e1, e2):
        lo, hi = sorted([e1, e2])
        assert series_valid_time(series, lo) <= series_valid_time(series, hi)

    @given(st.lists(st.floats(0.0, 3.0), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_bounded_by_horizon(self, series):
        t = series_valid_time(series, 0.4)
        assert 0.0 <= t <= len(series) * 0.1 + 1e-12


class TestFailureMetrics:
    """An aborted forecast, scored by `span_metrics` from the norms of its prefix."""

    def test_empty_prefix_worst_case(self):
        truth = np.vstack([np.ones(10), np.zeros(10)])
        m, t = span_metrics(np.empty(0), truth, 0.1)
        assert m == 2.0 and t == 0.0

    def test_padding_matches_hand_computation(self):
        # 2 good steps then abort on a 5-step horizon: mean over [0,0,2,2,2]
        truth = np.vstack([np.ones(5), np.zeros(5)])
        partial = truth[:, :2].copy()
        m, t = span_metrics(np.linalg.norm(truth[:, :2] - partial, axis=0), truth, 0.1)
        assert m == pytest.approx(6.0 / 5.0)
        assert t == pytest.approx(0.2)

    def test_prefix_crossing_before_abort(self):
        truth = np.vstack([np.ones(4), np.zeros(4)])
        partial = truth[:, :3].copy()
        partial[1, 1] = 0.5  # NMSE 0.5 at step 2
        m, t = span_metrics(np.linalg.norm(truth[:, :3] - partial, axis=0), truth, 0.1)
        assert t == pytest.approx(0.1)
        assert m == pytest.approx((0.0 + 0.5 + 0.0 + 2.0) / 4.0)


class TestSpanMetrics:
    def test_full_series_matches_hand_computation(self):
        rng = np.random.default_rng(5)
        truth = rng.normal(size=(6, 40))
        pred = truth + rng.normal(scale=0.3, size=truth.shape)
        series = nmse(pred, truth)
        bad = np.flatnonzero(series > 0.4)
        n_ok = series.size if bad.size == 0 else int(bad[0])
        norms = np.linalg.norm(truth - pred, axis=0)
        assert span_metrics(norms, truth, 0.1, 0.4) == (float(np.mean(series)), n_ok * 0.1)

    def test_prefix_matches_failure_metrics(self):
        # the prefix's NMSE over its own truth, padded with 2.0 to the horizon
        rng = np.random.default_rng(6)
        truth = rng.normal(size=(6, 40))
        partial = truth[:, :13] + rng.normal(scale=0.3, size=(6, 13))
        norms = np.linalg.norm(truth[:, :13] - partial, axis=0)
        denom = np.sqrt(np.mean(np.sum(truth[:, :13] ** 2, axis=0)))
        series = np.concatenate([norms / denom, np.full(27, 2.0)])
        n_ok = int(np.argmax(series > 0.4))
        assert span_metrics(norms, truth, 0.1) == (float(np.mean(series)), n_ok * 0.1)
        assert span_metrics(norms[:0], truth, 0.1) == (2.0, 0.0)
