"""Span segmentation and forecast quality metrics (NMSE, valid time)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import check_count

__all__ = [
    "SpanLayout",
    "ForecastResult",
    "MetricRecord",
    "segment",
    "nmse_series",
    "mean_nmse",
    "valid_time",
    "nmse_denominator",
    "span_metrics",
]


@dataclass(frozen=True)
class SpanLayout:
    """Step counts dividing one long record into training and test material.

    Defaults reproduce the full-scale layout: 1000 training steps, a 1000
    step gap, then 20 disjoint (100 warm-up + 2500 test) segments separated
    by 400 step gaps, for 62000 steps at dt = 0.1 s.
    """

    training: int = 1000
    train_test_gap: int = 1000
    warmup: int = 100
    test: int = 2500
    test_test_gap: int = 400
    n_tests: int = 20
    dt: float = 0.1

    def __post_init__(self):
        for name in ("training", "train_test_gap", "warmup", "test", "test_test_gap", "n_tests"):
            check_count(name, getattr(self, name))
        if self.test < 2:
            raise ValueError("test must be >= 2: the bare-ODE forecast covers test - 1 samples")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    @property
    def total_steps(self) -> int:
        return (self.training + self.train_test_gap
                + self.n_tests * (self.warmup + self.test + self.test_test_gap))

    @property
    def needed_samples(self) -> int:
        """Samples `segment` reads: the record up to the end of the last test span."""
        return self.total_steps - self.test_test_gap


@dataclass(frozen=True)
class ForecastResult:
    """Predicted and ground-truth component trajectories over one test span."""

    prediction: np.ndarray  # D_u x H
    truth: np.ndarray       # D_u x H
    dt: float

    def __post_init__(self):
        if self.prediction.shape != self.truth.shape:
            raise ValueError("prediction and truth must have equal shapes")
        if self.prediction.ndim != 2 or self.prediction.shape[1] < 1:
            raise ValueError("need at least one forecast step")


@dataclass(frozen=True)
class MetricRecord:
    """One (model, instantiation, span) evaluation row as written to CSV."""

    task: str
    regime: str
    model: str  # "standard" | "hybrid" | "ode"
    param_name: str
    param_value: float
    instantiation: int
    span: int
    mean_nmse: float
    valid_time: float  # seconds


def segment(record: np.ndarray, layout: SpanLayout):
    """Split a long record into the training span and (warm-up, test) pairs.

    The training span carries one extra trailing sample so it yields exactly
    `layout.training` next-step transitions.  Warm-up k starts at step
    training + train_test_gap + k*(warmup + test + test_test_gap).
    """
    needed = layout.needed_samples
    if record.ndim != 2 or record.shape[1] < needed:
        raise ValueError(
            f"record has {record.shape[1]} samples; layout requires at least {needed}"
        )
    training = record[:, : layout.training + 1]
    spans = []
    stride = layout.warmup + layout.test + layout.test_test_gap
    start0 = layout.training + layout.train_test_gap
    for k in range(layout.n_tests):
        s = start0 + k * stride
        spans.append((record[:, s : s + layout.warmup],
                      record[:, s + layout.warmup : s + layout.warmup + layout.test]))
    return training, spans


def nmse_denominator(truth: np.ndarray) -> float:
    """Root-mean-square norm of a ground-truth span (sqrt(N) for unit-circle states)."""
    denom = np.sqrt(np.mean(np.sum(truth ** 2, axis=0)))
    if denom == 0.0:
        raise ValueError("NMSE undefined: ground truth is identically zero")
    return denom


def nmse_series(fr: ForecastResult) -> np.ndarray:
    """NMSE(t) = ||u(t) - u*(t)|| / rms_tau ||u(tau)||, per forecast step.

    The denominator is the root-mean-square norm of the test span's ground
    truth (sqrt(N) exactly for unit-circle states).
    """
    denom = nmse_denominator(fr.truth)
    return np.linalg.norm(fr.truth - fr.prediction, axis=0) / denom


def mean_nmse(fr: ForecastResult) -> float:
    """Arithmetic mean of the NMSE series over the whole forecast."""
    return float(np.mean(nmse_series(fr)))


def valid_time(fr: ForecastResult, epsilon: float = 0.4) -> float:
    """Duration (s) of the longest prefix with NMSE <= epsilon throughout.

    The first prediction carries timestamp dt; a forecast whose very first
    sample exceeds epsilon scores 0, and one that never does scores H*dt.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    series = nmse_series(fr)
    bad = np.flatnonzero(series > epsilon)
    n_ok = series.size if bad.size == 0 else int(bad[0])
    return n_ok * fr.dt


def span_metrics(error_norms: np.ndarray, truth: np.ndarray, dt: float,
                 epsilon: float = 0.4):
    """(mean NMSE, valid time) of one forecast from its per-step ||u(t) - u*(t)||.

    A series shorter than the truth is an aborted forecast, scored at the
    worst case rather than dropped: the series is normalized over the truth
    it covers and padded with 2.0 (the antipodal-forecast level) out to the
    full horizon for the mean, and valid time comes from the prefix alone.
    """
    horizon = truth.shape[1]
    k = error_norms.shape[0]
    if k == 0:
        return 2.0, 0.0
    series = error_norms / nmse_denominator(truth[:, :k])
    if k < horizon:
        series = np.concatenate([series, np.full(horizon - k, 2.0)])
    bad = np.flatnonzero(series > epsilon)
    n_ok = series.size if bad.size == 0 else int(bad[0])
    return float(np.mean(series)), n_ok * dt
