"""Kuramoto-family oscillator networks in phase and phase-component form.

The ground-truth systems, and the expert model embedded in the hybrid
reservoir, are all-to-all coupled phase oscillator networks.  Oscillator
phases theta_i live on the circle; the reservoirs instead consume the
continuous (x_i, y_i) = (cos theta_i, sin theta_i) "phase components",
so most integration here happens in component form.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "check_count",
    "NumericalBlowup",
    "KuramotoParams",
    "BiHarmonicParams",
    "RowParams",
    "FrequencyLaw",
    "RegimeSpec",
    "IntegratorConfig",
    "standard_regime",
    "biharmonic_regime",
    "phases_to_components",
    "components_to_phases",
    "normalize_rows",
    "RK4Stepper",
    "integrate_step",
    "sample_frequencies",
    "sample_initial_phases",
    "realize_regime",
    "perturb_params",
    "simulate",
    "simulate_batch",
    "generate_trajectory",
]


def check_count(name: str, value, low: int = 1) -> None:
    """Raise ValueError unless `value` is an integer (a bool is not one) of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


class NumericalBlowup(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state encountered at integration step {step}")
        self.step = step


@dataclass(frozen=True)
class KuramotoParams:
    """Natural frequencies omega_i (rad/s) and global coupling K for N oscillators."""

    omega: np.ndarray
    coupling: float

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if omega.ndim != 1 or omega.size < 1:
            raise ValueError("omega must be a non-empty 1-d vector")
        if not (np.all(np.isfinite(omega)) and np.isfinite(self.coupling)):
            raise ValueError("Kuramoto parameters must be finite")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "coupling", float(self.coupling))

    @property
    def n_oscillators(self) -> int:
        return self.omega.size


@dataclass(frozen=True)
class RowParams:
    """Kuramoto parameters with one set per row of an (S, 2N) state batch.

    `RK4Stepper` reads it like KuramotoParams: omega is (S, N) and the
    coupling a scalar shared by every row or (S, 1), one per row.
    """

    omega: np.ndarray
    coupling: float | np.ndarray

    @property
    def n_oscillators(self) -> int:
        return self.omega.shape[-1]


@dataclass(frozen=True)
class BiHarmonicParams:
    """Kuramoto coupling with phase shifts and a scaled second harmonic.

    Reduces to the plain model when gamma1 = 0 and second_harmonic_scale = 0.
    A RowParams base gives every row of a state batch its own omega under
    the shared harmonics.
    """

    base: KuramotoParams | RowParams
    gamma1: float
    gamma2: float
    second_harmonic_scale: float

    def __post_init__(self):
        for v in (self.gamma1, self.gamma2, self.second_harmonic_scale):
            if not np.isfinite(v):
                raise ValueError("bi-harmonic parameters must be finite")

    @property
    def n_oscillators(self) -> int:
        return self.base.n_oscillators


@dataclass(frozen=True)
class FrequencyLaw:
    """How a regime draws its natural frequencies.

    kind is one of "uniform" (a=lo, b=hi), "cauchy" (a=center, b=width),
    or "multi_frequency" (four Uniform(-1,1) draws plus one fast oscillator
    at z*(3.0+w), w ~ Uniform(0,1), z a random sign).
    """

    kind: str
    a: float = 0.0
    b: float = 0.0

    def __post_init__(self):
        if self.kind not in ("uniform", "cauchy", "multi_frequency"):
            raise ValueError(f"unknown frequency law {self.kind!r}")


@dataclass(frozen=True)
class RegimeSpec:
    """A named dynamical regime: model family, frequency law and coupling."""

    name: str
    model_family: str  # "standard" | "biharmonic"
    n_oscillators: int
    coupling: float
    frequency_law: FrequencyLaw
    gamma1: float = 0.0
    gamma2: float = 0.0
    second_harmonic_scale: float = 0.0

    def __post_init__(self):
        if self.model_family not in ("standard", "biharmonic"):
            raise ValueError(f"unknown model family {self.model_family!r}")
        if self.n_oscillators < 1:
            raise ValueError("need at least one oscillator")


_STANDARD_COUPLING = {"synchrony": 4.0, "asynchrony": 1.0, "multi_frequency": 2.0}
_BIHARMONIC_GAMMA1 = {
    "synchrony": 2.0 * np.pi,
    "asynchrony": np.pi,
    "heteroclinic_cycles": 1.3,
    "partial_synchrony": 1.5,
}

STANDARD_REGIME_NAMES = tuple(_STANDARD_COUPLING)
BIHARMONIC_REGIME_NAMES = tuple(_BIHARMONIC_GAMMA1)


def standard_regime(name: str) -> RegimeSpec:
    """Standard Kuramoto regime: N=5, omega ~ Uniform(-1,1), K per regime."""
    if name not in _STANDARD_COUPLING:
        raise ValueError(
            f"unknown standard regime {name!r}; valid: {', '.join(STANDARD_REGIME_NAMES)}"
        )
    law = FrequencyLaw("multi_frequency") if name == "multi_frequency" else FrequencyLaw("uniform", -1.0, 1.0)
    return RegimeSpec(
        name=name,
        model_family="standard",
        n_oscillators=5,
        coupling=_STANDARD_COUPLING[name],
        frequency_law=law,
    )


def biharmonic_regime(name: str) -> RegimeSpec:
    """Bi-harmonic regime: N=10, omega ~ Cauchy(0, 0.01), K=1, gamma2=pi, a=0.2."""
    if name not in _BIHARMONIC_GAMMA1:
        raise ValueError(
            f"unknown bi-harmonic regime {name!r}; valid: {', '.join(BIHARMONIC_REGIME_NAMES)}"
        )
    return RegimeSpec(
        name=name,
        model_family="biharmonic",
        n_oscillators=10,
        coupling=1.0,
        frequency_law=FrequencyLaw("cauchy", 0.0, 0.01),
        gamma1=_BIHARMONIC_GAMMA1[name],
        gamma2=np.pi,
        second_harmonic_scale=0.2,
    )


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classical RK4 with optional substepping per output sample."""

    dt: float = 0.1
    substeps_per_sample: int = 10

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        check_count("substeps_per_sample", self.substeps_per_sample)


# ---------------------------------------------------------------------------
# Representation transforms


def phases_to_components(theta) -> np.ndarray:
    """(theta_1..theta_N) -> (x_1, y_1, ..., x_N, y_N) with x=cos, y=sin."""
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    out = np.empty(2 * theta.size)
    out[0::2] = np.cos(theta)
    out[1::2] = np.sin(theta)
    return out


def components_to_phases(c) -> np.ndarray:
    """Inverse projection via atan2; rejects undefined (0, 0) pairs."""
    x, y = _split_components(c)
    if np.any(np.hypot(x, y) <= 1e-12):
        raise ValueError("angle undefined: component pair at the origin")
    return np.arctan2(y, x)


def normalize_rows(c):
    """Rescale each (x_i, y_i) pair of an (S, 2N) batch to unit magnitude, row by row.

    Returns (out, ok): ok[s] is False where row s holds a non-finite entry
    or a pair at the origin, and such a row comes back unchanged.
    """
    c = np.asarray(c, dtype=float)
    x, y = _split_components(c)
    r = np.hypot(x, y)
    ok = np.isfinite(c).all(axis=-1) & (r > 1e-12).all(axis=-1)
    r[~ok] = 1.0
    out = np.empty_like(c)
    out[..., 0::2] = x / r
    out[..., 1::2] = y / r
    return out, ok


def _split_components(c):
    c = np.asarray(c, dtype=float)
    if c.ndim == 0 or c.shape[-1] == 0 or c.shape[-1] % 2 != 0:
        raise ValueError("component vector length must be even and positive")
    return c[..., 0::2], c[..., 1::2]


# ---------------------------------------------------------------------------
# Integration


class RK4Stepper:
    """Classical RK4 for the phase-component ODE, advancing its own state in place.

    The field is dx_i = -y_i*rate_i, dy_i = x_i*rate_i, with the pairwise
    terms evaluated from the components themselves (sin(theta_j - theta_i)
    = y_j x_i - x_j y_i, cos(theta_j - theta_i) = x_j x_i + y_j y_i), so it
    is a smooth polynomial extension off the unit-circle manifold.

    Built once per integration for `params`, a batch shape `lead` and a step
    h.  The state is planar: `state[0]` holds x and `state[1]` y, each of
    shape (*lead, N); `load` and `components` convert from and to the
    interleaved (*lead, 2N) layout.  Every buffer and view is made here, so a
    step allocates nothing.  `params` may be a RowParams (or a bi-harmonic
    model over one) whose omega and coupling broadcast against `lead`.

    A step performs the IEEE operations of the textbook form
    y + (h/6)(k1 + 2 k2 + 2 k3 + k4) in the same order, so a row is bitwise
    the same whatever batch it is part of:
    - the pairwise products come from one broadcast multiply (x_i y_j where
      the textbook has y_j x_i, which commutativity leaves exact) and are
      reduced over the contiguous last axis;
    - the sign of dx is folded into the rate, [-omega; omega] +
      [-K/N; K/N] * sum, which negation leaves exact;
    - an outer-axis reduce of [k1, 2 k2, 2 k3, k4] adds them in that order.
    Complex arithmetic is avoided on purpose: numpy's SIMD complex multiply
    may fuse into FMA and round differently by CPU.
    """

    def __init__(self, params, lead, h: float):
        lead = tuple(lead)
        n = params.n_oscillators
        self.params, self.lead, self.h = params, lead, h
        biharmonic = isinstance(params, BiHarmonicParams)
        base = params.base if biharmonic else params

        def signed(v):  # [-v; v], shaped to broadcast against (2, *lead, N)
            v = np.asarray(v, dtype=float)
            return np.stack([-v, v]).reshape((2,) + (1,) * (len(lead) + 1 - v.ndim) + v.shape)

        self._omega, self._gain = signed(base.omega), signed(base.coupling / n)
        # 0-d arrays: numpy converts a Python float operand on every call
        self._constants = tuple(map(np.array, (0.5 * h, h, h / 6.0, 2.0)))
        self.state = np.empty((2, *lead, n))
        self._stage = np.empty_like(self.state)
        self._k = np.empty((4, *self.state.shape))
        self._k_views = (*self._k, self._k[1:3])
        self._sums = np.empty((*lead, n))
        self._rate = np.empty_like(self.state)
        if biharmonic:
            # all four products at once: [[x_i x_j, x_i y_j], [y_i x_j, y_i y_j]]
            pairs = np.empty((2, 2, *lead, n, n))
            sc = np.empty((2, *lead, n, n))  # [s; c]
            self._pairs = (pairs, *pairs[0], *pairs[1], sc, *sc)
            self._harmonics = tuple(map(np.array, (
                np.cos(params.gamma1), np.sin(params.gamma1), np.cos(params.gamma2),
                np.sin(params.gamma2), params.second_harmonic_scale)))

            def operands(buf):
                return buf.reshape(2, 1, *lead, n, 1), buf.reshape(1, 2, *lead, 1, n)
        else:
            # [x_i; y_i] as columns times [y_j; x_j] as rows: [x_i y_j; y_i x_j]
            pairs = np.empty((2, *lead, n, n))
            self._pairs = (pairs, *pairs)
            self._harmonics = None

            def operands(buf):
                return buf[..., :, None], buf[::-1][..., None, :]
        # per input buffer (the state or the stage): the product operands and [y; x]
        self._inputs = tuple((*operands(buf), buf[::-1]) for buf in (self.state, self._stage))

    def load(self, u) -> None:
        """Set the state from interleaved (*lead, 2N) components."""
        u = np.asarray(u, dtype=float)
        if u.shape != self.lead + (2 * self.state.shape[-1],):
            raise ValueError(f"component state shape {u.shape} does not match "
                             f"{self.lead} rows of 2*{self.state.shape[-1]}")
        self.state[0] = u[..., 0::2]
        self.state[1] = u[..., 1::2]

    def components(self) -> np.ndarray:
        """A fresh interleaved (*lead, 2N) copy of the state."""
        out = np.empty(self.lead + (2 * self.state.shape[-1],))
        self.store(out)
        return out

    def store(self, out) -> None:
        """Write the state into an interleaved (*lead, 2N) array or view."""
        out[..., 0::2] = self.state[0]
        out[..., 1::2] = self.state[1]

    def normalize(self):
        """Rescale each (x_i, y_i) pair to unit length; flag rows that cannot be.

        Returns ok, of shape `lead`: False where a row holds a non-finite
        entry or a pair at the origin, and such a row is left unchanged.
        """
        state = self.state
        r = np.hypot(state[0], state[1])
        ok = np.isfinite(state).all(axis=(0, -1)) & (r > 1e-12).all(axis=-1)
        if not ok.all():
            r[~ok] = 1.0
        np.divide(state, r, out=state)
        return ok

    def _rhs(self, operands, out) -> None:
        """out = f(buffer), given the operands of a planar buffer (the state or the stage)."""
        col, row, swapped = operands
        pairs, harmonics = self._pairs, self._harmonics
        np.multiply(col, row, pairs[0])
        if harmonics is None:
            _, p0, p1 = pairs
            np.subtract(p0, p1, p0)  # s_ij = sin(theta_j - theta_i)
            coupled = p0
        else:
            # s cos g1 + c sin g1 + a2 ((2 s) c cos g2 + (c c - s s) sin g2)
            _, xx, xy, yx, yy, sc, s, c = pairs
            cos1, sin1, cos2, sin2, a2 = harmonics
            two = self._constants[3]
            coupled, t = yx, xx
            np.subtract(xy, yx, s)
            np.add(xx, yy, c)
            np.multiply(s, cos1, t)
            np.multiply(c, sin1, xy)
            np.add(t, xy, coupled)
            np.multiply(s, two, t)
            np.multiply(t, c, t)
            np.multiply(t, cos2, t)
            np.multiply(sc, sc, sc)
            np.subtract(c, s, c)
            np.multiply(c, sin2, c)
            np.add(t, c, t)
            np.multiply(t, a2, t)
            np.add(coupled, t, coupled)
        rate, sums = self._rate, self._sums
        np.add.reduce(coupled, -1, None, sums)
        np.multiply(self._gain, sums, rate)
        np.add(rate, self._omega, rate)
        np.multiply(swapped, rate, out)  # [y (-rate); x rate]

    def step(self) -> None:
        """Advance the state by one RK4 step of size h."""
        y, stage, k = self.state, self._stage, self._k
        k1, k2, k3, k4, k_mid = self._k_views
        half_h, h, sixth_h, two = self._constants
        on_state, on_stage = self._inputs
        rhs = self._rhs
        rhs(on_state, k1)
        np.multiply(k1, half_h, stage)
        np.add(y, stage, stage)
        rhs(on_stage, k2)
        np.multiply(k2, half_h, stage)
        np.add(y, stage, stage)
        rhs(on_stage, k3)
        np.multiply(k3, h, stage)
        np.add(y, stage, stage)
        rhs(on_stage, k4)
        np.multiply(k_mid, two, k_mid)
        np.add.reduce(k, 0, None, stage)
        np.multiply(stage, sixth_h, stage)
        np.add(y, stage, y)


def integrate_step(state, params, cfg: IntegratorConfig, duration: float) -> np.ndarray:
    """Integrate the component-form ODE for `duration` seconds.

    `state` is (2N,) or a (..., 2N) batch of rows.  The duration must be a
    whole number of substeps (cfg.dt / cfg.substeps).  A non-finite state
    raises NumericalBlowup with the 1-based number of the substep that
    produced it.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    h = cfg.dt / cfg.substeps_per_sample
    n = int(round(duration / h))
    if n < 1 or abs(n * h - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ValueError("duration must be an integer multiple of the substep")
    state = np.asarray(state, dtype=float)
    stepper = RK4Stepper(params, state.shape[:-1], h)
    stepper.load(state)
    for i in range(n):
        stepper.step()
        if not np.isfinite(stepper.state).all():
            raise NumericalBlowup(i + 1)
    return stepper.components()


# ---------------------------------------------------------------------------
# Sampling and trajectory generation


def sample_frequencies(regime: RegimeSpec, seed) -> np.ndarray:
    """Draw the N natural frequencies according to the regime's law."""
    rng = np.random.default_rng(seed)
    law = regime.frequency_law
    n = regime.n_oscillators
    if law.kind == "uniform":
        return rng.uniform(law.a, law.b, n)
    if law.kind == "cauchy":
        # inverse-CDF Cauchy draw: exact and consumes one uniform per sample
        u = rng.random(n)
        return law.a + law.b * np.tan(np.pi * (u - 0.5))
    # multi_frequency: four slow oscillators plus one fast, consumption order (w, z)
    omega = np.empty(n)
    omega[: n - 1] = rng.uniform(-1.0, 1.0, n - 1)
    w = rng.random()
    z = 1.0 if rng.random() < 0.5 else -1.0
    omega[n - 1] = z * (3.0 + w)
    return omega


def sample_initial_phases(n: int, seed) -> np.ndarray:
    """theta_i(0) ~ Uniform(-pi, pi) i.i.d."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.pi, np.pi, n)


def realize_regime(regime: RegimeSpec, seed):
    """Draw (params, theta0) for one realization; omega first, then theta0."""
    rng = np.random.default_rng(seed)
    omega = sample_frequencies(regime, rng)
    theta0 = sample_initial_phases(regime.n_oscillators, rng)
    base = KuramotoParams(omega=omega, coupling=regime.coupling)
    if regime.model_family == "standard":
        return base, theta0
    params = BiHarmonicParams(
        base=base,
        gamma1=regime.gamma1,
        gamma2=regime.gamma2,
        second_harmonic_scale=regime.second_harmonic_scale,
    )
    return params, theta0


def perturb_params(params, sigma_k: float, sigma_omega: float, seed):
    """Multiplicative Gaussian error: K <- (1+xi_K)K, omega_i <- (1+xi_i)omega_i.

    Draw order is fixed (xi_K, then the omega vector). Harmonic parameters
    of a bi-harmonic model are left untouched.
    """
    if sigma_k < 0 or sigma_omega < 0:
        raise ValueError("error standard deviations must be non-negative")
    rng = np.random.default_rng(seed)
    base = params.base if isinstance(params, BiHarmonicParams) else params
    coupling = base.coupling * (1.0 + rng.normal(0.0, sigma_k))
    omega = base.omega * (1.0 + rng.normal(0.0, sigma_omega, base.n_oscillators))
    new_base = KuramotoParams(omega=omega, coupling=coupling)
    if isinstance(params, BiHarmonicParams):
        return replace(params, base=new_base)
    return new_base


def _integrate(params, state, cfg: IntegratorConfig, n_steps: int):
    """The ground-truth integration loop, for one record or a batch of rows.

    `state` is one (2N,) record with scalar `params`, or an (S, 2N) batch
    with RowParams.  Returns (samples, failed): samples is (..., 2N,
    n_steps + 1), every stored sample renormalized to the per-oscillator
    unit circle, and failed holds 0 for a row that finished or the sample k
    at which the row went non-finite (or collapsed a pair to the origin).
    A failed row is left to itself: rows never mix, so the others stay
    bitwise what they would be alone.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    out = np.empty(state.shape + (n_steps + 1,))
    out[..., 0] = state
    failed = np.zeros(state.shape[:-1], dtype=int)
    stepper = RK4Stepper(params, state.shape[:-1], cfg.dt / cfg.substeps_per_sample)
    stepper.load(state)
    # the finiteness check below catches every overflow, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            for _ in range(cfg.substeps_per_sample):
                stepper.step()
            ok = stepper.normalize()
            if not ok.all():
                failed[(failed == 0) & ~ok] = k
                if failed.all():
                    break
            stepper.store(out[..., k])
    return out, failed


def simulate(params, theta0, cfg: IntegratorConfig, n_steps: int) -> np.ndarray:
    """Integrate in component form; returns a 2N x (n_steps+1) sample matrix.

    Each stored sample is renormalized to the per-oscillator unit circle so
    long records cannot drift off the manifold.  Raises NumericalBlowup(k)
    if the state goes non-finite by sample k.
    """
    out, failed = _integrate(params, phases_to_components(theta0), cfg, n_steps)
    if failed:
        raise NumericalBlowup(int(failed))
    return out


def simulate_batch(params, theta0s, cfg: IntegratorConfig, n_steps: int):
    """`simulate` for S records of one regime, integrated together as (S, 2N) rows.

    `params` and `theta0s` hold one KuramotoParams or BiHarmonicParams and
    one phase vector per record; the records may differ only in omega.
    Returns (records, failed): records[s] is bitwise what simulate returns
    for record s, and failed[s] is 0, or the k of the NumericalBlowup(k)
    that simulate raises for it (records[s] is then undefined).  One record
    keeps simulate's 1-d state and scalar parameters, which are faster.
    """
    if len(params) != len(theta0s) or not params:
        raise ValueError("need one initial phase vector per parameter set")
    if len(params) == 1:
        out, failed = _integrate(params[0], phases_to_components(theta0s[0]), cfg, n_steps)
        return out[None], failed[None]
    state = np.stack([phases_to_components(t) for t in theta0s])
    return _integrate(_row_params(params), state, cfg, n_steps)


def _row_params(params):
    """One RowParams (under the shared harmonics, if bi-harmonic) for a record list."""
    harmonics = {(p.gamma1, p.gamma2, p.second_harmonic_scale)
                 if isinstance(p, BiHarmonicParams) else None for p in params}
    bases = [p.base if isinstance(p, BiHarmonicParams) else p for p in params]
    if len(harmonics) != 1 or len({b.coupling for b in bases}) != 1:
        raise ValueError("batched records may differ only in their natural frequencies")
    rows = RowParams(omega=np.stack([b.omega for b in bases]), coupling=bases[0].coupling)
    return rows if harmonics == {None} else replace(params[0], base=rows)


def generate_trajectory(regime: RegimeSpec, cfg: IntegratorConfig, n_steps: int, seed) -> np.ndarray:
    """Sample a realization of the regime and integrate it for n_steps samples."""
    params, theta0 = realize_regime(regime, seed)
    return simulate(params, theta0, cfg, n_steps)
