"""Kuramoto-family oscillator networks in phase and phase-component form.

The ground-truth systems, and the expert model embedded in the hybrid
reservoir, are all-to-all coupled phase oscillator networks.  Oscillator
phases theta_i live on the circle; the reservoirs instead consume the
continuous (x_i, y_i) = (cos theta_i, sin theta_i) "phase components",
so most integration here happens in component form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "NumericalBlowup",
    "KuramotoParams",
    "BiHarmonicParams",
    "FrequencyLaw",
    "RegimeSpec",
    "IntegratorConfig",
    "standard_regime",
    "biharmonic_regime",
    "wrap_phases",
    "phases_to_components",
    "components_to_phases",
    "normalize_components",
    "normalize_rows",
    "kuramoto_rhs",
    "biharmonic_rhs",
    "component_rhs",
    "rk4_step",
    "integrate_step",
    "sample_frequencies",
    "sample_initial_phases",
    "realize_regime",
    "perturb_params",
    "simulate",
    "generate_trajectory",
]


class NumericalBlowup(RuntimeError):
    """Integration produced a non-finite state."""

    def __init__(self, step: int):
        super().__init__(f"non-finite state encountered at integration step {step}")
        self.step = step


def wrap_phases(theta):
    """Wrap angles to [-pi, pi)."""
    return np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


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
class BiHarmonicParams:
    """Kuramoto coupling with phase shifts and a scaled second harmonic.

    Reduces to the plain model when gamma1 = 0 and second_harmonic_scale = 0.
    """

    base: KuramotoParams
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
        if self.substeps_per_sample < 1:
            raise ValueError("substeps_per_sample must be >= 1")


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


def normalize_components(c) -> np.ndarray:
    """Rescale each (x_i, y_i) pair to unit magnitude, preserving direction.

    Pairs run along the last axis, so a (..., 2N) batch of states is
    normalized row by row.
    """
    c = np.asarray(c, dtype=float)
    x, y = _split_components(c)
    r = np.hypot(x, y)
    if np.any(r <= 1e-12):
        raise ValueError("cannot normalize: component pair at the origin")
    out = np.empty_like(c)
    out[..., 0::2] = x / r
    out[..., 1::2] = y / r
    return out


def normalize_rows(c):
    """normalize_components for an (S, 2N) batch that flags bad rows instead of raising.

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
# Right-hand sides


def _check_phase_state(theta, n):
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.size != n:
        raise ValueError(f"state length {theta.size} != {n} oscillators")
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite phase state")
    return theta


def kuramoto_rhs(theta, params: KuramotoParams) -> np.ndarray:
    """dtheta_i/dt = omega_i + (K/N) sum_j sin(theta_j - theta_i)."""
    theta = _check_phase_state(theta, params.n_oscillators)
    diff = theta[None, :] - theta[:, None]  # diff[i, j] = theta_j - theta_i
    n = params.n_oscillators
    return params.omega + (params.coupling / n) * np.sin(diff).sum(axis=1)


def biharmonic_rhs(theta, params: BiHarmonicParams) -> np.ndarray:
    """Kuramoto rate with shifted first harmonic plus scaled second harmonic."""
    theta = _check_phase_state(theta, params.n_oscillators)
    base = params.base
    diff = theta[None, :] - theta[:, None]
    coupling = np.sin(diff + params.gamma1)
    coupling += params.second_harmonic_scale * np.sin(2.0 * diff + params.gamma2)
    n = params.n_oscillators
    return base.omega + (base.coupling / n) * coupling.sum(axis=1)


def component_rhs(state, params) -> np.ndarray:
    """Phase-component image of the oscillator ODE: dx = -y*rate, dy = x*rate.

    The pairwise sin/cos terms are evaluated from the components themselves
    (sin(theta_j - theta_i) = y_j x_i - x_j y_i, etc.), so the field is a
    smooth polynomial extension off the unit-circle manifold.

    `state` is (..., 2N) with any leading batch axes; every reduction runs
    over the contiguous last axis, so each row is bitwise equal to the 1-d
    call.  `params.omega` may be (N,) or carry the batch axes, (S, N), with
    `params.coupling` then (S, 1): one parameter set per row.
    """
    state = np.asarray(state, dtype=float)
    if state.ndim == 0 or state.shape[-1] != 2 * params.n_oscillators:
        raise ValueError(
            f"component state shape {state.shape} does not end in 2*{params.n_oscillators}"
        )
    x = state[..., 0::2]
    y = state[..., 1::2]
    xi, yi = x[..., None], y[..., None]
    xj, yj = x[..., None, :], y[..., None, :]
    # s[i, j] = sin(theta_j - theta_i), c[i, j] = cos(theta_j - theta_i)
    s = yj * xi - xj * yi
    if isinstance(params, BiHarmonicParams):
        c = xj * xi + yj * yi
        pair = s * np.cos(params.gamma1) + c * np.sin(params.gamma1)
        pair += params.second_harmonic_scale * (
            2.0 * s * c * np.cos(params.gamma2) + (c * c - s * s) * np.sin(params.gamma2)
        )
        base = params.base
    else:
        pair = s
        base = params
    n = params.n_oscillators
    rate = base.omega + (base.coupling / n) * np.add.reduce(pair, axis=-1)
    out = np.empty_like(state)
    out[..., 0::2] = -y * rate
    out[..., 1::2] = x * rate
    return out


# ---------------------------------------------------------------------------
# Integration


def rk4_step(f, y, h):
    """One classical 4th-order Runge-Kutta step of size h for y' = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_step(state, params, cfg: IntegratorConfig, duration: float) -> np.ndarray:
    """Integrate the component-form ODE for `duration` seconds.

    The duration must be a whole number of substeps (cfg.dt / cfg.substeps).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    h = cfg.dt / cfg.substeps_per_sample
    n = int(round(duration / h))
    if n < 1 or abs(n * h - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ValueError("duration must be an integer multiple of the substep")
    y = np.asarray(state, dtype=float)
    f = lambda v: component_rhs(v, params)
    for i in range(n):
        y = rk4_step(f, y, h)
        if not np.all(np.isfinite(y)):
            raise NumericalBlowup(i)
    return y


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


def simulate(params, theta0, cfg: IntegratorConfig, n_steps: int) -> np.ndarray:
    """Integrate in component form; returns a 2N x (n_steps+1) sample matrix.

    Each stored sample is renormalized to the per-oscillator unit circle so
    long records cannot drift off the manifold.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    state = phases_to_components(theta0)
    out = np.empty((state.size, n_steps + 1))
    out[:, 0] = state
    h = cfg.dt / cfg.substeps_per_sample
    f = lambda v: component_rhs(v, params)
    for k in range(1, n_steps + 1):
        for _ in range(cfg.substeps_per_sample):
            state = rk4_step(f, state, h)
        if not np.all(np.isfinite(state)):
            raise NumericalBlowup(k)
        state = normalize_components(state)
        out[:, k] = state
    return out


def generate_trajectory(regime: RegimeSpec, cfg: IntegratorConfig, n_steps: int, seed) -> np.ndarray:
    """Sample a realization of the regime and integrate it for n_steps samples."""
    params, theta0 = realize_regime(regime, seed)
    return simulate(params, theta0, cfg, n_steps)
