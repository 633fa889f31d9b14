"""Reference integrators and transforms that the tests compare the program against.

The phase-form right-hand sides are the oscillator models as the paper
states them.  `component_rhs` and `rk4_step` are the straightforward
component-form field and RK4 step (one numpy expression per term, arrays
allocated as they go); `dynamics.RK4Stepper` must equal them bit for bit.
`normalize_components` is the raising one-state renormalization that the
reference forecast loops apply, and `wrap_phases` maps phase-form results
onto the circle.
"""

import numpy as np

from hybrid_esn.dynamics import BiHarmonicParams, KuramotoParams, _split_components


def wrap_phases(theta):
    """Wrap angles to [-pi, pi)."""
    return np.mod(np.asarray(theta, dtype=float) + np.pi, 2.0 * np.pi) - np.pi


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

    `state` is (..., 2N) with any leading batch axes; `params` (or its
    bi-harmonic base) may be a RowParams, with one omega per row.
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


def rk4_step(f, y, h):
    """One classical 4th-order Runge-Kutta step of size h for y' = f(y)."""
    k1 = f(y)
    k2 = f(y + 0.5 * h * k1)
    k3 = f(y + 0.5 * h * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
