"""Reference integrators and transforms that the tests compare the program against.

The phase-form right-hand sides are the oscillator models as the paper
states them, each read from one `dynamics.KuramotoParams`.
`component_rhs` and `rk4_step` are the straightforward component-form
field and RK4 step (one numpy expression per term, arrays allocated as
they go); `component_rhs` takes the bi-harmonic field where
`params.biharmonic` holds, as the program does, and `dynamics.RK4Stepper`
must equal them bit for bit.
`integrate_step` runs that stepper for a whole duration, substep by
substep.  `update_state` and `nonlinear_transform` are the one-state
reservoir step r' = tanh(A r + B u) and feature map g as the paper states
them; `reservoir.ReservoirStack` and the features of `collect_states` must
equal them bit for bit.  `normalize_components` is the raising one-state
renormalization that the reference forecast loops apply, and `wrap_phases`
maps phase-form results onto the circle.  `svd_ridge` is the ridge readout
through a singular value decomposition of the features, which is backward
stable whichever Gram matrix the program factors; `cholesky_ridge` is the
ridge readout through a copying Cholesky factorization of the same Gram
matrix as the program's, which `reservoir.train_readout` must equal bit
for bit.  `count_expert_rows` is a spy that counts the rows every expert
integrates, to pin the one-step-per-sample cost model.
`read_trajectory_csv` reads back what `io.write_trajectory_csv` writes.
"""

from contextlib import contextmanager

import numpy as np
import scipy.linalg

from hybrid_esn.dynamics import (
    IntegratorConfig,
    KuramotoParams,
    NumericalBlowup,
    RK4Stepper,
    _split_components,
)
from hybrid_esn.hybrid import ExpertModel
from hybrid_esn.reservoir import ReservoirMatrices


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


def svd_ridge(phi, y, beta) -> np.ndarray:
    """C = Y Phi^T (Phi Phi^T + beta I)^-1 as Y V diag(s / (s^2 + beta)) U^T, Phi = U S V^T."""
    u, s, vt = np.linalg.svd(phi, full_matrices=False)
    return ((y @ vt.T) * (s / (s * s + beta))) @ u.T


def cholesky_ridge(phi, y, beta) -> np.ndarray:
    """C = Y Phi^T (Phi Phi^T + beta I)^-1 through a copying `cho_factor` of the smaller Gram matrix.

    With more features than samples the n_T x n_T Gram matrix Phi^T Phi is
    solved for, as the program does.  The Gram matrix's lower triangle, the
    one that the program's in-place factorization reads, is mirrored onto
    its upper one before the copy is factored.
    """
    dual = phi.shape[0] > phi.shape[1]
    a = phi.T if dual else phi
    gram = np.tril(a @ a.T)
    gram += np.tril(gram, -1).T
    gram[np.diag_indices_from(gram)] += beta
    solved = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram),
                                    y.T if dual else phi @ y.T)
    return (phi @ solved).T if dual else solved.T


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


def biharmonic_rhs(theta, params: KuramotoParams) -> np.ndarray:
    """Kuramoto rate with shifted first harmonic plus scaled second harmonic."""
    theta = _check_phase_state(theta, params.n_oscillators)
    diff = theta[None, :] - theta[:, None]
    coupling = np.sin(diff + params.gamma1)
    coupling += params.second_harmonic_scale * np.sin(2.0 * diff + params.gamma2)
    n = params.n_oscillators
    return params.omega + (params.coupling / n) * coupling.sum(axis=1)


def component_rhs(state, params) -> np.ndarray:
    """Phase-component image of the oscillator ODE: dx = -y*rate, dy = x*rate.

    `state` is (..., 2N) with any leading batch axes; `params` may hold one
    omega per row, (S, N).  A model whose `biharmonic` is False runs the
    plain Kuramoto field.
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
    if params.biharmonic:
        c = xj * xi + yj * yi
        pair = s * np.cos(params.gamma1) + c * np.sin(params.gamma1)
        pair += params.second_harmonic_scale * (
            2.0 * s * c * np.cos(params.gamma2) + (c * c - s * s) * np.sin(params.gamma2)
        )
    else:
        pair = s
    n = params.n_oscillators
    rate = params.omega + (params.coupling / n) * np.add.reduce(pair, axis=-1)
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


def update_state(r: np.ndarray, u: np.ndarray, m: ReservoirMatrices) -> np.ndarray:
    """r' = tanh(A r + B u)."""
    if r.shape[0] != m.d_r or u.shape[0] != m.d_in:
        raise ValueError("state/input dimensions do not match the matrices")
    return np.tanh(m.internal @ r + m.input @ u)


def nonlinear_transform(r: np.ndarray) -> np.ndarray:
    """Odd (1-based) entries pass through; even entries are squared."""
    out = np.array(r, dtype=float, copy=True)
    out[1::2] **= 2
    return out


@contextmanager
def count_expert_rows():
    """Count the rows that every `ExpertModel` integrates inside the block.

    `ExpertModel.step` goes through `step_rows`, so wrapping that one method
    on the class counts both, whichever copy of an expert steps.  Yields a
    one-item list.
    """
    rows = [0]
    step_rows = ExpertModel.step_rows

    def counted(self, u):
        rows[0] += np.size(u) // np.shape(u)[-1]
        return step_rows(self, u)

    ExpertModel.step_rows = counted
    try:
        yield rows
    finally:
        ExpertModel.step_rows = step_rows


def read_trajectory_csv(path):
    """Returns (trajectory D_u x n_samples, dt)."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    if data.ndim == 1:
        data = data[None, :]
    t = data[:, 0]
    dt = float(t[1] - t[0]) if t.size > 1 else 0.0
    return data[:, 1:].T, dt
