"""Hybrid reservoir: an ESN coupled to an expert Kuramoto ODE model.

The expert produces a one-RK4-step next-state prediction u_tilde from the
current state.  That prediction is concatenated ahead of the state on the
way into the reservoir, and ahead of the transformed reservoir state on
the way into the readout, so the trained C can weigh the physics-based
prediction directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    KuramotoParams,
    RowParams,
    component_rhs,
    normalize_components,
    normalize_rows,
    rk4_step,
)
from .reservoir import (
    Readout,
    ReservoirConfig,
    ReservoirMatrices,
    collect_states,
    forecast,
    nonlinear_transform,
    train_readout,
)

__all__ = [
    "ExpertModel",
    "RowParams",
    "stack_experts",
    "HybridReservoir",
    "expert_step",
    "hybrid_input",
    "hybrid_features",
    "hybrid_train",
    "hybrid_forecast",
]


@dataclass
class ExpertModel:
    """One-step integrator of the (perturbed) Kuramoto model in component form.

    States are (2N,) or an (S, 2N) batch of rows.  `calls` counts the rows
    integrated; tests use it to pin the one-step-per-sample cost model.
    """

    params: object  # KuramotoParams | BiHarmonicParams | RowParams
    dt: float = 0.1
    calls: int = field(default=0, compare=False)

    def _integrate(self, u) -> np.ndarray:
        u = np.asarray(u, float)
        self.calls += u.size // u.shape[-1]
        # an overflowing expert is flagged by the callers, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            return rk4_step(lambda v: component_rhs(v, self.params), u, self.dt)

    def step(self, u: np.ndarray) -> np.ndarray:
        """Single RK4 step of size dt, renormalized to the unit circle."""
        out = self._integrate(u)
        if not np.all(np.isfinite(out)):
            raise FloatingPointError("expert integration produced a non-finite state")
        return normalize_components(out)

    def step_rows(self, u: np.ndarray):
        """`step` for an (S, 2N) batch that flags failed rows instead of raising.

        Returns (rows, ok) as `normalize_rows` does.
        """
        return normalize_rows(self._integrate(u))


def stack_experts(experts, repeats: int) -> ExpertModel:
    """One expert whose rows k*repeats .. (k+1)*repeats - 1 follow experts[k].

    The experts must share dt and hold plain KuramotoParams.
    """
    if len({e.dt for e in experts}) != 1:
        raise ValueError("stacked experts must share one step size")
    if not all(isinstance(e.params, KuramotoParams) for e in experts):
        raise ValueError("only Kuramoto experts can be stacked")
    omega = np.repeat(np.stack([e.params.omega for e in experts]), repeats, axis=0)
    coupling = np.repeat([[e.params.coupling] for e in experts], repeats, axis=0)
    return ExpertModel(params=RowParams(omega=omega, coupling=coupling), dt=experts[0].dt)


@dataclass(frozen=True)
class HybridReservoir:
    """A trained hybrid RC: expert model, fixed matrices, and readout."""

    expert: ExpertModel
    matrices: ReservoirMatrices
    readout: Readout
    config: ReservoirConfig

    def __post_init__(self):
        d_u = self.matrices.d_in // 2
        if self.matrices.d_in != 2 * d_u:
            raise ValueError("hybrid input matrix must have an even column count")
        if self.readout.weights.shape != (d_u, self.matrices.d_r + d_u):
            raise ValueError("readout shape does not match hybrid feature dimension")


def expert_step(u, expert: ExpertModel) -> np.ndarray:
    """Free-function form of ExpertModel.step."""
    return expert.step(u)


def hybrid_input(u, expert: ExpertModel) -> np.ndarray:
    """Reservoir input [u_tilde_{t+1}; u_t], expert block first."""
    u = np.asarray(u, dtype=float)
    return np.concatenate([expert.step(u), u])


def hybrid_features(r_next: np.ndarray, u_tilde: np.ndarray) -> np.ndarray:
    """Readout features [u_tilde_{t+1}; g(r_{t+1})]; g never touches the expert block."""
    return np.concatenate([np.asarray(u_tilde, float), nonlinear_transform(r_next)])


def hybrid_train(training: np.ndarray, m: ReservoirMatrices, cfg: ReservoirConfig,
                 expert: ExpertModel) -> Readout:
    """Collect expert-augmented states over a training span and fit the readout."""
    history, targets = collect_states(training, m, cfg, expert=expert)
    return train_readout(history, targets, cfg.regularization)


def hybrid_forecast(warmup: np.ndarray, horizon: int, model: HybridReservoir) -> np.ndarray:
    """Autoregressive forecast with the expert in the loop."""
    return forecast(warmup, horizon, model.matrices, model.readout, model.config,
                    expert=model.expert)
