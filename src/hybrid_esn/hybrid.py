"""Hybrid reservoir: an ESN coupled to an expert Kuramoto ODE model.

The expert produces a one-RK4-step next-state prediction u_tilde from the
current state.  That prediction is concatenated ahead of the state on the
way into the reservoir, and ahead of the transformed reservoir state on
the way into the readout, so the trained C can weigh the physics-based
prediction directly.  An `Instantiation` is one trained model of any arm.
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
from .reservoir import Readout, ReservoirMatrices

__all__ = ["ExpertModel", "RowParams", "stack_experts", "Instantiation"]


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
class Instantiation:
    """One trained model: fixed matrices and ridge readout, with or without the expert.

    Matrices and readout are both set or both None; None is the bare-ODE
    arm, which needs an expert.  With an expert the reservoir input is
    [u_tilde; u] and the readout features [u_tilde; g(r)], so d_in = 2 D_u
    and C is D_u x (d_r + D_u); without one d_in = D_u and C is D_u x d_r.
    """

    matrices: ReservoirMatrices | None = None
    readout: Readout | None = None
    expert: ExpertModel | None = None

    def __post_init__(self):
        if (self.matrices is None) != (self.readout is None):
            raise ValueError("matrices and readout must be both set or both None")
        if self.matrices is None:
            if self.expert is None:
                raise ValueError("a model without a reservoir needs an expert")
            return
        d_u = self.readout.weights.shape[0]
        expert_dim = d_u if self.expert is not None else 0
        if self.matrices.d_in != d_u + expert_dim:
            raise ValueError(f"input matrix has {self.matrices.d_in} columns; "
                             f"expected {d_u + expert_dim}")
        if self.readout.weights.shape != (d_u, self.matrices.d_r + expert_dim):
            raise ValueError(f"readout shape {self.readout.weights.shape} does not match the "
                             f"feature dimension {self.matrices.d_r + expert_dim}")
