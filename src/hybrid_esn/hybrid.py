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

from .dynamics import KuramotoParams, RK4Stepper
from .reservoir import ReservoirMatrices

__all__ = ["ExpertModel", "Instantiation"]


@dataclass
class ExpertModel:
    """One-step integrator of the (perturbed) Kuramoto model in component form.

    States are (2N,) or a (..., 2N) batch of rows.  The RK4 stepper built for
    the last input shape is kept for the next call, so one expert must not be
    stepped from two threads at once.  The program runs on one thread, so
    it never is.
    """

    params: KuramotoParams  # omega (N,), or (S, N) for one set per row
    dt: float = 0.1
    _stepper: RK4Stepper | None = field(default=None, init=False, repr=False, compare=False)

    def _advance(self, u, keep=True):
        """One normalized RK4 step of the rows of u: (stepper, ok) as `RK4Stepper.normalize`."""
        u = np.asarray(u, float)
        stepper = self._stepper
        if (stepper is None or stepper.lead != u.shape[:-1] or stepper.params is not self.params
                or stepper.h != self.dt):
            stepper = RK4Stepper(self.params, u.shape[:-1], self.dt)
            if keep:
                self._stepper = stepper
        stepper.load(u)
        # an overflowing expert is flagged by the callers, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            stepper.step()
            return stepper, stepper.normalize()

    def step(self, u: np.ndarray) -> np.ndarray:
        """Single RK4 step of size dt, renormalized to the unit circle."""
        stepper, ok = self._advance(u)
        if not ok.all():
            if not np.isfinite(stepper.state).all():
                raise FloatingPointError("expert integration produced a non-finite state")
            raise ValueError("cannot normalize: component pair at the origin")
        return stepper.components()

    def step_rows(self, u: np.ndarray, keep: bool = True):
        """`step` for a (..., 2N) batch that flags failed rows instead of raising.

        Returns (rows, ok) as `normalize_rows` does.  keep=False is for a
        batch stepped once, such as teacher-forced inputs: its stepper, whose
        buffers grow with the rows, is then not kept.
        """
        stepper, ok = self._advance(u, keep)
        return stepper.components(), ok


@dataclass(frozen=True)
class Instantiation:
    """One trained model: fixed matrices and ridge readout, with or without the expert.

    Matrices and readout are both set or both None; None is the bare-ODE
    arm, which needs an expert.  With an expert the reservoir input is
    [u_tilde; u] and the readout features [u_tilde; g(r)], so d_in = 2 D_u
    and C is D_u x (d_r + D_u); without one d_in = D_u and C is D_u x d_r.
    """

    matrices: ReservoirMatrices | None = None
    readout: np.ndarray | None = None  # C
    expert: ExpertModel | None = None

    def __post_init__(self):
        if (self.matrices is None) != (self.readout is None):
            raise ValueError("matrices and readout must be both set or both None")
        if self.matrices is None:
            if self.expert is None:
                raise ValueError("a model without a reservoir needs an expert")
            return
        d_u = self.readout.shape[0]
        expert_dim = d_u if self.expert is not None else 0
        if self.matrices.d_in != d_u + expert_dim:
            raise ValueError(f"input matrix has {self.matrices.d_in} columns; "
                             f"expected {d_u + expert_dim}")
        if self.readout.shape != (d_u, self.matrices.d_r + expert_dim):
            raise ValueError(f"readout shape {self.readout.shape} does not match the "
                             f"feature dimension {self.matrices.d_r + expert_dim}")
