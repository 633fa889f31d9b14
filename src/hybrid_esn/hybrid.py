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
    it never is.  Its buffers grow with the rows, so a caller that steps a
    large batch once, as `collect_states` does, steps a copy of the expert.
    """

    params: KuramotoParams  # omega (N,), or (S, N) for one set per row
    dt: float = 0.1
    _stepper: RK4Stepper | None = field(default=None, init=False, repr=False, compare=False)

    def step_rows(self, u: np.ndarray):
        """One RK4 step of size dt of u's rows, renormalized, flagging failed rows.

        Returns (rows, ok) as `normalize_rows` does, for a (2N,) state or a
        (..., 2N) batch.
        """
        u = np.asarray(u, float)
        stepper = self._stepper
        if (stepper is None or stepper.lead != u.shape[:-1] or stepper.params is not self.params
                or stepper.h != self.dt):
            stepper = self._stepper = RK4Stepper(self.params, u.shape[:-1], self.dt)
        stepper.load(u)
        # an overflowing expert is flagged by the callers, not warned about
        with np.errstate(over="ignore", invalid="ignore"):
            stepper.step()
            ok = stepper.normalize()
        return stepper.components(), ok

    def step(self, u: np.ndarray) -> np.ndarray:
        """`step_rows`, raising where it flags a row instead of returning the flags."""
        rows, ok = self.step_rows(u)
        if not ok.all():
            if not np.isfinite(rows).all():
                raise FloatingPointError("expert integration produced a non-finite state")
            raise ValueError("cannot normalize: component pair at the origin")
        return rows


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
