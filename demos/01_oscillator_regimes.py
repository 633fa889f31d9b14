"""Simulate the oscillator regimes and look at their collective behavior.

Each regime is integrated from a random initial condition; we print the
Kuramoto order parameter R = |mean_j exp(i theta_j)| averaged over the second
half of the run.  R ~ 1 means full synchrony, intermediate values partial
synchrony, small values incoherence.

Run:  python3 demos/01_oscillator_regimes.py
"""

import numpy as np

from hybrid_esn.dynamics import (
    BIHARMONIC_REGIME_NAMES,
    STANDARD_REGIME_NAMES,
    IntegratorConfig,
    biharmonic_regime,
    components_to_phases,
    realize_regime,
    simulate,
    standard_regime,
)


def order_parameter(trajectory):
    """Kuramoto order parameter per sample, from component-form states."""
    x, y = trajectory[0::2], trajectory[1::2]
    return np.hypot(x.mean(axis=0), y.mean(axis=0))


def describe(regime, n_steps=2000, seed=0):
    traj = simulate(*realize_regime(regime, seed), IntegratorConfig(), n_steps)
    r = order_parameter(traj)[n_steps // 2 :]
    theta_end = components_to_phases(traj[:, -1])
    print(f"  {regime.name:20s} K={regime.coupling:3.1f}  "
          f"<R>={r.mean():.3f}  std(R)={r.std():.3f}  "
          f"final phases: {np.round(np.sort(theta_end), 2)}")


print("Standard Kuramoto (5 oscillators, omega ~ Uniform(-1, 1)):")
for name in STANDARD_REGIME_NAMES:
    describe(standard_regime(name))

print()
print("Bi-harmonic Kuramoto (10 oscillators, omega ~ Cauchy(0, 0.01)):")
for name in BIHARMONIC_REGIME_NAMES:
    describe(biharmonic_regime(name))
