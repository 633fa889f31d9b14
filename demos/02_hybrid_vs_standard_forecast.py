"""Train a standard and a hybrid reservoir on the same trajectory and compare.

The hybrid reservoir embeds a deliberately mis-parameterized Kuramoto model
(5% multiplicative error on K and every omega_i) and still forecasts far
beyond the standard reservoir's horizon: the expert supplies the phase-
velocity structure, the reservoir corrects the residual.

Run:  python3 demos/02_hybrid_vs_standard_forecast.py
"""

import numpy as np

from hybrid_esn.dynamics import (
    IntegratorConfig,
    perturb_params,
    realize_regime,
    simulate,
    standard_regime,
)
from hybrid_esn.evaluation import ForecastResult, mean_nmse, valid_time
from hybrid_esn.hybrid import ExpertModel
from hybrid_esn.reservoir import (
    ReservoirConfig,
    build_matrices,
    collect_states,
    forecast,
    train_readout,
)

regime = standard_regime("synchrony")
params, theta0 = realize_regime(regime, seed=2)
record = simulate(params, theta0, IntegratorConfig(), 2600)

training = record[:, :1001]          # 1000 transitions
warmup = record[:, 1500:1600]        # sync the reservoir to the attractor
test = record[:, 1600:2600]          # 100 s forecast target
cfg = ReservoirConfig()

for kind in ("standard", "hybrid"):
    hybrid = kind == "hybrid"
    m = build_matrices(cfg, 10, hybrid, internal_seed=3, input_seed=4)
    expert = None
    if hybrid:
        wrong = perturb_params(params, 0.05, 0.05, seed=5)
        expert = ExpertModel(params=wrong)
    features, targets = collect_states(training, m, expert=expert)
    readout = train_readout(features, targets, cfg.regularization)
    preds = forecast(warmup, test.shape[1], m, readout, expert=expert)
    fr = ForecastResult(prediction=preds, truth=test, dt=0.1)
    print(f"{kind:8s}  mean NMSE = {mean_nmse(fr):8.5f}   "
          f"valid time = {valid_time(fr):6.1f} s of {test.shape[1] * 0.1:.0f} s")

# the bare expert alone, for reference: integrate the wrong model forward
wrong = perturb_params(params, 0.05, 0.05, seed=5)
expert = ExpertModel(params=wrong)
u = test[:, 0]
preds = np.empty((10, test.shape[1] - 1))
for k in range(preds.shape[1]):
    u = expert.step(u)
    preds[:, k] = u
fr = ForecastResult(prediction=preds, truth=test[:, 1:], dt=0.1)
print(f"{'ode only':8s}  mean NMSE = {mean_nmse(fr):8.5f}   "
      f"valid time = {valid_time(fr):6.1f} s")
