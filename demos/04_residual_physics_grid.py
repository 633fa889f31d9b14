"""Grid search under residual physics: the expert model is missing a harmonic.

Here the ground truth is the bi-harmonic Kuramoto model but the hybrid's
expert is the plain one-harmonic model, so no parameter setting can make the
expert exact.  We run the 8-corner grid over (regularization, spectral
radius, input scaling) on the heteroclinic-cycles regime at reduced scale
and print each arm's best corner.

Run:  python3 demos/04_residual_physics_grid.py
"""

from collections import defaultdict

from hybrid_esn.evaluation import SpanLayout
from hybrid_esn.experiments import Baselines, RunManifest, run_grid_search

layout = SpanLayout(training=600, train_test_gap=200, warmup=50, test=400,
                    test_test_gap=50, n_tests=2)
manifest = RunManifest(task="residual_physics", regimes=("heteroclinic_cycles",),
                       n_instantiations=2, n_realizations=1, layout=layout,
                       master_seed=0)

per_point, summary, errors = run_grid_search(
    manifest, Baselines(), threads=4, on_point=lambda key, records, status: print(status))
assert not errors

best = defaultdict(lambda: (None, -1.0))
print()
print(f"{'corner':>6s} {'model':>9s} {'mean valid t':>13s} {'max valid t':>12s}")
for row in summary:
    label = row.param_name.removeprefix("grid_")
    print(f"{label:>6s} {row.model:>9s} {row.valid_time_mean:13.2f} "
          f"{row.valid_time_max:12.2f}")
    if row.valid_time_max > best[row.model][1]:
        best[row.model] = (label, row.valid_time_max)

print()
for model, (label, vt) in sorted(best.items()):
    print(f"{model}: best corner {label} with max valid time {vt:.2f} s")
