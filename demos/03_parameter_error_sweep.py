"""Sweep the expert's parameter-error level and plot the three model arms.

As sigma grows the bare ODE degrades quickly; the hybrid reservoir holds on
much longer because the trained readout compensates systematic expert bias.
A reduced-scale sweep (2 instantiations, short spans) keeps this demo fast;
the experiment CLI runs the full-scale version from a JSON config.

Run:  python3 demos/03_parameter_error_sweep.py   (writes demo_sweep/*.svg)
"""

from pathlib import Path

from hybrid_esn.evaluation import SpanLayout
from hybrid_esn.experiments import Baselines, RunManifest, SweepSpec, run_sweep
from hybrid_esn.report import render_sweep_svg, write_summary_csv

layout = SpanLayout(training=600, train_test_gap=200, warmup=50, test=400,
                    test_test_gap=50, n_tests=2)
manifest = RunManifest(task="parameter_error", regimes=("synchrony",),
                       n_instantiations=2, n_realizations=1, layout=layout,
                       master_seed=1)
sweep = SweepSpec("sigma_k", (0.0, 0.05, 0.1, 0.2))

per_point, summary, errors = run_sweep(manifest, sweep, Baselines(), threads=4,
                                       on_point=lambda key, records, status: print(status))
assert not errors

out = Path("demo_sweep")
out.mkdir(exist_ok=True)
write_summary_csv(out / "summary.csv", summary)
for metric in ("mean_nmse", "valid_time"):
    svg = render_sweep_svg(summary, metric=metric,
                           title=f"parameter error sweep: {metric}")
    (out / f"{metric}.svg").write_text(svg)

print()
print(f"{'model':10s} {'sigma_k':>8s} {'mean NMSE':>10s} {'valid t (s)':>12s}")
for row in summary:
    print(f"{row.model:10s} {row.param_value:8.2f} {row.nmse_mean:10.4f} "
          f"{row.valid_time_mean:12.1f}")
print(f"\nwrote {out}/summary.csv and SVG figures")
