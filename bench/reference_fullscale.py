"""Timed reference of one full-scale SpanLayout() point per arm (not a workload).

    python3 bench/reference_fullscale.py

Parameter-error task, synchrony regime, 1 instantiation, 1 realization,
master seed 1, baseline reservoir settings, the default layout (1000
training steps and 20 test spans of 2500 steps: 62,000 samples) and one
thread, with BLAS serial.  The first (standard) call integrates and caches the ground
truth; each arm is then timed with that record cached, and the ground
truth's time is the first call less the cached standard call.  Prints one
JSON object.  It takes a few minutes; README.md records the result.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hybrid_esn.experiments import Baselines, RunManifest, run_shared_procedure  # noqa: E402


def main() -> None:
    manifest = RunManifest(task="parameter_error", regimes=("synchrony",),
                           n_instantiations=1, n_realizations=1, master_seed=1)
    cache: dict = {}
    t = time.perf_counter()
    run_shared_procedure(manifest, "standard", Baselines(), "synchrony", ground_truth_cache=cache)
    first = time.perf_counter() - t
    figures = {"samples": manifest.layout.total_steps}
    for arm in ("standard", "hybrid", "ode"):
        t = time.perf_counter()
        records = run_shared_procedure(manifest, arm, Baselines(), "synchrony",
                                       ground_truth_cache=cache)
        figures[f"{arm}_s"] = time.perf_counter() - t
        figures[f"{arm}_records"] = len(records)
    figures["ground_truth_s"] = first - figures["standard_s"]
    print(json.dumps(figures))


if __name__ == "__main__":
    main()
