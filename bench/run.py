"""Benchmark of the hybrid-esn CLI: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...      # every workload, one after another

Run from the repository root.  The program is imported from ./src in fresh
interpreters (bench/worker.py), never from an installed copy.  A run times
SETUP_REPEATS interpreter set-ups (import hybrid_esn.cli and load the
workload's config), half before and half after its rounds, and attempts
whole rounds of the workload's commands for --seconds seconds (at least one
round, and another only if it is expected to fit).  Each end-to-end metric is the median over rounds.  With
--trace 1 the rounds run under the span tracer and the per-layer metrics
are reported instead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import CheckError
from tracer import unit_of
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
TRACES = BENCH / "_traces"

SETUP_REPEATS = 12
RUN_DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "first_point_s": "s", "peak_rss_mb": "MB"}


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("HYBRID_ESN_SEED", "PYTHONPATH")}
    # Pool threads x BLAS threads must not exceed the cores: BLAS stays serial.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONDONTWRITEBYTECODE="1")
    return env


def _spawn(args, cwd: Path, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), str(SRC), *args],
                            cwd=cwd, env=_child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, err)


def _first_point_s(result: dict, round_dir: Path) -> float:
    """Sweep start to the first per-point metric CSV's mtime (whole sweep if none)."""
    csvs = [p for p in (round_dir / "results").glob("*.csv") if p.name != "summary.csv"]
    if not csvs:
        return sum(op["wall_s"] for op in result["operations"] if op["argv"][0] == "sweep")
    return min(p.stat().st_mtime for p in csvs) - result["sweep_started"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    workload = WORKLOADS[name]
    config = workload.config(seed)
    operations = workload.operations(config)
    run_dir = RUNS / f"{name}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (run_dir / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    (run_dir / "commands.json").write_text(json.dumps([list(op.argv) for op in operations]))

    setups = []

    def time_setups(count):
        for _ in range(count):
            t = time.perf_counter()
            proc = _spawn(["setup"], run_dir, deadline - time.monotonic())
            setups.append(time.perf_counter() - t)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")

    # Half the set-ups before the rounds and half after, so that they sample
    # the machine's speed at both ends of the run rather than one moment.
    time_setups(SETUP_REPEATS // 2)
    rounds, attempted, failed, correct = [], 0, 0, True
    measure_start = time.monotonic()
    while True:
        round_dir = run_dir / f"round{len(rounds)}"
        round_dir.mkdir()
        shutil.copy(run_dir / "config.json", round_dir / "config.json")
        args = ["round", str(round_dir / "result.json"), str(run_dir / "commands.json")]
        if trace:
            TRACES.mkdir(parents=True, exist_ok=True)
            args.append(str(TRACES / f"{name}-seed{seed}-round{len(rounds)}.json"))
        t = time.monotonic()
        proc = _spawn(args, round_dir, deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"round worker failed (exit {proc.returncode}):\n{proc.stderr}")
        result = json.loads((round_dir / "result.json").read_text())
        round_ok = True
        for op, outcome in zip(operations, result["operations"]):
            attempted += 1
            problem = None
            if outcome["code"] != 0:
                problem = f"exit code {outcome['code']}"
            elif op.check is not None:
                try:
                    op.check(round_dir, config, outcome["stdout"])
                except (CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                    problem = f"output check: {exc}"
                    correct = False
            if problem is not None:
                failed += 1
                round_ok = False
                print(f"{name}: {op.argv[0]} failed: {problem}", file=sys.stderr)
        if not round_ok and proc.stderr:
            print(proc.stderr[-4000:], file=sys.stderr)
        result["first_point_s"] = _first_point_s(result, round_dir)
        rounds.append(result)
        if round_ok:
            shutil.rmtree(round_dir)
        last = time.monotonic() - t
        now = time.monotonic()
        if now - measure_start + last > seconds or now + 1.5 * last > deadline:
            break
    time_setups(SETUP_REPEATS - SETUP_REPEATS // 2)
    if not any((run_dir / f"round{k}").exists() for k in range(len(rounds))):
        shutil.rmtree(run_dir)

    if trace:
        names = rounds[0]["layers"]
        metrics = {k: statistics.median(r["layers"][k] for r in rounds) for k in names}
        wall = statistics.median(r["wall_s"] for r in rounds)
        print(f"{name}: traced wall_s={wall:.4f} over {len(rounds)} round(s)", file=sys.stderr)
    else:
        metrics = {"setup_s": statistics.median(setups)}
        for key in ("wall_s", "cpu_s", "first_point_s", "peak_rss_mb"):
            metrics[key] = statistics.median(r[key] for r in rounds)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "hybrid_esn" / "cli.py").is_file():
        print(f"error: program source not found at {SRC / 'hybrid_esn'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         time.monotonic() + RUN_DEADLINE_S)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
    prefix = len(names) > 1
    metrics = {}
    for name, result in results.items():
        for key, value in result["metrics"].items():
            unit = END_TO_END_UNITS.get(key) or unit_of(key)
            metrics[f"{name}.{key}" if prefix else key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
