"""One benchmark round in a fresh interpreter: import the CLI, run its commands in-process.

Usage (from run.py, with the round directory as working directory):

    python3 worker.py SRC_DIR setup              # import hybrid_esn.cli, load config.json
    python3 worker.py SRC_DIR round RESULT.json COMMANDS.json [TRACE.json]

`round` runs each command of COMMANDS.json through `hybrid_esn.cli.main`,
records its exit code and standard output, and writes wall time, CPU time,
peak RSS, the start of the `sweep` command and (when TRACE.json is given)
the per-layer figures to RESULT.json.  Set-up (interpreter start, imports,
first config load) is outside the timed region.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_program(src: Path):
    sys.path.insert(0, str(src))
    import hybrid_esn.cli as cli
    from hybrid_esn.config import load_config

    if Path(cli.__file__).resolve().parent != (src / "hybrid_esn").resolve():
        raise SystemExit(f"imported hybrid_esn from {cli.__file__}, not from {src}")
    load_config("config.json")
    return cli


def _run_command(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            cli.main.main(args=list(argv), prog_name="hybrid-esn", standalone_mode=False)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except cli.click.ClickException as exc:
            exc.show()
            code = exc.exit_code
        except Exception:  # noqa: BLE001 - a crashing command is a failed operation
            traceback.print_exc()
            code = 1
    return code, out.getvalue()


def run_round(cli, commands, trace_path) -> dict:
    tracer = None
    if trace_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    operations = []
    sweep_started = None
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for argv in commands:
        if argv[0] == "sweep":
            sweep_started = time.time()
        t = time.perf_counter()
        code, stdout = _run_command(cli, argv)
        operations.append({"argv": argv, "code": code, "stdout": stdout,
                           "wall_s": time.perf_counter() - t})
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "operations": operations,
        "wall_s": wall,
        "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        "peak_rss_mb": after.ru_maxrss / 1024.0,
        "sweep_started": sweep_started,
    }
    if tracer is not None:
        tracer.dump(trace_path)
        result["layers"] = tracing.layer_metrics(tracer)
    return result


def main(argv) -> int:
    src, mode = Path(argv[1]), argv[2]
    cli = _import_program(src)
    if mode == "setup":
        return 0
    result_path, commands_path = argv[3], argv[4]
    trace_path = argv[5] if len(argv) > 5 else None
    commands = json.loads(Path(commands_path).read_text())
    result = run_round(cli, commands, trace_path)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
