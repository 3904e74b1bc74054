#!/usr/bin/env python3
"""Enumeration benchmark: answer delay, throughput and quality per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload gnp30-serial --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable report, and a detailed JSON record goes
to ``.bench_build/results/``.  The exit code is 0 only when every
answer passed the correctness gate.

This launcher builds the native kernel tier in a child process first
(so neither its compile time nor the compiler's memory lands in a
measurement), then measures each workload in a fresh interpreter
(``measure.py``) whose CPU and peak-RSS figures cover only that run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"

#: Time one measured workload may take beyond twice ``--seconds``:
#: interpreter start, input and set-up, and a last job that overruns.
MEASURE_MARGIN_S = 60

#: The result of a workload that printed none: one failed operation.
NO_RESULT = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _environment() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["REPRO_NATIVE_BUILD_DIR"] = str(BUILD / "native")
    return env


def _build(env: dict) -> None:
    """Compile the native kernel tier if it is not built yet."""
    subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.graph._native import native; native.available()",
        ],
        env=env,
        timeout=600,
    )


def _stop(child: subprocess.Popen) -> None:
    """Kill what is left of the child's session: itself and its workers."""
    try:
        os.killpg(child.pid, signal.SIGKILL)
    except ProcessLookupError:  # the session has ended already
        pass
    child.communicate()


def _measure(workload: str, args, env: dict) -> dict:
    """Measure one workload in a fresh interpreter and return its result."""
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--build-dir", str(BUILD),
    ]
    timeout = 2 * args.seconds + MEASURE_MARGIN_S
    # A session of its own, so that a kill reaches the pool workers too.
    child = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True
    )
    try:
        out, __ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {timeout:g} s", file=sys.stderr)
        return dict(NO_RESULT)
    finally:
        _stop(child)
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("\n".join(lines[-1:]))
        print(f"{workload}: no result (exit {child.returncode})", file=sys.stderr)
        return dict(NO_RESULT)
    if child.returncode != 0:
        result["correct"] = False
    return result


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import suite  # only now: it imports the program

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[*suite.WORKLOADS, "all"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = _environment()
    started = time.monotonic()
    _build(env)
    print(f"build check: {time.monotonic() - started:.1f} s")

    names = list(suite.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: _measure(name, args, env) for name in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{key}": value
                for name, r in results.items()
                for key, value in r["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
