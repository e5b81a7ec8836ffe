#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print all metrics.

Run from the repository root::

    python3 perfbench/run_all.py [--seed N] [--seconds S]

Each (workload, trace) pair runs ``perfbench/run.py`` in its own process, so
peak memory and set-up time are per workload.  ``--seconds`` defaults to
``run_seconds`` of ``BENCHMARK.json``.  Exits non-zero if a run fails or a
sweep point fails the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args()

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            print(f"== {workload} --trace {trace}: exit {done.returncode}")
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            print(f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
