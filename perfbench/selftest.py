#!/usr/bin/env python3
"""Quick self-test of the benchmark harness, at tiny sizes.

Run from the repository root: ``python3 perfbench/selftest.py``.  It checks
that the correctness gate accepts the program's real output and rejects a
perturbed value, a missing row and a Monte Carlo value outside its interval,
that a run of every workload, with tracing off and on, emits exactly the
metric names declared in ``BENCHMARK.json``, and that the traced run sees
calls to the layers each workload is there to measure.  Sweeps are cut to
their first two axis values and the Monte Carlo budget to 10^4 trials.
Exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile

import yaml

import gate
import run
from workloads import WORKLOADS, workload_sweeps

# The layers each workload is there to measure (see BENCHMARK.json).  A traced
# run must see calls to them: a hook the tracer lost would read 0 instead.
DOMINANT_LAYERS = {
    "power-sweep": ("montecarlo.mc_asc", "montecarlo.mc_poi", "metrics.asc_asymptotic"),
    "n-sweep": ("metrics.asc_asymptotic", "metrics.asc_asymptotic_large_n",
                "metrics.poi_closed_form"),
    "quadrature-grid": ("metrics.asc_quadrature", "metrics.poi_quadrature"),
}


def tiny_sweeps(name: str, seed: int) -> list[dict]:
    return [
        dict(s, values=s["values"][:2], monte_carlo=dict(s["monte_carlo"], samples=10_000))
        for s in workload_sweeps(name, seed)
    ]


def check(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'} {what}")
    if not condition:
        sys.exit(1)


def perturb(text: str, method: str, change) -> str:
    """Apply ``change(value, ci) -> (value, ci)`` to the first row of ``method``."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) == 5 and fields[1] == method:
            value, ci = change(float(fields[3]), float(fields[4]))
            lines[i] = ",".join(fields[:3] + [repr(value), repr(ci)])
            return "\n".join(lines) + "\n"
    raise ValueError(f"no {method} row")


def gate_checks(main) -> None:
    sweep = tiny_sweeps("power-sweep", seed=1)[0]
    reference = gate.load_reference("power-sweep", sweep["label"])
    with tempfile.TemporaryDirectory(dir=run.ROOT, prefix=".perfbench_selftest-") as tmp:
        config, out = f"{tmp}/sweep.yaml", f"{tmp}/sweep.csv"
        with open(config, "w") as fh:
            yaml.safe_dump(sweep, fh)
        main(["sweep", config, "--out", out])
        with open(out) as fh:
            text = fh.read()
    check(gate.check_sweep(sweep, text, reference) == [], "gate accepts the program's output")
    bad = perturb(text, "quadrature", lambda v, ci: (v * (1 + 1e-6), ci))
    check(len(gate.check_sweep(sweep, bad, reference)) == 1,
          "gate rejects a quadrature value off by 1e-6 relative")
    bad = perturb(text, "asymptotic", lambda v, ci: (v * (1 + 1e-6), ci))
    check(len(gate.check_sweep(sweep, bad, reference)) == 1,
          "gate rejects an asymptotic value off by 1e-6 relative")
    bad = perturb(text, "monte-carlo", lambda v, ci: (v + 3 * gate.MC_CI_MULTIPLE * ci, ci))
    check(len(gate.check_sweep(sweep, bad, reference)) == 1,
          "gate rejects a Monte Carlo value outside its interval")
    dropped = "\n".join(line for line in text.splitlines() if ",asymptotic," not in line)
    check(len(gate.check_sweep(sweep, dropped, reference)) == len(sweep["values"]),
          "gate counts each missing row as a failed point")


def metric_checks() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS),
          "BENCHMARK.json names every workload")
    run.workload_sweeps = tiny_sweeps
    run.SETUP_REPEATS = 1
    for name in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                run.main(["--workload", name, "--seed", "7", "--seconds", "0",
                          "--trace", str(trace)])
            result = json.loads(stdout.getvalue().splitlines()[-1])
            declared = [m["name"] for m in spec[kind]]
            check(sorted(result["metrics"]) == sorted(declared),
                  f"{name} --trace {trace} emits every {kind} metric")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{name} --trace {trace} passes the gate")
            if trace:
                for layer in DOMINANT_LAYERS[name]:
                    calls = result["metrics"][f"{layer}.calls"]["value"]
                    check(calls > 0, f"{name} --trace 1 sees calls to {layer} ({calls:g})")
                accounted = result["metrics"]["trace.accounted_share"]["value"]
                check(0.95 <= accounted <= 1.0 + 1e-9,
                      f"{name} layer times account for the traced sweep time ({accounted:.4f})")


if __name__ == "__main__":
    plcsec = run.import_plcsec()
    gate_checks(plcsec.cli.main)
    metric_checks()
    print("selftest passed")
