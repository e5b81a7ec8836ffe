#!/usr/bin/env python3
"""plcsec benchmark: sweep workloads driven through the CLI, timed and checked.

Run from the repository root::

    python3 perfbench/run.py --workload power-sweep --seed 1 --seconds 25 --trace 0

Each workload (see ``workloads.py``) is a list of sweep configs.  One pass
calls ``plcsec.cli.main(["sweep", CONFIG, "--out", CSV])`` once per config,
one after the other in this process (a closed loop, one sweep at a time,
``workers: 1``).  Passes repeat until ``--seconds`` have been spent; every
pass's output goes through the correctness gate (``gate.py``).

``--trace 0`` prints the end-to-end metrics: the median pass time
(``sweep_s``), the median set-up time of fresh processes (``setup_s``), the
peak resident memory and the share of sweep points that passed the gate.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics from the spans (``tracing.py``); the spans are written to
``.perfbench_out/`` at the end.  The last line of the output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One thread per process: no BLAS pool beside the single sweep worker.  Set
# before numpy is imported here or in the set-up probes, which inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gate
import tracing
from workloads import WORKLOADS, workload_sweeps

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5


def import_plcsec():
    """Import plcsec from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import plcsec
        import plcsec.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import plcsec from {SRC}: {exc}")
    if not Path(plcsec.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: plcsec was imported from {plcsec.__file__}, not {SRC}")
    return plcsec


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_header(args) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def measure_setup(config_paths: list[Path]) -> list[float]:
    """Set-up time of fresh processes: import plcsec and load the configs."""
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(probe), str(SRC), *map(str, config_paths)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def run_pass(main, jobs) -> float:
    """Run every sweep once; return the wall time spent inside the CLI."""
    total = 0.0
    for config, out in jobs:
        out.unlink(missing_ok=True)
        start = perf_counter()
        main(["sweep", str(config), "--out", str(out)])
        total += perf_counter() - start
    return total


def gate_pass(sweeps, jobs, references) -> tuple[int, list[str]]:
    """Points attempted in one pass and a message per failed point."""
    attempted = 0
    failures = []
    for sweep, (_, out), reference in zip(sweeps, jobs, references):
        attempted += len(sweep["values"]) * len(sweep["methods"])
        text = out.read_text() if out.exists() else ""
        failures += gate.check_sweep(sweep, text, reference)
    return attempted, failures


def layer_metrics(spans, traced_passes: int, untraced: list[float], traced: list[float],
                  gh_rule) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per traced pass, from the recorded spans."""
    layers = tracing.summarize(spans)

    def get(name, key):
        return layers[name][key] / traced_passes if name in layers else 0.0

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    out = {}
    for fn in tracing.MONTE_CARLO:
        name = f"montecarlo.{fn}"
        calls, busy, trials = get(name, "calls"), get(name, "busy_s"), get(name, "trials")
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.trials"] = (trials, "count")
        out[f"{name}.ns_per_trial"] = (ratio(busy, trials, 1e9), "ns")
    for fn in tracing.CLOSED_FORMS + tracing.QUADRATURES:
        name = f"metrics.{fn}"
        calls, busy = get(name, "calls"), get(name, "busy_s")
        out[f"{name}.calls"] = (calls, "count")
        out[f"{name}.busy_s"] = (busy, "s")
        out[f"{name}.ms_per_call"] = (ratio(busy, calls, 1e3), "ms")
        if fn in tracing.CLOSED_FORMS:
            out[f"{name}.busy_s.n_lt25"] = (get(name, "busy_s.n_lt25"), "s")
            out[f"{name}.busy_s.n_ge25"] = (get(name, "busy_s.n_ge25"), "s")
            out[f"{name}.repeat_share"] = (ratio(get(name, "repeats"), calls), "share")
    for name in ("sweep.system_config", "sweep.rows_to_csv", "config.loads_config"):
        out[f"{name}.busy_s"] = (get(name, "busy_s"), "s")
    run_sweep_self = get("sweep.run_sweep", "self_s")
    main_self = get("cli.main", "self_s")
    points = get("sweep.system_config", "calls")
    out["cli.main.self_s"] = (main_self, "s")
    out["sweep.run_sweep.self_s"] = (run_sweep_self, "s")
    out["sweep.points"] = (points, "count")
    out["sweep.us_per_point_self"] = (ratio(run_sweep_self, points, 1e6), "us")
    info = gh_rule.cache_info()
    out["special_math.gauss_hermite_rule.hit_ratio"] = (
        ratio(info.hits, info.hits + info.misses), "share")
    traced_s, untraced_s = statistics.median(traced), statistics.median(untraced)
    accounted = main_self + sum(
        get(name, "busy_s") for name in layers if name not in ("cli.main", "sweep.run_sweep")
    ) + run_sweep_self
    out["trace.sweep_s"] = (traced_s, "s")
    out["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
    out["trace.accounted_share"] = (accounted / statistics.mean(traced), "share")
    return out


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    plcsec = import_plcsec()
    import yaml

    expected = declared_metrics(args.trace)
    header = run_header(args)
    print("# run " + json.dumps(header), flush=True)

    sweeps = workload_sweeps(args.workload, args.seed)
    references = [gate.load_reference(args.workload, s["label"]) for s in sweeps]
    work = ROOT / ".perfbench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        jobs, warmups = [], []
        for i, sweep in enumerate(sweeps):
            config = work / f"{i:02d}-{sweep['label']}.yaml"
            config.write_text(yaml.safe_dump(sweep, sort_keys=False))
            jobs.append((config, work / f"{i:02d}.csv"))
            warmup = work / f"{i:02d}-warmup.yaml"
            warmup.write_text(yaml.safe_dump(dict(sweep, values=sweep["values"][:1]),
                                             sort_keys=False))
            warmups.append((warmup, work / f"{i:02d}-warmup.csv"))

        setup = measure_setup([config for config, _ in jobs])
        # Let lazy first-call work finish before timing.
        run_pass(plcsec.cli.main, warmups)

        untraced, traced = [], []
        tracer = tracing.Tracer()
        attempted, failures = 0, []
        start = perf_counter()
        while True:
            untraced.append(run_pass(plcsec.cli.main, jobs))
            n, failed = gate_pass(sweeps, jobs, references)
            attempted, failures = attempted + n, failures + failed
            if args.trace:
                with tracing.installed(tracer):
                    traced.append(run_pass(tracer.wrap("cli.main", plcsec.cli.main), jobs))
                n, failed = gate_pass(sweeps, jobs, references)
                attempted, failures = attempted + n, failures + failed
            # Stop at the pass boundary nearest to --seconds.
            elapsed = perf_counter() - start
            if elapsed >= args.seconds - 0.5 * (untraced[-1] + (traced[-1] if traced else 0.0)):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in failures[:20]:
        print(f"GATE FAIL {message}", file=sys.stderr)

    if args.trace:
        spans = tracer.spans
        out_dir = ROOT / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(spans, header, trace_path)
        print(f"# spans: {len(spans)} written to {trace_path.relative_to(ROOT)}")
        metrics = layer_metrics(spans, len(traced), untraced, traced,
                                plcsec.special_math.gauss_hermite_rule)
    else:
        print(f"# sweep_s samples: {len(untraced)} passes "
              f"({' '.join(f'{t:.4f}' for t in untraced)} s)")
        metrics = {
            "sweep_s": (statistics.median(untraced), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "ok_share": ((attempted - len(failures)) / attempted, "share"),
        }

    if sorted(metrics) != sorted(expected):
        sys.exit(f"perfbench: metrics {sorted(set(metrics) ^ set(expected))} "
                 "differ from BENCHMARK.json")
    for name in expected:
        value, unit = metrics[name]
        print(f"{name:<50} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in expected},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
