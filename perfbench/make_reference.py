#!/usr/bin/env python3
"""Regenerate the gate's reference values in ``perfbench/reference/``.

Run from the repository root: ``python3 perfbench/make_reference.py``.
Writes, per workload and sweep, the CSV that ``plcsec sweep`` emits minus
its Monte Carlo rows (those depend on the seed and are checked against
quadrature instead).  Regenerate only when a change to the analytical
values is intended, and say why in CHANGES.md.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import yaml

from gate import REFERENCE_DIR
from workloads import WORKLOADS, workload_sweeps

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from plcsec.cli import main as plcsec_main  # noqa: E402


def main() -> None:
    work = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_ref-"))
    try:
        for workload in WORKLOADS:
            target = REFERENCE_DIR / workload
            target.mkdir(parents=True, exist_ok=True)
            for sweep in workload_sweeps(workload, seed=1):
                config, out = work / "sweep.yaml", work / "sweep.csv"
                config.write_text(yaml.safe_dump(sweep, sort_keys=False))
                if plcsec_main(["sweep", str(config), "--out", str(out)]) != 0:
                    sys.exit(f"sweep {workload}/{sweep['label']} reported errors")
                lines = [line for line in out.read_text().splitlines()
                         if ",monte-carlo," not in line]
                (target / f"{sweep['label']}.csv").write_text("\n".join(lines) + "\n")
                print(f"{workload}/{sweep['label']}: {len(lines) - 1} rows")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
