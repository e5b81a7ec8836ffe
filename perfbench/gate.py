"""Correctness gate for the benchmark's sweep outputs.

Analytical rows are compared with reference values generated from the code
at the commit that introduced the benchmark (``perfbench/reference/``, made
by ``make_reference.py``).  The relative tolerance is loose enough for
last-bits changes such as replacing the closed forms' alternating sums
(whose double-precision branch is off by about 1e-10 near N = 24) and tight
enough that a wrong formula fails.  Monte Carlo rows have no reference,
since they depend on the seed; each is compared with the same point's
quadrature value, within a fixed multiple of its own confidence half-width.
"""

from __future__ import annotations

from pathlib import Path

RTOL = 1e-8
ATOL = 1e-15  # absolute floor for values near 0 (bits/use or probability)
# Multiple of the 99% CI half-width (2.576 sigma), i.e. about 5.2 sigma.
MC_CI_MULTIPLE = 2.0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def parse_csv(text: str) -> dict[tuple[float, str], tuple[float, float]]:
    """Rows of a sweep CSV keyed by (axis value, method)."""
    rows = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or line.startswith("axis,"):
            continue
        axis, method, _metric, value, ci = line.split(",")
        rows[(float(axis), method)] = (float(value), float(ci))
    return rows


def load_reference(workload: str, label: str) -> dict[tuple[float, str], tuple[float, float]]:
    return parse_csv((REFERENCE_DIR / workload / f"{label}.csv").read_text())


def check_sweep(sweep: dict, csv_text: str, reference: dict) -> list[str]:
    """One message per failed point of ``sweep`` (empty when all pass).

    A point fails when its row is missing (the sweep reported an error for
    it), when an analytical value is off its reference, or when a Monte
    Carlo value is farther from the quadrature value than the gate allows.
    """
    rows = parse_csv(csv_text)
    failures = []
    for axis in sweep["values"]:
        axis = float(axis)
        for method in sweep["methods"]:
            where = f"{sweep['label']} axis={axis:g} method={method}"
            if (axis, method) not in rows:
                failures.append(f"{where}: no row")
                continue
            value, ci = rows[(axis, method)]
            if method == "monte-carlo":
                quad = rows.get((axis, "quadrature"), reference.get((axis, "quadrature")))
                if quad is None or not (ci > 0.0 and abs(value - quad[0]) <= MC_CI_MULTIPLE * ci):
                    failures.append(f"{where}: {value!r} +- {ci!r} vs quadrature {quad}")
                continue
            ref = reference.get((axis, method))
            if ref is None or abs(value - ref[0]) > RTOL * abs(ref[0]) + ATOL:
                failures.append(f"{where}: {value!r} vs reference {ref}")
    return failures
