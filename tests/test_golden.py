"""Golden CSVs of every preset, compared byte for byte.

``tests/golden/<preset>.csv`` holds one block per variant: the analytical
rows over the whole axis at the preset's quadrature order, then the Monte
Carlo rows on the first three axis values at a small fixed budget and seed.
ASC variants also pin ``asymptotic-large-n``, which no preset runs.
After an intended change of output bytes, regenerate the files with::

    PYTHONPATH=src python tests/test_golden.py

and explain the diff in CHANGES.md.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from plcsec import available_presets, get_preset, rows_to_csv, run_sweep

GOLDEN_DIR = Path(__file__).parent / "golden"
MC_SAMPLES = 20_000
MC_SEED = 4
MC_POINTS = 3


def golden_csv(name: str) -> str:
    blocks = []
    for spec in get_preset(name):
        methods = tuple(m for m in spec.methods if m != "monte-carlo")
        if spec.metric == "asc":
            methods += ("asymptotic-large-n",)
        analytical = replace(spec, methods=methods)
        mc = replace(
            spec,
            values=spec.values[:MC_POINTS],
            methods=("monte-carlo",),
            mc=replace(spec.mc, samples=MC_SAMPLES, seed=MC_SEED),
        )
        rows = []
        for part in (analytical, mc):
            part_rows, errors = run_sweep(part)
            assert errors == [], errors
            rows += part_rows
        blocks.append(f"# preset: {name} variant: {spec.label}\n" + rows_to_csv(rows))
    return "\n".join(blocks)


@pytest.mark.parametrize("name", available_presets())
def test_preset_matches_golden(name):
    assert golden_csv(name).encode() == (GOLDEN_DIR / f"{name}.csv").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in available_presets():
        (GOLDEN_DIR / f"{name}.csv").write_bytes(golden_csv(name).encode())
