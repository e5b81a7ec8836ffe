"""The hooks the benchmark's tracer hangs on, exercised through the CLI.

``perfbench/tracing.py`` wraps the package from outside: it patches names in
``plcsec.cli``, ``plcsec.config`` and ``plcsec.sweep`` and reads
configuration fields to build its repeat key.  A rename in the package
would otherwise surface only in a traced benchmark run.  The module is
loaded from its file and not modified.
"""

import importlib.util
from pathlib import Path

from plcsec import McConfig, ScenarioParams, SweepSpec, dump_config
from plcsec.cli import main
from plcsec.sweep import ASC_METHODS, POI_METHODS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
ROUTES = {
    "metrics.asc_quadrature",
    "metrics.asc_asymptotic",
    "metrics.asc_asymptotic_large_n",
    "metrics.poi_quadrature",
    "metrics.poi_closed_form",
    "montecarlo.mc_asc",
    "montecarlo.mc_poi",
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_sweeps_record_every_route(tmp_path, capsys):
    tracing = load_tracing()
    configs = []
    for metric, methods in (("asc", ASC_METHODS), ("poi", POI_METHODS)):
        for axis, values in (("transmit_power_db", (10.0, 30.0)), ("n_destinations", (2, 5))):
            path = tmp_path / f"{metric}-{axis}.yaml"
            path.write_text(dump_config(SweepSpec(
                metric=metric, axis=axis, values=values, methods=methods,
                base=ScenarioParams(), mc=McConfig(samples=10_000, seed=7),
            )))
            configs.append(path)

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        for path in configs:
            assert main(["sweep", str(path)]) == 0
    capsys.readouterr()

    spans = tracer.spans
    assert ROUTES <= {span.name for span in spans}
    closed = [span for span in spans if span.name.rpartition(".")[2] in tracing.CLOSED_FORMS]
    assert closed and all(span.repeat is not None for span in closed)
    assert {span.name for span in spans if span.trials} == {
        "montecarlo.mc_asc", "montecarlo.mc_poi",
    }
    summary = tracing.summarize(spans)
    # One configuration per sweep: a power axis and a destination axis are
    # each one group.
    assert summary["sweep.system_config"]["calls"] == 4
