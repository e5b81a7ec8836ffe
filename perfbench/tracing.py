"""Spans around plcsec's layers, recorded from outside the package.

The tracer wraps each layer's public functions at the point where
``plcsec.cli`` and ``plcsec.sweep`` look them up, so the package itself is
not edited.  A span is ``(name, start, end, parent, point, n, trials,
repeat)``, times in ns: ``parent`` is the index of the enclosing span,
``point`` numbers the sweep point a span belongs to (a point starts with its
``system_config`` call; spans around whole sweeps have none), ``n`` is the
destination count and ``trials`` the Monte Carlo budget of the call, and
``repeat`` marks a closed-form call whose configuration, transmit power
aside, was already evaluated earlier in the same sweep.  Spans stay in
memory until :func:`write_spans` is called once at the end of a run.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns
from typing import NamedTuple

# Closed forms whose value does not depend on transmit power.
CLOSED_FORMS = ("asc_asymptotic", "asc_asymptotic_large_n", "poi_closed_form")
QUADRATURES = ("asc_quadrature", "poi_quadrature")
MONTE_CARLO = ("mc_asc", "mc_poi")


class Span(NamedTuple):
    name: str
    start: int
    end: int
    parent: int | None
    point: int | None
    n: int | None
    trials: int | None
    repeat: bool | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._point = -1
        self._seen: set = set()

    def wrap(self, name: str, fn):
        """Return ``fn`` recording one span per call under ``name``."""
        short = name.rpartition(".")[2]

        def traced(*args, **kwargs):
            point = n = trials = repeat = None
            if short == "run_sweep":
                self._seen.clear()
            elif short == "system_config":
                self._point += 1
                point = self._point
            elif short in CLOSED_FORMS + QUADRATURES + MONTE_CARLO:
                point = self._point
                cfg = args[0]
                n = cfg.topology.n_destinations
                if short in MONTE_CARLO:
                    trials = args[1].samples
                if short in CLOSED_FORMS:
                    key = (short, cfg.topology, cfg.dest_noise, cfg.eav_noise,
                           cfg.quadrature.order, cfg.q_approx)
                    repeat = key in self._seen
                    self._seen.add(key)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans[index] = Span(name, start, end, parent, point, n, trials, repeat)

        return traced


@contextmanager
def installed(tracer: Tracer):
    """Route the calls that cli and sweep make through ``tracer``."""
    from plcsec import cli, config, sweep

    patches = [
        (cli, "run_sweep", "sweep.run_sweep"),
        (cli, "rows_to_csv", "sweep.rows_to_csv"),
        (config, "loads_config", "config.loads_config"),
        (sweep.ScenarioParams, "system_config", "sweep.system_config"),
    ] + [(sweep, fn, f"montecarlo.{fn}") for fn in MONTE_CARLO]
    # A hook that is gone raises here rather than leaving its layer at 0.
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    # sweep dispatches the analytical routes through a table built at import.
    evaluators = sweep._EVALUATORS
    saved_evaluators = dict(evaluators)
    try:
        for owner, attr, name in patches:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        for key, fn in saved_evaluators.items():
            evaluators[key] = tracer.wrap(f"metrics.{fn.__name__}", fn)
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
        evaluators.update(saved_evaluators)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy and self seconds, trials, split busy time
    by destination count and the share of repeated configurations."""
    child_ns = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end - span.start
    out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for index, span in enumerate(spans):
        busy = (span.end - span.start) * 1e-9
        entry = out[span.name]
        entry["calls"] += 1
        entry["busy_s"] += busy
        entry["self_s"] += busy - child_ns[index] * 1e-9
        entry["trials"] += span.trials or 0
        entry["repeats"] += bool(span.repeat)
        if span.n is not None:
            entry["busy_s.n_lt25" if span.n < 25 else "busy_s.n_ge25"] += busy
    return out


def write_spans(spans: list[Span], header: dict, path) -> None:
    """Write the run header, then one JSON object per span, as JSON lines."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for span in spans:
            fh.write(json.dumps(span._asdict()) + "\n")
