"""Scenario descriptions, parameter sweeps and CSV emission.

A :class:`ScenarioParams` is the dB-domain description of one system (link
shadowing parameters, noise statistics, destination count, pinhole flag);
:class:`SweepSpec` runs one metric over one axis (transmit power in dB or
the number of destinations) with a set of evaluation methods.  Sweeps are
deterministic given the spec, and CSV output is byte-stable so it can be
used in golden-file regressions.

Every Monte Carlo point uses the spec's own seed, so the points of an axis
share their draws (common random numbers): neighbouring points are
correlated, each point's CI stays valid on its own, and a row depends only
on the samples, the seed, the scenario and its axis value.

A sweep groups the points that differ only in transmit power, so a power
axis is one group and each destination count a group of its own, and every
route runs once per group: the Monte Carlo ASC draws its trials once and
scores every power, the quadrature ASC builds its power-free vectors once
and forms only the rates per power, and the routes that do not depend on
power (all POI methods and both asymptotes) serve every power with one
value.

Transmit power is quoted in dB relative to a unit background noise variance;
the default scenario normalizes both background variances to 1 so the power
axis reads as per-link SNR.  Re-base by scaling ``bg_var_*`` if an absolute
noise floor is known.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .channel import PinholeTopology, is_destination_count, link_params_from_db
from .errors import ConfigError, PlcsecError
from .metrics import (
    SystemConfig,
    asc_asymptotic,
    asc_asymptotic_large_n,
    asc_quadrature,
    poi_closed_form,
    poi_quadrature,
)
from .montecarlo import McConfig, mc_asc, mc_poi
from .noise import NoiseParams
from .special_math import DEFAULT_QUAD_ORDER, checked_quad_order

__all__ = [
    "ASC_METHODS",
    "CSV_HEADER",
    "POI_METHODS",
    "ScenarioParams",
    "SweepError",
    "SweepRow",
    "SweepSpec",
    "rows_to_csv",
    "run_sweep",
]

ASC_METHODS = ("quadrature", "asymptotic", "asymptotic-large-n", "monte-carlo")
POI_METHODS = ("quadrature", "closed-form-poi", "monte-carlo")
AXES = ("transmit_power_db", "n_destinations")

DEFAULT_MC = McConfig(samples=1_000_000, seed=20230117)

_REAL_FIELDS = (
    "m_a_db", "s_a_db", "m_b_db", "s_b_db", "m_e_db", "s_e_db", "transmit_power_db",
    "p_b", "p_e", "eta_b", "eta_e", "bg_var_b", "bg_var_e",
)


@dataclass(frozen=True)
class ScenarioParams:
    """dB-domain description of one pinhole scenario."""

    m_a_db: float = -20.0
    s_a_db: float = 6.0
    m_b_db: float = -20.0
    s_b_db: float = 6.0
    m_e_db: float = -40.0
    s_e_db: float = 6.0
    n_destinations: int = 10
    pinhole: bool = True
    transmit_power_db: float = 20.0
    p_b: float = 0.1
    p_e: float = 0.1
    eta_b: float = 10.0
    eta_e: float = 10.0
    bg_var_b: float = 1.0
    bg_var_e: float = 1.0

    def __post_init__(self) -> None:
        # Fail at construction, not at first use: config loading relies on it.
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} must be a number, got {value!r}")
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
            # A plain float keeps the resolved config YAML-dumpable.
            object.__setattr__(self, name, float(value))
        for name in ("s_a_db", "s_b_db", "s_e_db"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        for name in ("p_b", "p_e"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1]")
        for name in ("eta_b", "eta_e"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be >= 0")
        for name in ("bg_var_b", "bg_var_e"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be > 0")
        if not is_destination_count(self.n_destinations):
            raise ConfigError("n_destinations must be a positive integer")
        if not isinstance(self.pinhole, bool):
            raise ConfigError("pinhole must be true or false")
        # A plain int keeps the resolved config YAML-dumpable.
        object.__setattr__(self, "n_destinations", int(self.n_destinations))
        # NoiseParams owns the SNR-factor check; name the fields that failed it.
        # Built once: the SystemConfig of every point shares them.
        noise = []
        for side in ("b", "e"):
            values = (getattr(self, f"{name}_{side}") for name in ("bg_var", "eta", "p"))
            try:
                noise.append(NoiseParams(*values))
            except ConfigError as exc:
                raise ConfigError(f"bg_var_{side}/eta_{side}: {exc}") from None
        object.__setattr__(self, "_noise", tuple(noise))

    def system_config(
        self,
        *,
        power_db: float | None = None,
        n_destinations: int | None = None,
        quad_order: int = DEFAULT_QUAD_ORDER,
    ) -> SystemConfig:
        """Materialize a :class:`SystemConfig`, optionally overriding the
        sweep axis quantities."""
        p_db = self.transmit_power_db if power_db is None else power_db
        n = self.n_destinations if n_destinations is None else n_destinations
        try:
            power = 10.0 ** (p_db / 10.0)
        except OverflowError:
            raise ConfigError(
                f"transmit_power_db={p_db} overflows the linear transmit power"
            ) from None
        topo = PinholeTopology(
            source_link=link_params_from_db(self.m_a_db, self.s_a_db),
            destination_link=link_params_from_db(self.m_b_db, self.s_b_db),
            eavesdropper_link=link_params_from_db(self.m_e_db, self.s_e_db),
            n_destinations=n,
            pinhole_present=self.pinhole,
        )
        return SystemConfig(
            topology=topo,
            dest_noise=self._noise[0],
            eav_noise=self._noise[1],
            transmit_power=power,
            quadrature_order=quad_order,
        )


@dataclass(frozen=True)
class SweepSpec:
    """One metric swept over one axis with a set of evaluation methods."""

    metric: str
    axis: str
    values: tuple
    methods: tuple
    base: ScenarioParams = field(default_factory=ScenarioParams)
    quadrature_order: int = DEFAULT_QUAD_ORDER
    mc: McConfig = DEFAULT_MC
    label: str = ""

    def __post_init__(self) -> None:
        if self.metric not in ("asc", "poi"):
            raise ConfigError(f"metric must be 'asc' or 'poi', got {self.metric!r}")
        if self.axis not in AXES:
            raise ConfigError(f"axis must be one of {AXES}, got {self.axis!r}")
        values = tuple(self.values)
        if not values:
            raise ConfigError("values must be a nonempty list")
        if self.axis == "n_destinations":
            if not all(is_destination_count(v) for v in values):
                raise ConfigError("n_destinations values must be positive integers")
            values = tuple(int(v) for v in values)
        elif not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)
            for v in values
        ):
            # NaN would slip past the ordering check: every comparison is false.
            raise ConfigError("transmit_power_db values must be finite numbers")
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError("values must be strictly increasing")
        methods = tuple(self.methods)
        if not methods:
            raise ConfigError("methods must be a nonempty list")
        allowed = ASC_METHODS if self.metric == "asc" else POI_METHODS
        for m in methods:
            if m not in allowed:
                raise ConfigError(
                    f"method {m!r} is not valid for metric {self.metric!r}; "
                    f"allowed: {', '.join(allowed)}"
                )
        if len(set(methods)) != len(methods):
            raise ConfigError("methods must not repeat")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "methods", methods)
        # Config errors surface before a sweep starts, and a plain int keeps
        # the resolved config YAML-dumpable.
        object.__setattr__(self, "quadrature_order", checked_quad_order(self.quadrature_order))


@dataclass(frozen=True)
class SweepRow:
    axis_value: float
    method: str
    metric: str
    value: float
    ci_halfwidth: float


@dataclass(frozen=True)
class SweepError:
    axis_value: float
    method: str
    message: str


_EVALUATORS = {
    ("asc", "quadrature"): asc_quadrature,
    ("asc", "asymptotic"): asc_asymptotic,
    ("asc", "asymptotic-large-n"): asc_asymptotic_large_n,
    ("poi", "quadrature"): poi_quadrature,
    ("poi", "closed-form-poi"): poi_closed_form,
}


def _group_results(spec: SweepSpec, method: str, cfg: SystemConfig, powers: list) -> list:
    """One result, or the error raised in its place, per power of a group
    of points that differ only in transmit power."""
    try:
        if (spec.metric, method) == ("asc", "monte-carlo"):
            return mc_asc(cfg, spec.mc, powers=powers)
        if (spec.metric, method) == ("asc", "quadrature"):
            # Through the table, not the name: perfbench's tracer wraps its entries.
            return _EVALUATORS[("asc", "quadrature")](cfg, powers=powers)
        # Power-free by construction: one evaluation serves every power.
        if method == "monte-carlo":
            result = mc_poi(cfg, spec.mc)
        else:
            result = _EVALUATORS[(spec.metric, method)](cfg)
    except PlcsecError as exc:
        result = exc
    return [result] * len(powers)


def run_sweep(spec: SweepSpec) -> tuple[list[SweepRow], list[SweepError]]:
    """Evaluate every (axis value, method) pair of the spec.

    Each point's configuration is built first, and the points that differ
    only in transmit power form one group: the whole power axis is one
    group, and each destination count is a group of its own.  Every route
    then runs once per group.  Rows come in axis order, methods in spec
    order within a point.  A failing point becomes a :class:`SweepError`
    and the sweep continues.
    """
    power_axis = spec.axis == "transmit_power_db"
    results = [None] * len(spec.values)
    # A group keeps only its first configuration: holding one per point
    # would wake the garbage collector on long axes.
    groups = []  # (configuration, point indices, linear powers)
    for i, axis_value in enumerate(spec.values):
        at = {"power_db": float(axis_value)} if power_axis else {"n_destinations": axis_value}
        try:
            cfg = spec.base.system_config(quad_order=spec.quadrature_order, **at)
        except PlcsecError as exc:
            results[i] = [exc] * len(spec.methods)
            continue
        if not (power_axis and groups):
            groups.append((cfg, [], []))
        groups[-1][1].append(i)
        groups[-1][2].append(cfg.transmit_power)
    for cfg, points, powers in groups:
        per_method = [_group_results(spec, m, cfg, powers) for m in spec.methods]
        for k, i in enumerate(points):
            results[i] = [column[k] for column in per_method]
    rows, errors = [], []
    for axis_value, cells in zip(spec.values, results):
        for method, result in zip(spec.methods, cells):
            if isinstance(result, PlcsecError):
                errors.append(SweepError(axis_value, method, str(result)))
            else:
                rows.append(SweepRow(
                    axis_value, method, spec.metric, result.value, result.ci_halfwidth
                ))
    return rows, errors


CSV_HEADER = "axis,method,metric,value,ci_halfwidth"


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)) or (isinstance(x, float) and x.is_integer()):
        return str(int(x))
    return format(float(x), ".12g")


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render rows as CSV with values at 12 significant digits."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(
            f"{_fmt(row.axis_value)},{row.method},{row.metric},"
            f"{format(row.value, '.12g')},{format(row.ci_halfwidth, '.12g')}"
        )
    return "\n".join(lines) + "\n"
