"""YAML sweep configurations: load, validate, dump.

The file format mirrors :class:`~plcsec.sweep.SweepSpec` as nested
key-value sections.  A file may instead reference a named preset (plus a
``variant`` label when the preset has several); any other keys then override
the preset's values section-by-section.  ``dump_config`` emits the fully
resolved canonical form, and ``load(dump(spec))`` is the identity.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import yaml

from .errors import ConfigError
from .montecarlo import McConfig
from .special_math import DEFAULT_QUAD_ORDER
from .sweep import DEFAULT_MC, ScenarioParams, SweepSpec

__all__ = ["dump_config", "load_config", "loads_config", "spec_to_dict"]

_REQUIRED = ("metric", "axis", "values", "methods", "system")
_TOP_KEYS = {
    "label",
    "metric",
    "axis",
    "values",
    "methods",
    "quadrature_order",
    "monte_carlo",
    "system",
}
_SYSTEM_KEYS = {
    "n_destinations",
    "pinhole",
    "transmit_power_db",
    "source",
    "destination",
    "eavesdropper",
    "dest_noise",
    "eav_noise",
}
_LINK_KEYS = {"mean_db", "sd_db"}
_NOISE_KEYS = {"background_var", "impulse_ratio", "impulse_prob"}
_MC_KEYS = {"samples", "seed", "workers", "confidence"}


def spec_to_dict(spec: SweepSpec) -> dict:
    """Canonical nested-dict form of a spec (what ``dump_config`` writes)."""
    values = [
        int(v) if spec.axis == "n_destinations" else float(v) for v in spec.values
    ]
    base = spec.base
    return {
        "label": spec.label,
        "metric": spec.metric,
        "axis": spec.axis,
        "values": values,
        "methods": list(spec.methods),
        "quadrature_order": spec.quadrature_order,
        "monte_carlo": {
            "samples": spec.mc.samples,
            "seed": spec.mc.seed,
            "workers": spec.mc.workers,
            "confidence": spec.mc.confidence,
        },
        "system": {
            "n_destinations": base.n_destinations,
            "pinhole": base.pinhole,
            "transmit_power_db": float(base.transmit_power_db),
            "source": {"mean_db": float(base.m_a_db), "sd_db": float(base.s_a_db)},
            "destination": {"mean_db": float(base.m_b_db), "sd_db": float(base.s_b_db)},
            "eavesdropper": {"mean_db": float(base.m_e_db), "sd_db": float(base.s_e_db)},
            "dest_noise": {
                "background_var": float(base.bg_var_b),
                "impulse_ratio": float(base.eta_b),
                "impulse_prob": float(base.p_b),
            },
            "eav_noise": {
                "background_var": float(base.bg_var_e),
                "impulse_ratio": float(base.eta_e),
                "impulse_prob": float(base.p_e),
            },
        },
    }


def dump_config(spec: SweepSpec) -> str:
    return yaml.safe_dump(spec_to_dict(spec), sort_keys=False)


def _check_keys(data: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        where = f"{path}." if path else ""
        raise ConfigError(f"unknown key {where}{unknown[0]!r}")


def _require(data: dict, key: str, path: str):
    if key not in data:
        where = f"{path}.{key}" if path else key
        raise ConfigError(f"missing required field {where!r}")
    return data[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _link(data, path: str) -> tuple[float, float]:
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping with mean_db/sd_db")
    _check_keys(data, _LINK_KEYS, path)
    return (
        _number(_require(data, "mean_db", path), f"{path}.mean_db"),
        _number(_require(data, "sd_db", path), f"{path}.sd_db"),
    )


def _noise(data, path: str, defaults: dict) -> dict:
    if data is None:
        return dict(defaults)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    _check_keys(data, _NOISE_KEYS, path)
    out = dict(defaults)
    for key in _NOISE_KEYS & set(data):
        out[key] = _number(data[key], f"{path}.{key}")
    return out


def _scenario(data: dict) -> ScenarioParams:
    if not isinstance(data, dict):
        raise ConfigError("system: expected a mapping")
    _check_keys(data, _SYSTEM_KEYS, "system")
    m_a, s_a = _link(_require(data, "source", "system"), "system.source")
    m_b, s_b = _link(_require(data, "destination", "system"), "system.destination")
    m_e, s_e = _link(_require(data, "eavesdropper", "system"), "system.eavesdropper")
    n = _require(data, "n_destinations", "system")
    defaults = {"background_var": 1.0, "impulse_ratio": 0.0, "impulse_prob": 0.0}
    dn = _noise(data.get("dest_noise"), "system.dest_noise", defaults)
    en = _noise(data.get("eav_noise"), "system.eav_noise", defaults)
    try:
        return ScenarioParams(
            m_a_db=m_a,
            s_a_db=s_a,
            m_b_db=m_b,
            s_b_db=s_b,
            m_e_db=m_e,
            s_e_db=s_e,
            n_destinations=n,
            pinhole=data.get("pinhole", True),
            transmit_power_db=_number(
                data.get("transmit_power_db", 20.0), "system.transmit_power_db"
            ),
            p_b=dn["impulse_prob"],
            p_e=en["impulse_prob"],
            eta_b=dn["impulse_ratio"],
            eta_e=en["impulse_ratio"],
            bg_var_b=dn["background_var"],
            bg_var_e=en["background_var"],
        )
    except ConfigError as exc:
        raise ConfigError(f"system: {exc}") from None


def _mc(data) -> McConfig:
    if data is None:
        return DEFAULT_MC
    if not isinstance(data, dict):
        raise ConfigError("monte_carlo: expected a mapping")
    _check_keys(data, _MC_KEYS, "monte_carlo")
    kwargs = {}
    for key in ("samples", "seed", "workers"):
        if key in data:
            value = data[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"monte_carlo.{key}: expected an integer")
            kwargs[key] = value
    if "confidence" in data:
        kwargs["confidence"] = _number(data["confidence"], "monte_carlo.confidence")
    try:
        return replace(DEFAULT_MC, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"monte_carlo: {exc}") from None


def dict_to_spec(data: dict) -> SweepSpec:
    """Validate a nested-dict config and build the spec."""
    _check_keys(data, _TOP_KEYS, "")
    for key in _REQUIRED:
        _require(data, key, "")
    values = data["values"]
    if not isinstance(values, (list, tuple)):
        raise ConfigError("values: expected a list of numbers")
    values = tuple(_number(v, f"values[{i}]") for i, v in enumerate(values))
    methods = data["methods"]
    if not isinstance(methods, (list, tuple)) or not all(
        isinstance(m, str) for m in methods
    ):
        raise ConfigError("methods: expected a list of method names")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ConfigError("label: expected a string")
    quad_order = data.get("quadrature_order", DEFAULT_QUAD_ORDER)
    if isinstance(quad_order, bool) or not isinstance(quad_order, int):
        raise ConfigError("quadrature_order: expected an integer")
    axis = data["axis"]
    if axis == "n_destinations":
        for i, v in enumerate(values):
            if not v.is_integer():
                raise ConfigError(
                    f"values[{i}]: expected a whole destination count, got {v!r}"
                )
        values = tuple(int(v) for v in values)
    return SweepSpec(
        metric=data["metric"],
        axis=axis,
        values=values,
        methods=tuple(methods),
        base=_scenario(data["system"]),
        quadrature_order=quad_order,
        mc=_mc(data.get("monte_carlo")),
        label=label,
    )


def _deep_merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = value
    return out


def loads_config(text: str) -> SweepSpec:
    """Parse and validate config text (see :func:`load_config`)."""
    try:
        data = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ConfigError(f"config parse error{where}: {exc.problem}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config parse error: {exc}") from None
    if data is None:
        raise ConfigError(
            "empty config; required fields: " + ", ".join(_REQUIRED)
        )
    if not isinstance(data, dict):
        raise ConfigError("config root must be a mapping")

    if "preset" in data:
        from .presets import get_preset

        name = data.pop("preset")
        variant = data.pop("variant", None)
        specs = get_preset(name)
        if variant is None:
            if len(specs) > 1:
                raise ConfigError(
                    f"preset {name!r} has variants; pick one with 'variant': "
                    + ", ".join(s.label for s in specs)
                )
            chosen = specs[0]
        else:
            matches = [s for s in specs if s.label == variant]
            if not matches:
                raise ConfigError(
                    f"preset {name!r} has no variant {variant!r}; available: "
                    + ", ".join(s.label for s in specs)
                )
            chosen = matches[0]
        data = _deep_merge(spec_to_dict(chosen), data)

    return dict_to_spec(data)


def load_config(path) -> SweepSpec:
    """Load, resolve (presets + overrides) and validate a sweep config file."""
    return loads_config(Path(path).read_text())
