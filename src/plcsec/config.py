"""YAML sweep configurations: load, validate, dump.

The file format mirrors :class:`~plcsec.sweep.SweepSpec` as nested
key-value sections.  A file may instead reference a named preset and one of
its ``variant`` labels; any other keys then override the preset's values
section-by-section.  ``dump_config`` emits the fully resolved canonical
form, and ``load(dump(spec))`` is the identity.
"""

from __future__ import annotations

from dataclasses import asdict, fields, replace
from pathlib import Path

import yaml

from .errors import ConfigError
from .montecarlo import McConfig
from .noise import NoiseParams
from .sweep import _REAL_FIELDS, DEFAULT_MC, _NOISE_FIELDS, ScenarioParams, SweepSpec

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
# The ``system`` schema: each YAML leaf and the ScenarioParams field it fills.
_SYSTEM_FIELDS = {
    "n_destinations": "n_destinations",
    "pinhole": "pinhole",
    "transmit_power_db": "transmit_power_db",
    "source": {"mean_db": "m_a_db", "sd_db": "s_a_db"},
    "destination": {"mean_db": "m_b_db", "sd_db": "s_b_db"},
    "eavesdropper": {"mean_db": "m_e_db", "sd_db": "s_e_db"},
    "dest_noise": _NOISE_FIELDS[0],
    "eav_noise": _NOISE_FIELDS[1],
}
# Keys that must be given, each with all of its leaves.  An omitted
# ``pinhole`` or ``transmit_power_db`` takes ScenarioParams' default.  The
# noise leaves are NoiseParams' fields, and an omitted one takes NoiseParams'
# default: no impulsive noise, unlike ScenarioParams' p=0.1, eta=10.
_REQUIRED_SYSTEM = ("n_destinations", "source", "destination", "eavesdropper")
_MC_KEYS = {f.name for f in fields(McConfig)}


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
        "monte_carlo": asdict(spec.mc),
        "system": {
            key: getattr(base, fill)
            if isinstance(fill, str)
            else {leaf: getattr(base, name) for leaf, name in fill.items()}
            for key, fill in _SYSTEM_FIELDS.items()
        },
    }


def dump_config(spec: SweepSpec) -> str:
    return yaml.safe_dump(spec_to_dict(spec), sort_keys=False)


def _check_keys(data: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(data) - allowed, key=str)
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


def _destination_count(value, path: str) -> int:
    """A destination count, given as a whole int or float (``10`` or ``10.0``)."""
    whole = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not whole or value < 1:
        raise ConfigError(f"{path}: expected a whole destination count, got {value!r}")
    return int(value)


def _scenario(data) -> ScenarioParams:
    if not isinstance(data, dict):
        raise ConfigError("system: expected a mapping")
    _check_keys(data, set(_SYSTEM_FIELDS), "system")
    kwargs = {}
    for key, fill in _SYSTEM_FIELDS.items():
        required = key in _REQUIRED_SYSTEM
        if required:
            _require(data, key, "system")
        path = f"system.{key}"
        if isinstance(fill, str):
            if key in data:
                value = data[key]
                if fill == "n_destinations":
                    value = _destination_count(value, path)
                elif fill in _REAL_FIELDS:
                    value = _number(value, path)
                kwargs[fill] = value
            continue
        section = data.get(key)
        if section is None:
            section = {}
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: expected a mapping")
        _check_keys(section, set(fill), path)
        for leaf, name in fill.items():
            if required:
                value = _require(section, leaf, path)
            else:
                value = section.get(leaf, getattr(NoiseParams, leaf))
            kwargs[name] = _number(value, f"{path}.{leaf}")
    try:
        return ScenarioParams(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"system: {exc}") from None


def _mc(data) -> McConfig:
    if data is None:
        return DEFAULT_MC
    if not isinstance(data, dict):
        raise ConfigError("monte_carlo: expected a mapping")
    _check_keys(data, _MC_KEYS, "monte_carlo")
    try:
        return replace(DEFAULT_MC, **data)
    except ConfigError as exc:
        raise ConfigError(f"monte_carlo: {exc}") from None


def dict_to_spec(data: dict) -> SweepSpec:
    """Validate a nested-dict config and build the spec."""
    _check_keys(data, _TOP_KEYS, "")
    for key in _REQUIRED:
        _require(data, key, "")
    axis = data["axis"]
    values = data["values"]
    if not isinstance(values, (list, tuple)):
        raise ConfigError("values: expected a list of numbers")
    read = _destination_count if axis == "n_destinations" else _number
    values = tuple(read(v, f"values[{i}]") for i, v in enumerate(values))
    methods = data["methods"]
    if not isinstance(methods, (list, tuple)) or not all(
        isinstance(m, str) for m in methods
    ):
        raise ConfigError("methods: expected a list of method names")
    if not isinstance(data.get("label", ""), str):
        raise ConfigError("label: expected a string")
    optional = {key: data[key] for key in ("label", "quadrature_order") if key in data}
    return SweepSpec(
        metric=data["metric"],
        axis=axis,
        values=values,
        methods=tuple(methods),
        base=_scenario(data["system"]),
        mc=_mc(data.get("monte_carlo")),
        **optional,
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
        # libyaml's parser when PyYAML was built with it: same data and marks.
        data = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
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
        labels = ", ".join(s.label for s in specs)
        if variant is None:
            raise ConfigError(
                f"preset {name!r} has variants; pick one with 'variant': {labels}"
            )
        matches = [s for s in specs if s.label == variant]
        if not matches:
            raise ConfigError(
                f"preset {name!r} has no variant {variant!r}; available: {labels}"
            )
        data = _deep_merge(spec_to_dict(matches[0]), data)

    return dict_to_spec(data)


def load_config(path) -> SweepSpec:
    """Load, resolve (presets + overrides) and validate a sweep config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigError(f"cannot read config file {str(path)!r}: {reason}") from None
    return loads_config(text)
