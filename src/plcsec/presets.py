"""Named sweep presets mirroring the reference experiment grids.

Each preset is a list of labelled :class:`~plcsec.sweep.SweepSpec` variants
sharing one scenario family.  The average-secrecy presets sweep transmit
power over -10..60 dB in 2 dB steps (power is relative to the unit
background noise variance); the intercept preset sweeps the number of
destinations.  Where the reference grid does not pin the varied values, the
variants cover a representative spread and say so in their labels.
"""

from __future__ import annotations

from dataclasses import replace

from .errors import ConfigError
from .sweep import POI_METHODS, ScenarioParams, SweepSpec

__all__ = ["available_presets", "get_preset"]

_POWER_GRID_DB = tuple(float(p) for p in range(-10, 62, 2))
_ASC_METHODS = ("quadrature", "asymptotic", "monte-carlo")

_BASE = ScenarioParams()  # -20/-20/-40 dB means, 6 dB spreads, p=0.1, eta=10


def _asc_spec(label: str, base: ScenarioParams) -> SweepSpec:
    return SweepSpec(
        metric="asc",
        axis="transmit_power_db",
        values=_POWER_GRID_DB,
        methods=_ASC_METHODS,
        base=base,
        label=label,
    )


def _poi_spec(label: str, base: ScenarioParams) -> SweepSpec:
    return SweepSpec(
        metric="poi",
        axis="n_destinations",
        values=tuple(range(1, 17)),
        methods=POI_METHODS,
        base=base,
        label=label,
    )


def _fig3() -> list[SweepSpec]:
    # Pinhole penalty vs the direct-link baseline, for two destination counts.
    out = []
    for n in (10, 40):
        for pinhole in (True, False):
            label = f"n{n}-{'ph' if pinhole else 'no-ph'}"
            out.append(
                _asc_spec(label, replace(_BASE, n_destinations=n, pinhole=pinhole))
            )
    return out


def _fig4() -> list[SweepSpec]:
    # Shared-link mean sensitivity (values chosen to show the trend).
    out = []
    for n in (10, 40):
        for m_a in (-20.0, -10.0):
            out.append(
                _asc_spec(
                    f"n{n}-ma{int(m_a)}",
                    replace(_BASE, n_destinations=n, m_a_db=m_a),
                )
            )
        out.append(
            _asc_spec(f"n{n}-no-ph", replace(_BASE, n_destinations=n, pinhole=False))
        )
    return out


def _fig5() -> list[SweepSpec]:
    # Destination vs eavesdropper spread asymmetry.  The s_b < s_e case
    # steepens the inner integrands by the spread ratio, so it ships only at
    # the smaller destination count where order 64 still self-converges to
    # the advertised tolerance; larger N needs a higher order via config.
    combos = ((6.0, 2.0, 10), (6.0, 2.0, 40), (2.0, 6.0, 10))
    return [
        _asc_spec(
            f"n{n}-sb{int(s_b)}-se{int(s_e)}",
            replace(_BASE, n_destinations=n, s_b_db=s_b, s_e_db=s_e),
        )
        for s_b, s_e, n in combos
    ]


def _fig6() -> list[SweepSpec]:
    # Shrinking destination/eavesdropper mean margin.
    return [
        _asc_spec(f"mb{int(m_b)}", replace(_BASE, m_b_db=m_b))
        for m_b in (-20.0, -30.0)
    ]


def _fig7() -> list[SweepSpec]:
    # Impulsive-noise steering: arrival rate and strength swapped across nodes.
    out = []
    for p in (0.1, 0.9):
        for eta_b, eta_e in ((10.0, 100.0), (100.0, 10.0)):
            out.append(
                _asc_spec(
                    f"p{p:g}-etab{int(eta_b)}-etae{int(eta_e)}",
                    replace(_BASE, p_b=p, p_e=p, eta_b=eta_b, eta_e=eta_e),
                )
            )
    return out


def _fig8() -> list[SweepSpec]:
    # Intercept probability vs destination count.  As in the fig5 grid, the
    # s_b < s_e combination is left to explicit configs with a higher
    # quadrature order.
    return [
        _poi_spec("base", _BASE),
        _poi_spec("sb6-se2", replace(_BASE, s_e_db=2.0)),
        _poi_spec("mb-30", replace(_BASE, m_b_db=-30.0)),
    ]


_PRESETS = {
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
}


def available_presets() -> tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def get_preset(name: str) -> list[SweepSpec]:
    """All labelled sweep variants of a named preset."""
    if not isinstance(name, str) or name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(available_presets())}"
        )
    return _PRESETS[name]()
