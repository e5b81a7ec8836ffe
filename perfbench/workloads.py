"""Sweep configurations of the three benchmark workloads.

Every workload is a list of sweeps; each sweep is one complete YAML config
that the benchmark hands to ``plcsec sweep``.  The configs are written out in
full rather than by preset name, so that a change to the presets does not
silently change what the benchmark measures.  Only the Monte Carlo master
seed depends on the benchmark seed; every other input is fixed.

Why each workload is here (and which layer it stresses) is recorded in
``BENCHMARK.json`` and ``perfbench/README.md``.
"""

from __future__ import annotations

# -10 .. 60 dB in 2 dB steps (36 points), the grid of the fig3-fig7 presets.
POWER_GRID_DB = [float(p) for p in range(-10, 62, 2)]
# -10 .. 60 dB in 0.25 dB steps (281 points).
FINE_POWER_GRID_DB = [-10.0 + 0.25 * i for i in range(281)]
# Destination counts on both sides of the closed forms' switch to mpmath at 25.
N_GRID = [1, 2, 4, 8, 16, 24, 25, 32, 48, 64, 96, 128, 192, 256]

MC_SAMPLES = 100_000
HIGH_ORDER = 160


def _system(n=10, pinhole=True, m_a=-20.0, m_b=-20.0, s_b=6.0, s_e=6.0,
            p=0.1, eta_b=10.0, eta_e=10.0) -> dict:
    """A scenario; the defaults are the presets' base scenario."""
    return {
        "n_destinations": n,
        "pinhole": pinhole,
        "transmit_power_db": 20.0,
        "source": {"mean_db": m_a, "sd_db": 6.0},
        "destination": {"mean_db": m_b, "sd_db": s_b},
        "eavesdropper": {"mean_db": -40.0, "sd_db": s_e},
        "dest_noise": {"background_var": 1.0, "impulse_ratio": eta_b, "impulse_prob": p},
        "eav_noise": {"background_var": 1.0, "impulse_ratio": eta_e, "impulse_prob": p},
    }


def _sweep(label, metric, axis, values, methods, system, seed, order=64) -> dict:
    return {
        "label": label,
        "metric": metric,
        "axis": axis,
        "values": list(values),
        "methods": list(methods),
        "quadrature_order": order,
        "monte_carlo": {"samples": MC_SAMPLES, "seed": seed, "workers": 1},
        "system": system,
    }


def _power_sweep(seed: int) -> list[dict]:
    asc = ("quadrature", "asymptotic", "monte-carlo")
    poi = ("quadrature", "closed-form-poi", "monte-carlo")
    return [
        _sweep("fig3-n10-ph", "asc", "transmit_power_db", POWER_GRID_DB, asc, _system(n=10), seed),
        _sweep("fig3-n40-ph", "asc", "transmit_power_db", POWER_GRID_DB, asc, _system(n=40), seed),
        # The benchmark's only MC POI, so that mc_poi is measured too.  The
        # fig8 "mb-30" scenario has POI ~ 0.011: about 1100 hits per 10^5
        # trials, enough for the binomial CI the gate relies on.
        _sweep("poi-n10-mb-30", "poi", "transmit_power_db", POWER_GRID_DB, poi,
               _system(n=10, m_b=-30.0), seed),
    ]


def _n_sweep(seed: int) -> list[dict]:
    asc = ("quadrature", "asymptotic", "asymptotic-large-n")
    poi = ("quadrature", "closed-form-poi")
    return [
        _sweep("asc-n", "asc", "n_destinations", N_GRID, asc, _system(), seed),
        _sweep("poi-n", "poi", "n_destinations", N_GRID, poi, _system(), seed),
    ]


def _quadrature_grid(seed: int) -> list[dict]:
    variants = []
    for n in (10, 40):  # fig4
        for m_a in (-20.0, -10.0):
            variants.append((f"fig4-n{n}-ma{int(m_a)}", _system(n=n, m_a=m_a)))
        variants.append((f"fig4-n{n}-no-ph", _system(n=n, pinhole=False)))
    for s_b, s_e, n in ((6.0, 2.0, 10), (6.0, 2.0, 40), (2.0, 6.0, 10)):  # fig5
        variants.append((f"fig5-n{n}-sb{int(s_b)}-se{int(s_e)}", _system(n=n, s_b=s_b, s_e=s_e)))
    for m_b in (-20.0, -30.0):  # fig6
        variants.append((f"fig6-mb{int(m_b)}", _system(m_b=m_b)))
    for p in (0.1, 0.9):  # fig7
        for eta_b, eta_e in ((10.0, 100.0), (100.0, 10.0)):
            variants.append(
                (f"fig7-p{p:g}-etab{int(eta_b)}-etae{int(eta_e)}",
                 _system(p=p, eta_b=eta_b, eta_e=eta_e))
            )
    sweeps = [
        _sweep(label, "asc", "transmit_power_db", FINE_POWER_GRID_DB, ("quadrature",), system, seed)
        for label, system in variants
    ]
    # The s_b < s_e family, which order 64 does not resolve.
    for n in (10, 40):
        sweeps.append(
            _sweep(f"sb2-se6-n{n}-q{HIGH_ORDER}", "asc", "transmit_power_db", FINE_POWER_GRID_DB,
                   ("quadrature",), _system(n=n, s_b=2.0, s_e=6.0), seed, order=HIGH_ORDER)
        )
    sweeps.append(
        _sweep(f"sb2-se6-poi-q{HIGH_ORDER}", "poi", "n_destinations", range(1, 65),
               ("quadrature",), _system(s_b=2.0, s_e=6.0), seed, order=HIGH_ORDER)
    )
    return sweeps


WORKLOADS = {
    "power-sweep": _power_sweep,
    "n-sweep": _n_sweep,
    "quadrature-grid": _quadrature_grid,
}


def workload_sweeps(name: str, seed: int) -> list[dict]:
    """The sweep configs of one workload; ``seed`` becomes the MC master seed."""
    return WORKLOADS[name](seed)
