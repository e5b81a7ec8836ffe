"""The package's public surface: exactly the names the three routes, the
sweep layer and the CLI need, each of which resolves."""

import importlib
import pkgutil

import pytest

import plcsec

PUBLIC = [
    "ConfigError",
    "DEFAULT_Q_APPROX",
    "DomainError",
    "EvaluationError",
    "LinkParams",
    "McConfig",
    "NoiseEvent",
    "NoiseParams",
    "PinholeTopology",
    "PlcsecError",
    "QuadratureRule",
    "ScenarioParams",
    "SecrecyResult",
    "SweepError",
    "SweepRow",
    "SweepSpec",
    "SystemConfig",
    "__version__",
    "asc_asymptotic",
    "asc_asymptotic_large_n",
    "asc_quadrature",
    "available_presets",
    "dump_config",
    "effective_links",
    "gauss_hermite_rule",
    "gaussian_segment_integrals",
    "get_preset",
    "link_params_from_db",
    "load_config",
    "loads_config",
    "mc_asc",
    "mc_poi",
    "noise_events",
    "noise_states",
    "poi_closed_form",
    "poi_quadrature",
    "q_function",
    "rows_to_csv",
    "run_sweep",
]

# Helpers that only tests ever called, and the SNR-factor helpers that
# noise_states replaced, by the module that defined them.
REMOVED = {
    "channel": [
        "best_destination_cdf",
        "best_destination_pdf",
        "lognormal_cdf",
        "lognormal_mean",
        "lognormal_pdf",
        "sample_gain",
    ],
    "metrics": [
        "AsymptoticConstants",
        "asymptotic_constants",
        "instantaneous_secrecy_capacity",
    ],
    "noise": ["alpha_factors", "alpha_factors_tilde", "sample_noise_state"],
    "special_math": ["QApproxParams", "expect_standard_normal", "q_approx"],
}

MODULES = [
    importlib.import_module(f"plcsec.{info.name}")
    for info in pkgutil.iter_modules(plcsec.__path__)
]


def test_package_exports_exactly_the_public_names():
    assert sorted(plcsec.__all__) == PUBLIC


@pytest.mark.parametrize("module", [plcsec, *MODULES], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    for name in getattr(module, "__all__", ()):
        assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("home, name", [(m, n) for m, names in REMOVED.items() for n in names])
def test_removed_helpers_are_gone(home, name):
    assert not hasattr(plcsec, name)
    assert not hasattr(importlib.import_module(f"plcsec.{home}"), name)


def test_link_params_has_no_db_constructors():
    assert not hasattr(plcsec.LinkParams, "from_db")
    assert not hasattr(plcsec.LinkParams, "to_db")
