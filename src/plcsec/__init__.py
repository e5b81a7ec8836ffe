"""Secrecy metrics for pinhole-based power-line networks.

The package computes the average secrecy capacity and the probability of
intercept of a network where one source talks to the best of N candidate
destinations through a shared pinhole node, under log-normal link gains and
Bernoulli-Gaussian impulsive noise -- by exact quadrature, by closed-form
asymptotics and by Monte Carlo simulation, so the three routes can
cross-validate each other.
"""

from .channel import (
    LinkParams,
    PinholeTopology,
    effective_links,
    link_params_from_db,
)
from .config import dump_config, load_config, loads_config
from .errors import ConfigError, DomainError, EvaluationError, PlcsecError
from .metrics import (
    SecrecyResult,
    SystemConfig,
    asc_asymptotic,
    asc_asymptotic_large_n,
    asc_quadrature,
    poi_closed_form,
    poi_quadrature,
)
from .montecarlo import McConfig, mc_asc, mc_poi
from .noise import (
    NoiseEvent,
    NoiseParams,
    noise_events,
    noise_states,
)
from .presets import available_presets, get_preset
from .special_math import (
    DEFAULT_Q_APPROX,
    QuadratureRule,
    gauss_hermite_rule,
    gaussian_segment_integrals,
)
from .sweep import (
    ScenarioParams,
    SweepError,
    SweepRow,
    SweepSpec,
    rows_to_csv,
    run_sweep,
)

__version__ = "0.1.0"

__all__ = [
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
    "rows_to_csv",
    "run_sweep",
    "__version__",
]
