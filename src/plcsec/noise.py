"""Bernoulli-Gaussian impulsive noise at the receiving nodes.

Each receiver sees ever-present background Gaussian noise of variance
``background_var`` plus, with probability ``impulse_prob`` per transmission,
an independent Gaussian impulsive component ``impulse_ratio`` times stronger.
The effective noise variance is therefore two-valued:

    background_var                        with prob. 1 - impulse_prob
    background_var * (1 + impulse_ratio)  with prob. impulse_prob

State 1 means background only, state 2 background plus impulse.  Destination
nodes share one statistic, the eavesdropper has its own, and arrivals at the
two node classes are independent, giving four joint events per transmission.

The SNR factors ``alpha~`` are power-free: ``1 / effective noise variance``,
one per state.  Transmit power multiplies them only where a rate is formed
(the quadrature and Monte Carlo average secrecy capacity); the asymptotes
and the intercept probability never see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "NoiseEvent",
    "NoiseParams",
    "alpha_factors_tilde",
    "noise_events",
]


@dataclass(frozen=True)
class NoiseParams:
    """Noise statistics of one node class (destinations or eavesdropper)."""

    background_var: float = 1.0
    impulse_ratio: float = 0.0
    impulse_prob: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.background_var) and self.background_var > 0.0):
            raise ConfigError("background_var must be finite and > 0")
        if not (math.isfinite(self.impulse_ratio) and self.impulse_ratio >= 0.0):
            raise ConfigError("impulse_ratio must be finite and >= 0")
        if not (0.0 <= self.impulse_prob <= 1.0):
            raise ConfigError("impulse_prob must lie in [0, 1]")


@dataclass(frozen=True)
class NoiseEvent:
    """One of the four joint impulsive-noise events.

    ``dest_state``/``eav_state`` are 1 (background only) or 2 (impulse
    present); ``probability`` is the product of the per-node state
    probabilities; ``alpha_b``/``alpha_e`` are the matching power-free SNR
    factors from :func:`alpha_factors_tilde`.
    """

    dest_state: int
    eav_state: int
    probability: float
    alpha_b: float
    alpha_e: float


def alpha_factors_tilde(noise: NoiseParams) -> tuple[float, float]:
    """Power-free SNR factors ``1/var`` and ``1/(var (1 + ratio))``."""
    a1 = 1.0 / noise.background_var
    return a1, a1 / (1.0 + noise.impulse_ratio)


def noise_events(dest: NoiseParams, eav: NoiseParams) -> list[NoiseEvent]:
    """The four joint events with probabilities and power-free SNR factors.

    Probabilities are ``(1-p_b)(1-p_e)``, ``(1-p_b) p_e``, ``p_b (1-p_e)``
    and ``p_b p_e``; they sum to 1 exactly up to floating point.
    """
    alphas_b = alpha_factors_tilde(dest)
    alphas_e = alpha_factors_tilde(eav)
    weights_b = (1.0 - dest.impulse_prob, dest.impulse_prob)
    weights_e = (1.0 - eav.impulse_prob, eav.impulse_prob)
    return [
        NoiseEvent(
            dest_state=j,
            eav_state=k,
            probability=weights_b[j - 1] * weights_e[k - 1],
            alpha_b=alphas_b[j - 1],
            alpha_e=alphas_e[k - 1],
        )
        for j in (1, 2)
        for k in (1, 2)
    ]

