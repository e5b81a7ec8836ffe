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

``alpha`` factors are transmit-power-to-effective-noise ratios, one per
state; the ``tilde`` variants strip the transmit power and carry everything
that survives in power-independent expressions (asymptotics, intercept
probability).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError

__all__ = [
    "NoiseEvent",
    "NoiseParams",
    "alpha_factors",
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
    probabilities; ``alpha_b``/``alpha_e`` are the matching SNR factors.
    """

    dest_state: int
    eav_state: int
    probability: float
    alpha_b: float
    alpha_e: float


def alpha_factors(p_transmit: float, noise: NoiseParams) -> tuple[float, float]:
    """SNR factors (state 1, state 2) at transmit power ``p_transmit``."""
    if not (math.isfinite(p_transmit) and p_transmit > 0.0):
        raise ConfigError("transmit power must be finite and > 0")
    a1, a2 = alpha_factors_tilde(noise)
    return p_transmit * a1, p_transmit * a2


def alpha_factors_tilde(noise: NoiseParams) -> tuple[float, float]:
    """Power-stripped SNR factors ``1/var`` and ``1/(var (1 + ratio))``."""
    a1 = 1.0 / noise.background_var
    return a1, a1 / (1.0 + noise.impulse_ratio)


def noise_events(
    dest: NoiseParams, eav: NoiseParams, p_transmit: float
) -> list[NoiseEvent]:
    """The four joint events with probabilities and per-state SNR factors.

    Probabilities are ``(1-p_b)(1-p_e)``, ``(1-p_b) p_e``, ``p_b (1-p_e)``
    and ``p_b p_e``; they sum to 1 exactly up to floating point.
    """
    alphas_b = alpha_factors(p_transmit, dest)
    alphas_e = alpha_factors(p_transmit, eav)
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

