"""Bernoulli-Gaussian impulsive noise at the receiving nodes.

Each receiver sees ever-present background Gaussian noise of variance
``background_var`` plus, with probability ``impulse_prob`` per transmission,
an independent Gaussian impulsive component ``impulse_ratio`` times stronger.
So each node class has two noise states, state 1 (background only) and state
2 (impulse present), tabulated by :func:`noise_states`.  Destination nodes
share one statistic, the eavesdropper has its own, and the two node classes
are independent: the four joint events of :func:`noise_events` are the
product of the two tables.

The SNR factors ``alpha~`` are power-free, ``1 / noise variance`` per state,
and :class:`NoiseParams` accepts only settings where both are finite and > 0.
Transmit power multiplies them only where a rate is formed (the quadrature
and Monte Carlo average secrecy capacity); the asymptotes and the intercept
probability never see it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError

__all__ = ["NoiseEvent", "NoiseParams", "noise_events", "noise_states"]


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
        (_, a1), (_, a2) = noise_states(self)
        if not 0.0 < a2 <= a1 < math.inf:
            raise ConfigError(
                "background_var and impulse_ratio must give SNR factors in (0, inf)"
            )


class NoiseEvent(NamedTuple):
    """One joint impulsive-noise event: its probability and the power-free
    SNR factors of the destination's and the eavesdropper's noise state."""

    probability: float
    alpha_b: float
    alpha_e: float


def noise_states(noise: NoiseParams) -> tuple[tuple[float, float], tuple[float, float]]:
    """``(probability, SNR factor)`` of state 1 and of state 2:
    ``(1 - p, 1/var)`` and ``(p, 1/(var (1 + ratio)))``."""
    a1 = 1.0 / noise.background_var
    p = noise.impulse_prob
    return (1.0 - p, a1), (p, a1 / (1.0 + noise.impulse_ratio))


def noise_events(dest: NoiseParams, eav: NoiseParams) -> list[NoiseEvent]:
    """The four joint events: the product of the two nodes' state tables.

    Destination-state-major: event ``k`` has destination state ``k // 2 + 1``
    and eavesdropper state ``k % 2 + 1``.  The probabilities sum to 1 up to
    rounding."""
    return [
        NoiseEvent(pb * pe, ab, ae)
        for pb, ab in noise_states(dest)
        for pe, ae in noise_states(eav)
    ]
