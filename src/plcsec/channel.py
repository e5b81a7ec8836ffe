"""Log-normal link statistics and the shared-segment (pinhole) topology.

A link gain ``g`` is log-normal: ``ln g ~ Normal(m, s^2)`` with ``m`` and
``s`` kept in the natural-log domain.  Field measurements quote both in dB;
``link_params_from_db`` applies the shadowing convention

    m = m_dB * ln(10) / 10,    s = s_dB * ln(10) / 10,

i.e. ``10 log10(g)`` is the Gaussian being described.  This convention is a
modeling choice (sources rarely state it); results can be re-based to the
amplitude convention by halving every dB figure.

All end-to-end gains through a pinhole share the source-to-pinhole factor,
so the scheduled destination and the eavesdropper are correlated.  The
baseline without a pinhole pins that factor to 1 and folds its average gain
into the remaining links (``effective_links``) so both systems have the same
average SNR per end-to-end link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DomainError
from .special_math import SQRT_2PI, q_function

__all__ = [
    "DB_TO_NATURAL",
    "LinkParams",
    "PinholeTopology",
    "best_destination_cdf",
    "best_destination_pdf",
    "effective_links",
    "link_params_from_db",
    "lognormal_cdf",
    "lognormal_mean",
    "lognormal_pdf",
    "sample_gain",
]

DB_TO_NATURAL = math.log(10.0) / 10.0


@dataclass(frozen=True)
class LinkParams:
    """Natural-log mean ``m`` and standard deviation ``s`` of one link gain."""

    m: float
    s: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.m):
            raise ConfigError("LinkParams.m must be finite")
        if not (math.isfinite(self.s) and self.s > 0.0):
            raise ConfigError("LinkParams.s must be finite and > 0")

    @classmethod
    def from_db(cls, m_db: float, s_db: float) -> "LinkParams":
        return link_params_from_db(m_db, s_db)

    def to_db(self) -> tuple[float, float]:
        """Inverse of :func:`link_params_from_db`."""
        return self.m / DB_TO_NATURAL, self.s / DB_TO_NATURAL


def link_params_from_db(m_db: float, s_db: float) -> LinkParams:
    """Convert dB-domain shadowing parameters to the natural-log domain."""
    if not (math.isfinite(m_db) and math.isfinite(s_db)):
        raise ConfigError("dB link parameters must be finite")
    if s_db <= 0.0:
        raise ConfigError("s_db must be > 0")
    return LinkParams(m=m_db * DB_TO_NATURAL, s=s_db * DB_TO_NATURAL)


@dataclass(frozen=True)
class PinholeTopology:
    """One source, N i.i.d. candidate destinations and one eavesdropper.

    Every branch hangs off the same pinhole node, so end-to-end gains are
    products ``g_source * g_branch``.  ``pinhole_present=False`` models the
    direct-link baseline: the shared factor is fixed to 1 and its average
    gain is folded into the branch links (see :func:`effective_links`).
    """

    source_link: LinkParams
    destination_link: LinkParams
    eavesdropper_link: LinkParams
    n_destinations: int
    pinhole_present: bool = True

    def __post_init__(self) -> None:
        if not is_destination_count(self.n_destinations):
            raise ConfigError("n_destinations must be a positive integer")


def is_destination_count(n) -> bool:
    """True for a positive integer, numpy integers included and bools not."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


def _check_positive(x, what: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise DomainError(f"{what} requires x > 0")
    return arr


def lognormal_pdf(x, link: LinkParams):
    """Density ``(x s sqrt(2 pi))^-1 exp(-(ln x - m)^2 / (2 s^2))``, x > 0."""
    arr = _check_positive(x, "lognormal_pdf")
    z = (np.log(arr) - link.m) / link.s
    out = np.exp(-0.5 * z * z) / (arr * link.s * SQRT_2PI)
    return float(out) if arr.ndim == 0 else out


def lognormal_cdf(x, link: LinkParams):
    """Distribution function ``1 - Q((ln x - m) / s)``, x > 0."""
    arr = _check_positive(x, "lognormal_cdf")
    out = 1.0 - q_function((np.log(arr) - link.m) / link.s)
    return float(out) if arr.ndim == 0 else out


def lognormal_mean(link: LinkParams) -> float:
    """Average gain ``exp(m + s^2 / 2)``."""
    return math.exp(link.m + 0.5 * link.s * link.s)


def best_destination_cdf(x, topo: PinholeTopology):
    """CDF of the largest of the N i.i.d. destination gains: ``F(x)^N``."""
    arr = _check_positive(x, "best_destination_cdf")
    out = lognormal_cdf(arr, topo.destination_link) ** topo.n_destinations
    return float(out) if arr.ndim == 0 else out


def best_destination_pdf(x, topo: PinholeTopology):
    """Density of the largest destination gain: ``N F^(N-1) f``."""
    arr = _check_positive(x, "best_destination_pdf")
    n = topo.n_destinations
    out = (
        n
        * lognormal_cdf(arr, topo.destination_link) ** (n - 1)
        * lognormal_pdf(arr, topo.destination_link)
    )
    return float(out) if arr.ndim == 0 else out


def sample_gain(link: LinkParams, rng: np.random.Generator, size=None):
    """Draw ``exp(m + s Z)`` from an exclusively held generator.

    Deterministic given the generator state; pass ``size`` for a vectorized
    draw (consumes the same stream in the same order).
    """
    z = rng.standard_normal(size)
    return np.exp(link.m + link.s * z)


def effective_links(topo: PinholeTopology) -> tuple[LinkParams, LinkParams]:
    """End-to-end branch statistics once the shared factor is accounted for.

    With the pinhole present the branch links are returned unchanged (the
    shared gain is handled explicitly by the metrics).  Without it the shared
    gain is pinned to 1, and fairness requires equal *average* SNR per
    end-to-end link, so both branch means absorb the log of the removed
    factor's average: ``m += m_source + s_source^2 / 2``.
    """
    if topo.pinhole_present:
        return topo.destination_link, topo.eavesdropper_link
    shift = topo.source_link.m + 0.5 * topo.source_link.s**2
    return (
        replace(topo.destination_link, m=topo.destination_link.m + shift),
        replace(topo.eavesdropper_link, m=topo.eavesdropper_link.m + shift),
    )
