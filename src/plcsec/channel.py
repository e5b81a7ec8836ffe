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

from .errors import ConfigError

__all__ = [
    "DB_TO_NATURAL",
    "LinkParams",
    "PinholeTopology",
    "effective_links",
    "link_params_from_db",
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


def link_params_from_db(m_db: float, s_db: float) -> LinkParams:
    """Convert dB-domain shadowing parameters to the natural-log domain."""
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
