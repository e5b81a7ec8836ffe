"""Brute-force sampling estimates of the secrecy metrics.

This module is the independent cross-check of the analytical routes: it
never touches the quadrature or closed-form code, it just simulates the
system definition directly.  Per trial it draws the shared gain, the
scheduled (strongest) destination's branch gain, the eavesdropper branch
gain and one Bernoulli noise state per node class, and scores the realized
clamped rate difference (or intercept indicator).  The strongest of N i.i.d.
branches is drawn directly from the elementary CDF of a maximum, ``Phi^N``,
by inversion of one uniform, so a trial costs the same at any N; the
brute-force N-branch sampler lives on in the tests as an oracle.

Reproducibility contract: trials are partitioned into fixed-size blocks,
each block owning a counter-derived substream of the master seed.  Workers
only decide *who* computes a block, never *what* it contains, and block
partials are combined with exact summation, so results are bit-identical
for any worker count and any completion order.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special as sps

from .channel import effective_links
from .errors import ConfigError, EvaluationError
from .metrics import LN2, SecrecyResult, SystemConfig
from .noise import alpha_factors_tilde

__all__ = ["McConfig", "mc_asc", "mc_poi"]

# Trials per substream block; fixed so that the partition of work depends
# only on the sample count, never on the worker count.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class McConfig:
    """Sampling budget, master seed, parallelism and confidence level."""

    samples: int
    seed: int
    workers: int = 1
    confidence: float = 0.99

    def __post_init__(self) -> None:
        # Below 10000 samples the normal-approximation CI means little.
        for name, low in (("samples", 10_000), ("seed", 0), ("workers", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        c = self.confidence
        if isinstance(c, bool) or not isinstance(c, numbers.Real) or not 0.5 < c < 1.0:
            raise ConfigError(f"confidence must be a number in (0.5, 1), got {c!r}")


def _z_score(confidence: float) -> float:
    return float(sps.ndtri(0.5 * (1.0 + confidence)))


def _block_sizes(samples: int) -> list[int]:
    full, rest = divmod(samples, _BLOCK)
    return [_BLOCK] * full + ([rest] if rest else [])


def _run_blocks(mc: McConfig, run_one: Callable[[np.random.Generator, int], tuple]) -> list[tuple]:
    """Evaluate every block on its own substream, in a deterministic layout."""
    sizes = _block_sizes(mc.samples)
    seeds = np.random.SeedSequence(mc.seed).spawn(len(sizes))

    def task(i: int) -> tuple:
        rng = np.random.Generator(np.random.Philox(seeds[i]))
        return run_one(rng, sizes[i])

    if mc.workers == 1 or len(sizes) == 1:
        return [task(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        return list(pool.map(task, range(len(sizes))))


def _best_of_n_normal(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """``m`` draws of the maximum of ``n`` i.i.d. standard normals.

    The maximum has CDF ``Phi(z)^n``, so ``Phi^-1(U^(1/n))`` samples it from
    one uniform ``U``.  It is evaluated as ``-ndtri(1 - U^(1/n))`` with
    ``1 - U^(1/n) = -expm1(log(U) / n)``, which keeps the upper tail (``U^(1/n)``
    near 1) exact.  ``U = 0``, which ``Generator.random`` can return, maps to
    ``-inf``: a best branch gain of exactly 0, its limit.
    """
    u = rng.random(m)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    return -sps.ndtri(-np.expm1(log_u / n))


def mc_asc(cfg: SystemConfig, mc: McConfig) -> SecrecyResult:
    """Sample-mean estimate of the average secrecy capacity with a CI.

    Each trial scores ``max(rate_dest - rate_eav, 0)`` under the *realized*
    noise states (one Bernoulli draw per node class per trial), not the
    probability-weighted mixture; the mixture is what the analytical routes
    integrate, and both have the same expectation.
    """
    topo = cfg.topology
    dest, eav = effective_links(topo)
    src = topo.source_link
    n = topo.n_destinations
    power = cfg.transmit_power
    a1b, a2b = (power * a for a in alpha_factors_tilde(cfg.dest_noise))
    a1e, a2e = (power * a for a in alpha_factors_tilde(cfg.eav_noise))
    p_b = cfg.dest_noise.impulse_prob
    p_e = cfg.eav_noise.impulse_prob

    def run_one(rng: np.random.Generator, m: int) -> tuple:
        # Fixed draw order per block: shared gain, best destination (one
        # uniform per trial), eavesdropper, then the two noise states.  The
        # shared-gain normals are consumed even without a pinhole so paired
        # comparisons share randomness.
        z_a = rng.standard_normal(m)
        z_best = _best_of_n_normal(rng, m, n)
        z_e = rng.standard_normal(m)
        imp_b = rng.random(m) < p_b
        imp_e = rng.random(m) < p_e

        ln_shared = src.s * z_a + src.m if topo.pinhole_present else 0.0
        gain_bn = np.exp(ln_shared + dest.s * z_best + dest.m)
        gain_ee = np.exp(ln_shared + eav.s * z_e + eav.m)
        rate_b = np.log1p(np.where(imp_b, a2b, a1b) * gain_bn)
        rate_e = np.log1p(np.where(imp_e, a2e, a1e) * gain_ee)
        cs = np.maximum(rate_b - rate_e, 0.0) / LN2
        if not np.all(np.isfinite(cs)):
            raise EvaluationError(
                f"non-finite secrecy sample at trial index {int(np.argmax(~np.isfinite(cs)))}"
            )
        return float(cs.sum()), float(np.dot(cs, cs))

    partials = _run_blocks(mc, run_one)
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    count = mc.samples
    mean = total / count
    var = max(total_sq - total * total / count, 0.0) / (count - 1)
    half = _z_score(mc.confidence) * math.sqrt(var / count)
    return SecrecyResult(value=mean, method="monte-carlo", ci_halfwidth=half)


def mc_poi(cfg: SystemConfig, mc: McConfig) -> SecrecyResult:
    """Empirical intercept frequency with a binomial CI.

    The intercept comparison is done on log-gains with the power-free
    SNR factors: the shared gain and the transmit power multiply both sides
    of the inequality, so they are omitted rather than cancelled in floating
    point.  Trial outcomes are therefore identical across transmit powers
    under common random numbers by construction.
    """
    topo = cfg.topology
    dest, eav = effective_links(topo)
    n = topo.n_destinations
    at1b, at2b = alpha_factors_tilde(cfg.dest_noise)
    at1e, at2e = alpha_factors_tilde(cfg.eav_noise)
    log_b = (math.log(at1b), math.log(at2b))
    log_e = (math.log(at1e), math.log(at2e))
    p_b = cfg.dest_noise.impulse_prob
    p_e = cfg.eav_noise.impulse_prob

    def run_one(rng: np.random.Generator, m: int) -> tuple:
        z_best = _best_of_n_normal(rng, m, n)
        z_e = rng.standard_normal(m)
        imp_b = rng.random(m) < p_b
        imp_e = rng.random(m) < p_e

        ln_best = dest.s * z_best + dest.m
        ln_eav = eav.s * z_e + eav.m
        lhs = np.where(imp_b, log_b[1], log_b[0]) + ln_best
        rhs = np.where(imp_e, log_e[1], log_e[0]) + ln_eav
        return (int(np.count_nonzero(lhs < rhs)),)

    partials = _run_blocks(mc, run_one)
    hits = sum(p[0] for p in partials)
    count = mc.samples
    p_hat = hits / count
    half = _z_score(mc.confidence) * math.sqrt(p_hat * (1.0 - p_hat) / count)
    return SecrecyResult(value=p_hat, method="monte-carlo", ci_halfwidth=half)
