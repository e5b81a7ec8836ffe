"""Brute-force sampling estimates of the secrecy metrics.

This module is the independent cross-check of the analytical routes: it
never touches the quadrature or closed-form code, it just simulates the
system definition directly.  Per trial it draws the shared gain, the
scheduled (strongest) destination's branch gain, the eavesdropper branch
gain and one Bernoulli noise state per node class, and scores the realized
clamped rate difference (or intercept indicator).  The strongest of N i.i.d.
branches is drawn directly from the elementary CDF of a maximum, ``Phi^N``,
by inversion of one uniform, so a trial costs the same at any N; the
brute-force N-branch sampler lives on in the tests as an oracle.  The
inversion is the vectorized AS241 quantile of :mod:`plcsec.special_math`,
within 7e-16 relative of the exact quantile of each uniform; no analytical
route uses it, so the cross-check stays independent.

Reproducibility contract: trials are partitioned into fixed-size blocks,
each block owning a counter-derived substream of the master seed.  Workers
only decide *who* computes a block, never *what* it contains, and block
partials are combined with exact summation, so results are bit-identical
for any worker count and any completion order.

Common random numbers: the draws depend only on ``(samples, seed)`` and the
scenario, never on transmit power, so calls that share a seed share their
trials.  ``mc_asc(..., powers=...)`` uses this to score a whole power axis
from one set of draws.  The best destination's draw from one uniform per
trial does not decrease in N, and ``destinations=`` scores a whole
destination axis from one set of draws.  Estimates at neighbouring axis
points are then correlated; each point's CI stays valid on its own, and
each result is fixed by ``(samples, seed)``, the scenario and the axis
value.
"""

from __future__ import annotations

import itertools
import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .channel import effective_links
from .errors import ConfigError, EvaluationError
from .metrics import LN2, SecrecyResult, SystemConfig, axis_results, route_axes
from .noise import noise_states
from .special_math import normal_quantile

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
    # An array call on one value: callers make it once per call, not per result.
    return float(normal_quantile(0.5 * (1.0 + confidence)))


def _block_sizes(samples: int) -> list[int]:
    full, rest = divmod(samples, _BLOCK)
    return [_BLOCK] * full + ([rest] if rest else [])


def _run_blocks(mc: McConfig, run_one: Callable[[np.random.Generator, int], Sequence]) -> list:
    """Evaluate every block on its own substream, in a deterministic layout."""
    sizes = _block_sizes(mc.samples)
    seeds = np.random.SeedSequence(mc.seed).spawn(len(sizes))

    def task(i: int) -> Sequence:
        rng = np.random.Generator(np.random.Philox(seeds[i]))
        return run_one(rng, sizes[i])

    if mc.workers == 1 or len(sizes) == 1:
        return [task(i) for i in range(len(sizes))]
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        return list(pool.map(task, range(len(sizes))))


def _best_of_n_normals(
    rng: np.random.Generator, m: int, ns: Sequence[int]
) -> Iterator[np.ndarray]:
    """Per destination count ``n`` of ``ns``, ``m`` draws of the maximum of
    ``n`` i.i.d. standard normals, all from the same ``m`` uniforms.

    The maximum has CDF ``Phi(z)^n``, so ``Phi^-1(U^(1/n))`` samples it from
    one uniform ``U``.  It is evaluated as ``-Phi^-1(1 - U^(1/n))`` with
    ``1 - U^(1/n) = -expm1(log(U) / n)``, which keeps the upper tail (``U^(1/n)``
    near 1) exact.  ``U = 0``, which ``Generator.random`` can return, maps to
    ``-inf``: a best branch gain of exactly 0, its limit.  The uniforms are
    drawn, their logs taken and the first count's draws formed by this call,
    before the caller holds its other arrays of the block; each later
    count's draws are formed only when the returned iterator reaches it, so
    no (counts x draws) array is held.
    """
    u = rng.random(m)
    with np.errstate(divide="ignore"):
        log_u = np.log(u)
    draws = (-normal_quantile(-np.expm1(log_u / n)) for n in ns)
    return itertools.chain(list(itertools.islice(draws, 1)), draws)


def _asc_estimate(mc: McConfig, z: float, partials: list) -> SecrecyResult | EvaluationError:
    """Mean and CI, at ``z`` standard errors, from per-block ``(sum, sum of
    squares)``, or the error of the first block that had a non-finite sample."""
    for part in partials:
        if isinstance(part, EvaluationError):
            return part
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    count = mc.samples
    mean = total / count
    var = max(total_sq - total * total / count, 0.0) / (count - 1)
    half = z * math.sqrt(var / count)
    return SecrecyResult(value=mean, method="monte-carlo", ci_halfwidth=half)


def mc_asc(
    cfg: SystemConfig,
    mc: McConfig,
    *,
    powers: Sequence[float] | None = None,
    destinations: Sequence[int] | None = None,
) -> SecrecyResult | list[SecrecyResult | EvaluationError]:
    """Sample-mean estimate of the average secrecy capacity with a CI.

    Each trial scores ``max(rate_dest - rate_eav, 0)`` under the *realized*
    noise states (one Bernoulli draw per node class per trial), not the
    probability-weighted mixture; the mixture is what the analytical routes
    integrate, and both have the same expectation.

    With ``powers``, a sequence of linear transmit powers, each block draws
    its trials once and scores them at every power in turn (common random
    numbers), and a list with one entry per power is returned: entry ``k``
    is bit for bit the result of ``mc_asc(replace(cfg,
    transmit_power=powers[k]), mc)``, or the :class:`EvaluationError` that
    call raises.  ``cfg.transmit_power`` is then not used.

    With ``destinations``, a sequence of destination counts, a list with
    one entry per count is returned in the same way: entry ``k`` is bit for
    bit the call on ``cfg`` with ``n_destinations = destinations[k]``, or
    the error that call raises, and ``cfg.topology.n_destinations`` is not
    used.  A block's draws do not depend on the count, so each block draws
    them, and takes the eavesdropper's rates, once; per count it forms only
    the best destination's draw, its rates and the score.  At most one of
    ``powers`` and ``destinations`` may be given.
    """
    axis, ns = route_axes(cfg, powers, destinations)
    topo = cfg.topology
    dest, eav = effective_links(topo)
    src = topo.source_link
    (_, at1b), (p_b, at2b) = noise_states(cfg.dest_noise)
    (_, at1e), (p_e, at2e) = noise_states(cfg.eav_noise)

    def run_one(rng: np.random.Generator, m: int) -> list:
        # Fixed draw order per block: shared gain, best destination (one
        # uniform per trial), eavesdropper, then the two noise states.  The
        # shared-gain normals are consumed even without a pinhole so paired
        # comparisons share randomness.
        z_a = rng.standard_normal(m)
        z_bests = _best_of_n_normals(rng, m, ns)
        z_e = rng.standard_normal(m)
        at_b = np.where(rng.random(m) < p_b, at2b, at1b)
        at_e = np.where(rng.random(m) < p_e, at2e, at1e)

        # Overflow leaves a non-finite sample, which scoring reports.
        with np.errstate(over="ignore", invalid="ignore"):
            ln_shared = src.s * z_a + src.m if topo.pinhole_present else 0.0
            gain_ee = np.exp(ln_shared + eav.s * z_e + eav.m)
            # Not read again: dropped, they leave room for the per-count draws.
            del z_a, z_e
            # One power serves every count with one set of eavesdropper
            # rates; a power axis (one count) takes them power by power.
            shared_e = _log_rates(axis[0], at_e, gain_ee) if len(axis) == 1 else None
            scores = []
            for z_best in z_bests:
                gain_bn = np.exp(ln_shared + dest.s * z_best + dest.m)
                # One power at a time: a (powers x trials) array would not stay small.
                for power in axis:
                    rate_e = _log_rates(power, at_e, gain_ee) if shared_e is None else shared_e
                    scores.append(_score(_log_rates(power, at_b, gain_bn), rate_e))
            return scores

    partials = _run_blocks(mc, run_one)
    z = _z_score(mc.confidence)
    results = [
        _asc_estimate(mc, z, [block[k] for block in partials]) for k in range(len(partials[0]))
    ]
    return axis_results(results, powers is not None or destinations is not None)


def _log_rates(power: float, at: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """``log1p(power * at * gain)`` per trial, in place to spare the temporaries."""
    rate = np.multiply(power, at)
    rate *= gain
    return np.log1p(rate, out=rate)


def _score(rate_b: np.ndarray, rate_e: np.ndarray) -> tuple | EvaluationError:
    """Sum and sum of squares of one block's secrecy samples from the two
    sides' rates, or the error naming its first non-finite sample.
    ``rate_b`` is overwritten."""
    cs = np.subtract(rate_b, rate_e, out=rate_b)
    np.maximum(cs, 0.0, out=cs)
    cs /= LN2
    # Each clamped sample is >= 0, NaN or +inf, and at most 1024 when
    # finite, so the sum is finite exactly when every sample is.
    total = float(cs.sum())
    if not math.isfinite(total):
        return EvaluationError(
            f"non-finite secrecy sample at trial index {int(np.argmax(~np.isfinite(cs)))}"
        )
    # Squared in place and summed by numpy, not by a BLAS dot product, whose
    # rounding depends on the BLAS thread count.
    cs *= cs
    return total, float(cs.sum())


def mc_poi(
    cfg: SystemConfig, mc: McConfig, *, destinations: Sequence[int] | None = None
) -> SecrecyResult | list[SecrecyResult]:
    """Empirical intercept frequency with a binomial CI.

    The intercept comparison is done on log-gains with the power-free
    SNR factors: the shared gain and the transmit power multiply both sides
    of the inequality, so they are omitted rather than cancelled in floating
    point.  Trial outcomes are therefore identical across transmit powers
    under common random numbers by construction.  ``destinations`` works as
    in :func:`mc_asc`: each block draws once, and its eavesdropper side is
    formed once, for every count.
    """
    _, ns = route_axes(cfg, destinations=destinations)
    dest, eav = effective_links(cfg.topology)
    (_, at1b), (p_b, at2b) = noise_states(cfg.dest_noise)
    (_, at1e), (p_e, at2e) = noise_states(cfg.eav_noise)
    log_b = (math.log(at1b), math.log(at2b))
    log_e = (math.log(at1e), math.log(at2e))

    def run_one(rng: np.random.Generator, m: int) -> list:
        z_bests = _best_of_n_normals(rng, m, ns)
        ln_eav = eav.s * rng.standard_normal(m) + eav.m
        level_b = np.where(rng.random(m) < p_b, log_b[1], log_b[0])
        rhs = np.where(rng.random(m) < p_e, log_e[1], log_e[0])
        rhs += ln_eav
        # Not read again: dropped, it leaves room for the per-count draws.
        del ln_eav
        return [
            int(np.count_nonzero(level_b + (dest.s * z_best + dest.m) < rhs))
            for z_best in z_bests
        ]

    partials = _run_blocks(mc, run_one)
    z = _z_score(mc.confidence)
    count = mc.samples
    results = []
    for k in range(len(ns)):
        p_hat = sum(p[k] for p in partials) / count
        half = z * math.sqrt(p_hat * (1.0 - p_hat) / count)
        results.append(SecrecyResult(value=p_hat, method="monte-carlo", ci_halfwidth=half))
    return axis_results(results, destinations is not None)
