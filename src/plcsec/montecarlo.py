"""Brute-force sampling estimates of the secrecy metrics.

This module is the independent cross-check of the analytical routes: it
never touches the quadrature or closed-form code, it just simulates the
system definition directly.  Per trial it draws the shared gain, the
scheduled (strongest) destination's branch gain, the eavesdropper branch
gain and one Bernoulli noise state per node class, and scores the realized
clamped rate difference (or intercept indicator).  The clamped rate
difference is one ``log1p`` per trial and power, ``log1p(d / (x_e + 1/P))``
over the power-free gain gap ``d`` (see :func:`_secrecy_sample`).  The
strongest of N i.i.d. branches is drawn directly from the elementary CDF of
a maximum, ``Phi^N``, by inversion of one uniform, so a trial costs the same
at any N; the brute-force N-branch sampler lives on in the tests as an
oracle.  The inversion is the vectorized AS241 quantile of
:mod:`plcsec.special_math`, within 7e-16 relative of the exact quantile of
each uniform; no analytical route uses it, so the cross-check stays
independent.

Memory: a block holds only the arrays it still reads, and each step
writes over an array the block owns and no longer needs.  A block drawn
for one destination count (every power axis and every single call) forms
each side's gain as its draws arrive: the best destination's draw over its
uniforms as soon as they are drawn, the eavesdropper's normals ``step`` at
a time into the shared gain's buffer, and each noise state slice by slice
as its indicator is drawn, so no indicator array is kept.  It holds two
whole-block arrays while it draws, and the ASC three while it scores
(``x_e``, ``d`` and ``x_e + 1/P``): one serial 65536-trial block peaks at
1.51 MiB traced over 36 powers, 1.08 MiB for the POI.  A destination axis
reads the uniforms' logs, the shared gain and the destination's
indicator (1 byte per trial) at every count, so it keeps them, and lets
each count's draw go before it forms the next: 3.09 MiB over 16 counts,
2.09 MiB for the POI.
A serial run draws in slices of ``_SLICE`` trials, so the temporaries of
a best-destination draw, a noise state or a slice of normals take 64 KiB
each.  A run on worker threads draws whole blocks instead (3.65 MiB for
one count, 6.19 MiB over 16, most of it AS241's temporaries): each numpy
call of a slice would hand the GIL from one worker thread to another, and
on two workers those handoffs doubled the time of a destination axis.

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

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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

# Trials per slice of a best-destination draw in a serial run: AS241's
# temporaries then take 64 KiB each.  Every step is elementwise, so the
# slice size never moves a bit.
_SLICE = 1 << 13


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


def _draw_step(mc: McConfig) -> int:
    """Trials per slice of a best-destination draw: ``_SLICE`` when the
    blocks run one after another, a whole block when :func:`_run_blocks`
    runs them on worker threads, which share the GIL."""
    return _BLOCK if mc.workers > 1 and mc.samples > _BLOCK else _SLICE


def _run_blocks(mc: McConfig, run_one: Callable[[np.random.Generator, int, int], Sequence]) -> list:
    """Evaluate every block on its own substream, in a deterministic layout.
    ``run_one`` gets the block's generator, its trial count and the run's
    index of its first trial."""
    sizes = _block_sizes(mc.samples)
    seeds = np.random.SeedSequence(mc.seed).spawn(len(sizes))

    def task(i: int) -> Sequence:
        rng = np.random.Generator(np.random.Philox(seeds[i]))
        return run_one(rng, sizes[i], i * _BLOCK)

    if mc.workers == 1 or len(sizes) == 1:
        return [task(i) for i in range(len(sizes))]
    # Imported only here: with logging it is 0.68 MiB resident, which a
    # serial run does not need.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        return list(pool.map(task, range(len(sizes))))


def _indicator(rng: np.random.Generator, m: int, p: float, step: int) -> Iterator[np.ndarray]:
    """The impulse indicator ``rng.random(m) < p``, ``step`` trials at a
    time, each slice drawn when the iterator reaches it.  Each double takes
    one word of the stream, so the slices draw the same uniforms as one
    whole call."""
    return (rng.random(min(step, m - lo)) < p for lo in range(0, m, step))


def _apply_state(
    op: np.ufunc, x: np.ndarray, hits: Iterable[np.ndarray], levels: tuple, step: int
) -> np.ndarray:
    """``op(x, levels[1])`` where the impulse indicator is set and
    ``op(x, levels[0])`` elsewhere, written over ``x`` ``step`` trials at a
    time, so a slice's levels take 64 KiB.  ``hits`` gives the indicator of
    each slice in turn, as :func:`_indicator` draws it or from a list of
    slices kept for several counts.  (Masked ufuncs, ``where=hit`` and
    ``where=~hit``, form no levels at all but took 3.4 times as long on a
    65536-trial block.)"""
    for lo, hit in zip(range(0, x.size, step), hits):
        part = x[lo : lo + step]
        op(part, np.where(hit, levels[1], levels[0]), out=part)
    return x


def _log_gain(
    z: np.ndarray, link, ln_shared: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """``link.s * z + ln_shared + link.m``, a side's log gain without its
    noise state, written over ``z`` or to ``out``."""
    z *= link.s
    if ln_shared is not None:
        z += ln_shared
    return np.add(z, link.m, out=z if out is None else out)


def _drawn_log_gain(
    rng: np.random.Generator, out: np.ndarray, link, ln_shared: np.ndarray | None, step: int
) -> np.ndarray:
    """:func:`_log_gain` of ``out.size`` standard normals, drawn ``step`` at
    a time and written to ``out``, which may be ``ln_shared`` itself.  A
    ziggurat draw taken in slices reads the stream as one call does."""
    for lo in range(0, out.size, step):
        part = out[lo : lo + step]
        shared = None if ln_shared is None else ln_shared[lo : lo + step]
        _log_gain(rng.standard_normal(part.size), link, shared, part)
    return out


def _best_of_n_normals(
    rng: np.random.Generator, m: int, ns: Sequence[int], step: int = _SLICE
) -> Iterator[np.ndarray]:
    """Per destination count ``n`` of ``ns``, ``m`` draws of the maximum of
    ``n`` i.i.d. standard normals, all from the same ``m`` uniforms.

    The maximum has CDF ``Phi(z)^n``, so ``Phi^-1(U^(1/n))`` samples it from
    one uniform ``U``.  It is evaluated as ``-Phi^-1(1 - U^(1/n))`` with
    ``1 - U^(1/n) = -expm1(log(U) / n)``, which keeps the upper tail (``U^(1/n)``
    near 1) exact.  ``U = 0``, which ``Generator.random`` can return, maps to
    ``-inf``: a best branch gain of exactly 0, its limit.  The uniforms are
    drawn and their logs taken by this call; each count's draws are formed,
    ``step`` trials at a time, only when the returned iterator reaches it,
    and the last count's over the uniforms' own buffer, so no (counts x
    draws) array is held.
    """
    u = rng.random(m)
    with np.errstate(divide="ignore"):
        log_u = np.log(u, out=u)
    last = len(ns) - 1
    return (
        _best_draw(log_u, n, log_u if k == last else None, step) for k, n in enumerate(ns)
    )


def _best_draw(
    log_u: np.ndarray, n: int, out: np.ndarray | None = None, step: int = _SLICE
) -> np.ndarray:
    """``-Phi^-1(-expm1(log_u / n))``, ``step`` trials at a time.  Each slice
    is formed in the part of ``out`` it fills (``out`` may be ``log_u``
    itself); without ``out``, a sliced draw gets a new array and a whole one
    the quantile's own."""
    if out is None and step < log_u.size:
        out = np.empty_like(log_u)
    for lo in range(0, log_u.size, step):
        part = None if out is None else out[lo : lo + step]
        t = np.divide(log_u[lo : lo + step], n, out=part)
        np.expm1(t, out=t)
        z = normal_quantile(np.negative(t, out=t))
        if out is None:
            return np.negative(z, out=z)
        np.negative(z, out=part)
    return out


def _asc_estimate(mc: McConfig, z: float, partials: list) -> SecrecyResult | EvaluationError:
    """Mean and CI in bits/use, at ``z`` standard errors, from per-block
    ``(sum, sum of squares)`` of samples in nats, or the error of the first
    block that had a non-finite sample.  The samples convert to bits here,
    once per result."""
    for part in partials:
        if isinstance(part, EvaluationError):
            return part
    total = math.fsum(p[0] for p in partials)
    total_sq = math.fsum(p[1] for p in partials)
    count = mc.samples
    mean = total / count / LN2
    var = max(total_sq - total * total / count, 0.0) / (count - 1)
    half = z * math.sqrt(var / count) / LN2
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

    A trial's sample is taken in nats as ``log1p(d / (x_e + 1/P))``, where
    ``x = alpha * g`` is each side's power-free SNR factor times its gain
    and ``d = max(x_b - x_e, 0)``, and converted to bits once per result.
    Where ``P x`` overflows, as at 3000 dB, the sample stays finite and the
    estimate saturates; a sample that still overflows, or an infinite
    gain, is reported by its trial's index in the run.

    With ``powers``, a sequence of linear transmit powers, each block draws
    its trials, forms ``x_e`` and ``d`` once and scores them at every power
    in turn (common random numbers): per power one buffer takes
    ``x_e + 1/P``, then the division, the ``log1p`` and the two sums over
    it.  While it scores, the block holds only ``x_e``, ``d`` and that
    buffer, and while it draws, two whole-block arrays: each side's gain is
    formed as its draws arrive.
    A list with one entry per power is returned: entry ``k`` is bit for bit
    the result of ``mc_asc(replace(cfg, transmit_power=powers[k]), mc)``, or
    the :class:`EvaluationError` that call raises.  ``cfg.transmit_power``
    is then not used.

    With ``destinations``, a sequence of destination counts, a list with
    one entry per count is returned in the same way: entry ``k`` is bit for
    bit the call on ``cfg`` with ``n_destinations = destinations[k]``, or
    the error that call raises, and ``cfg.topology.n_destinations`` is not
    used.  A block's draws do not depend on the count, so each block draws
    them, and forms ``x_e``, once; per count it forms only the best
    destination's draw, ``d`` and the score.  At most one of
    ``powers`` and ``destinations`` may be given.
    """
    axis, ns = route_axes(cfg, powers, destinations)
    if not (axis and ns):
        return []
    topo = cfg.topology
    dest, eav = effective_links(topo)
    src = topo.source_link
    step = _draw_step(mc)
    (_, at1b), (p_b, at2b) = noise_states(cfg.dest_noise)
    (_, at1e), (p_e, at2e) = noise_states(cfg.eav_noise)
    at_b, at_e = (at1b, at2b), (at1e, at2e)

    def run_one(rng: np.random.Generator, m: int, first: int) -> list:
        # Fixed draw order per block: shared gain, best destination (one
        # uniform per trial), eavesdropper, then the two noise states.  The
        # shared-gain normals are consumed even without a pinhole so paired
        # comparisons share randomness.  Overflow leaves a non-finite
        # sample, which scoring reports.  Each step writes over an array
        # this block owns.
        with np.errstate(over="ignore", invalid="ignore"):
            z_a = rng.standard_normal(m)
            ln_shared = _log_gain(z_a, src) if topo.pinhole_present else None
            z_bests = _best_of_n_normals(rng, m, ns, step)
            if len(ns) == 1:
                # Formed as soon as its uniforms are drawn: ln_shared is then
                # read no more, x_e takes its buffer, and each noise state
                # is applied as it is drawn.
                (z_best,) = z_bests
                x_b = _power_free_gain(z_best, dest, ln_shared)
                x_e = _drawn_log_gain(rng, z_a, eav, ln_shared, step)
                x_bs = [_apply_state(np.multiply, x_b, _indicator(rng, m, p_b, step), at_b, step)]
            else:
                # Every count reads ln_shared and the destination's state;
                # map holds no count's draw while it forms the next.
                buf = z_a if ln_shared is None else np.empty(m)
                x_e = _drawn_log_gain(rng, buf, eav, ln_shared, step)
                hits_b = list(_indicator(rng, m, p_b, step))
                x_bs = map(
                    lambda z: _apply_state(
                        np.multiply, _power_free_gain(z, dest, ln_shared), hits_b, at_b, step
                    ),
                    z_bests,
                )
            np.exp(x_e, out=x_e)
            _apply_state(np.multiply, x_e, _indicator(rng, m, p_e, step), at_e, step)
            den = np.empty_like(x_e)
            scores = []
            for x_b in x_bs:
                d = _gain_gap(x_b, x_e)
                for power in axis:
                    np.add(x_e, 1.0 / power, out=den)
                    scores.append(_score(_secrecy_sample(d, den, den), first))
                # Let go before the next count's draw is formed.
                del x_b, d
            return scores

    partials = _run_blocks(mc, run_one)
    z = _z_score(mc.confidence)
    results = [
        _asc_estimate(mc, z, [block[k] for block in partials]) for k in range(len(partials[0]))
    ]
    return axis_results(results, powers is not None or destinations is not None)


def _power_free_gain(z: np.ndarray, link, ln_shared: np.ndarray | None) -> np.ndarray:
    """``exp(ln_shared + link.s * z + link.m)``, a side's SNR factor times
    its gain before its noise state is applied, written over ``z``."""
    return np.exp(_log_gain(z, link, ln_shared), out=z)


def _gain_gap(x_b: np.ndarray, x_e: np.ndarray) -> np.ndarray:
    """``d = max(x_b - x_e, 0)``, the power-free gain gap, written over ``x_b``."""
    d = np.subtract(x_b, x_e, out=x_b)
    return np.maximum(d, 0.0, out=d)


def _secrecy_sample(d: np.ndarray, den: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One secrecy sample per trial in nats, ``log1p(d / den)``, written to
    ``out``, from the gain gap ``d`` and the denominator ``den = x_e + 1/P``.

    ``max(log1p(P x_b) - log1p(P x_e), 0)`` is ``log1p(d / (x_e + 1/P))``
    with ``d = max(x_b - x_e, 0)``: one ``log1p`` per trial and power.  It
    stays finite where ``P x`` overflows, and unlike the difference of two
    ``log1p`` it does not cancel where the two rates nearly agree; ``d = 0``
    scores exactly 0.
    """
    np.divide(d, den, out=out)
    return np.log1p(out, out=out)


def _score(cs: np.ndarray, first: int) -> tuple | EvaluationError:
    """Sum and sum of squares of one block's secrecy samples, in nats, or
    the error naming its first non-finite sample by its index in the run;
    ``first`` is the run's index of the block's first trial.  ``cs`` is
    overwritten."""
    # Each sample is >= 0, NaN or +inf, and below 710 when finite, so the
    # sum is finite exactly when every sample is.
    total = float(cs.sum())
    if not math.isfinite(total):
        index = first + int(np.argmax(~np.isfinite(cs)))
        return EvaluationError(f"non-finite secrecy sample at trial index {index}")
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
    if not ns:
        return []
    dest, eav = effective_links(cfg.topology)
    step = _draw_step(mc)
    (_, at1b), (p_b, at2b) = noise_states(cfg.dest_noise)
    (_, at1e), (p_e, at2e) = noise_states(cfg.eav_noise)
    log_b = (math.log(at1b), math.log(at2b))
    log_e = (math.log(at1e), math.log(at2e))

    def run_one(rng: np.random.Generator, m: int, _first: int) -> list:
        z_bests = _best_of_n_normals(rng, m, ns, step)
        if len(ns) == 1:
            # Formed over the uniforms as soon as they are drawn, and its
            # noise state as it is drawn.
            (z_best,) = z_bests
            z_best = _log_gain(z_best, dest)
            rhs = _drawn_log_gain(rng, np.empty(m), eav, None, step)
            zs = [_apply_state(np.add, z_best, _indicator(rng, m, p_b, step), log_b, step)]
        else:
            # (s z + m) + level_b per count; map holds no count's draw while
            # it forms the next.
            rhs = _drawn_log_gain(rng, np.empty(m), eav, None, step)
            hits_b = list(_indicator(rng, m, p_b, step))
            zs = map(
                lambda z: _apply_state(np.add, _log_gain(z, dest), hits_b, log_b, step), z_bests
            )
        # ln_eav + level_e.
        _apply_state(np.add, rhs, _indicator(rng, m, p_e, step), log_e, step)
        return list(map(lambda z: int(np.count_nonzero(z < rhs)), zs))

    partials = _run_blocks(mc, run_one)
    z = _z_score(mc.confidence)
    count = mc.samples
    results = []
    for k in range(len(ns)):
        p_hat = sum(p[k] for p in partials) / count
        half = z * math.sqrt(p_hat * (1.0 - p_hat) / count)
        results.append(SecrecyResult(value=p_hat, method="monte-carlo", ci_halfwidth=half))
    return axis_results(results, destinations is not None)
