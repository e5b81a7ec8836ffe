"""Average secrecy capacity and intercept probability of the scheduled system.

The instantaneous secrecy rate is the clamped difference between the
scheduled destination's rate and the eavesdropper's rate, mixed over the
four joint impulsive-noise events.  Three independent evaluation routes are
provided for its average:

* ``asc_quadrature`` -- the exact expectation reduced to nested
  standard-normal expectations and evaluated with Gauss-Hermite rules.  The
  positivity clamp is encoded in the integration limits, which surface as a
  log-normal CDF factor inside each inner integrand; residual negativity of
  the result therefore indicates quadrature error and is reported, not
  clipped.  The sum runs, per side, over the pairs of the outer and inner
  nodes that hold a pair whose term can exceed ``1e-20`` times the
  largest-weight term of its (side, noise state) at some power; the pairs
  left out move it by less than its own rounding.  A power axis is checked
  for overflow at once and takes its rates in blocks of powers; on a
  destination axis each count runs the one-count body on its own kept
  pairs.
* ``asc_asymptotic`` / ``asc_asymptotic_large_n`` -- closed forms for the
  high-power saturation value, obtained by dropping the +1 inside both log
  terms (the shared pinhole gain then cancels, so the result is independent
  of transmit power).  All terms but the eavesdropper's clamp are linear in
  the log SNR factors, so they take their mean over the noise events once.
* ``poi_quadrature`` / ``poi_closed_form`` -- the probability that the
  eavesdropper's rate exceeds the scheduled destination's.  The shared gain
  and the transmit power cancel in the defining inequality, so both
  functions are structurally independent of transmit power.

Every closed-form term is one expectation ``E[(c0 + c1 T) Phi(T)^m]`` over
a Gaussian T, taken through the exponential Q-fit by
:func:`plcsec.special_math.fit_expectation` for every count of a call, and
every noise event of a term, at once.  Below 0 it is a half-axis Gaussian
segment integral.  Above 0, expanding ``(1 - Qfit)^m`` binomially would give
alternating sums whose terms grow like exp(0.55 N) while the sum stays
bounded; the power is integrated instead by a composite Gauss-Legendre rule
in double precision, windowed to where the integrand lives.  Cost and
accuracy do not depend on N, and that integral's error estimate, which
covers what the window drops, is reported as ``integration_error``.

Every route takes ``destinations=``, a sequence of destination counts, and
returns one entry per count, each bit for bit the call on a configuration
with that ``n_destinations``: the nodes, CDFs and fitted logs that do not
depend on N are built once per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import ClassVar, Mapping, Sequence

import numpy as np

from .channel import LinkParams, PinholeTopology, effective_links, is_destination_count
from .errors import ConfigError, EvaluationError
from .noise import NoiseEvent, NoiseParams, noise_events, noise_states
from .special_math import (
    DEFAULT_Q_APPROX,
    DEFAULT_QUAD_ORDER,
    QuadratureRule,
    checked_quad_order,
    fit_expectation,
    fit_tail_integral,
    gauss_hermite_rule,
    normal_cdf,
    normal_log_cdf,
)

__all__ = [
    "SecrecyResult",
    "SystemConfig",
    "asc_asymptotic",
    "asc_asymptotic_large_n",
    "asc_quadrature",
    "poi_closed_form",
    "poi_quadrature",
]

LN2 = math.log(2.0)


def check_transmit_power(power: float) -> None:
    """Raise :class:`ConfigError` unless ``power`` and ``1/power`` are finite
    and > 0, as the noise SNR factors must be: the Monte Carlo sample
    divides by ``x_e + 1/power``, so a power below ~5.6e-309 would score 0."""
    if not (math.isfinite(power) and power > 0.0 and math.isfinite(1.0 / power)):
        raise ConfigError("transmit_power must be finite and > 0, with a finite reciprocal")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to evaluate the secrecy metrics of one scenario.

    ``quadrature_order`` sets the Gauss-Hermite rule of the quadrature
    routes; the closed forms all integrate the one Q-fit ``DEFAULT_Q_APPROX``.
    """

    topology: PinholeTopology
    dest_noise: NoiseParams
    eav_noise: NoiseParams
    transmit_power: float
    quadrature_order: int = DEFAULT_QUAD_ORDER
    q_approx: ClassVar = DEFAULT_Q_APPROX

    def __post_init__(self) -> None:
        check_transmit_power(self.transmit_power)
        checked_quad_order(self.quadrature_order)

    @property
    def quadrature(self) -> QuadratureRule:
        """The Gauss-Hermite rule of ``quadrature_order``."""
        return gauss_hermite_rule(self.quadrature_order)


@dataclass(frozen=True)
class SecrecyResult:
    """A metric value with its evaluation route.

    ``ci_halfwidth`` is nonzero only for Monte Carlo estimates.
    ``diagnostics`` carries accuracy indicators: the closed forms'
    ``integration_error`` (error estimate of the whole closed form) or a
    negative quadrature value.
    """

    value: float
    method: str
    ci_halfwidth: float = 0.0
    diagnostics: Mapping[str, float] = field(default_factory=dict)


def _event_offset(ev: NoiseEvent, dest: LinkParams, eav: LinkParams) -> float:
    """Standardized mean offset of the eavesdropper contest for one event."""
    ratio = ev.alpha_e / ev.alpha_b
    if 0.0 < ratio < math.inf:
        log_ratio = math.log(ratio)
    else:  # two valid SNR factors whose ratio under- or overflows
        log_ratio = math.log(ev.alpha_e) - math.log(ev.alpha_b)
    return (eav.m - dest.m + log_ratio) / dest.s


# ---------------------------------------------------------------------------
# Exact averages via nested Gauss-Hermite quadrature
# ---------------------------------------------------------------------------


# A (outer node i, inner node j) pair of one (side, noise state) segment
# enters the quadrature sum as c * log1p(p alpha v): a power-free weight
# c = wx_i W_j and gain v = x_i g_j.  log1p is concave with log1p(0) = 0, so
# log1p(a u) <= a log1p(u) for a >= 1, and against the segment's largest-|c|
# pair (c_ref, v_ref) every term obeys |c r| <= |c| max(1, v / v_ref) r_ref
# at every power.  A pair whose factor |c| max(1, v / v_ref) is at most
# _SKIP_EPS |c_ref| is skipped: at every power the skipped part of a segment
# is then at most (#skipped) * _SKIP_EPS * sum(|c| r).  That is 4e-16 of
# sum(|c| r) at order 200 (40000 pairs), under the rounding bound of the
# sum itself, log2(#pairs) * 2^-53 of it.
_SKIP_EPS = 1e-20
# Elements of the rate buffer of one block of powers (256 KiB).  A block
# shares its numpy calls among 4 powers at order 64 with a pinhole and
# about 200 without one; twice the size raised the peak resident memory of
# a run of 17 power curves (perfbench's quadrature-grid) by about 0.5 MiB.
_RATE_BLOCK = 1 << 15


def _kept_nodes(
    wx: np.ndarray, x: np.ndarray, weights: np.ndarray, gains: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the outer and of the inner nodes that hold a pair ``_SKIP_EPS``
    keeps, row ``s`` of each for side ``s`` over both its noise states.

    ``wx`` and ``x`` are the outer weights and gains.  Row ``k`` of
    ``weights`` and ``gains`` holds segment ``k``'s inner weights and gains:
    the destination's two noise states, then the eavesdropper's.
    """
    # With u = wx / wx_ref, w = |W| / |W_ref| and v / v_ref split into
    # x / x_ref and g / g_ref, pair (i, j)'s factor over |c_ref| is
    # max(u_i w_j, ux_i wg_j), and max(u) = max(w) = 1.  A NaN (0 / 0 or
    # 0 * inf) only marks a pair whose weight or gain is 0, or a gain that
    # overflows, which fails every power; fmax passes over it.
    i = int(wx.argmax())
    u = wx / wx[i]  # the outer weights are positive
    ux = u * (x / x[i])
    w = np.abs(weights)
    j = w.argmax(axis=1)
    w /= w.max(axis=1, keepdims=True)
    wg = w * (gains / gains[np.arange(len(w)), j, None])
    rows = np.fmax(u, ux * np.fmax.reduce(wg, axis=1, keepdims=True)) > _SKIP_EPS
    cols = np.fmax(w, wg * np.fmax.reduce(ux)) > _SKIP_EPS
    return rows[0::2] | rows[1::2], cols[0::2] | cols[1::2]


@lru_cache(maxsize=32)
def _node_log_cdf(order: int) -> np.ndarray:
    """``log Phi`` at the nodes of the order's Gauss-Hermite rule, which the
    scheduling factor of every quadrature ASC call of that order reads."""
    out = normal_log_cdf(gauss_hermite_rule(order).nodes)
    out.setflags(write=False)
    return out


def route_axes(
    cfg: SystemConfig,
    powers: Sequence[float] | None = None,
    destinations: Sequence[int] | None = None,
) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """The powers and the destination counts a route's call evaluates, each
    checked as :class:`SystemConfig` and :class:`PinholeTopology` check
    their own: the configuration's own where an axis is not given.  At most
    one of the two axes may be given."""
    if powers is not None and destinations is not None:
        raise ConfigError("a route takes powers= or destinations=, not both")
    ps = (cfg.transmit_power,) if powers is None else tuple(powers)
    ns = (cfg.topology.n_destinations,) if destinations is None else tuple(destinations)
    for power in ps:
        check_transmit_power(power)
    if not all(is_destination_count(n) for n in ns):
        raise ConfigError("n_destinations must be a positive integer")
    return ps, ns


def axis_results(results: list, axis_given: bool):
    """What a route returns: ``results`` when it was called on an axis, and
    otherwise its one result, raised if it is an :class:`EvaluationError`."""
    if axis_given:
        return results
    if isinstance(results[0], EvaluationError):
        raise results[0]
    return results[0]


# An overflowing gain or rate leaves a non-finite term, which raises the
# EvaluationError below; numpy's warning would only repeat it.  A gain that
# under- or overflows at the reference pair only adds kept nodes.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def asc_quadrature(
    cfg: SystemConfig,
    *,
    powers: Sequence[float] | None = None,
    destinations: Sequence[int] | None = None,
) -> SecrecyResult | list[SecrecyResult | EvaluationError]:
    """Average secrecy capacity by nested standard-normal quadrature.

    The outer expectation runs over the shared gain (collapsed to the single
    point 1 when the pinhole is absent); each inner expectation runs over the
    scheduled destination's or the eavesdropper's standardized log-gain, with
    the positivity clamp appearing as the conditional CDF factor of the other
    side.  Both clamp limits read the contest offset ``lam`` that the other
    analytical routes use; transmit power enters only the two rates, and the
    destination count only the inner weights.  The raw (unclamped) sum is
    returned: a slightly negative value is a quadrature-accuracy diagnostic,
    not a property of the metric.

    Everything but ``log1p`` is power-free and is built once per call.
    Every event reads the rates of one noise state per side and enters the
    sum linearly, so the four events fold into one weight vector per (side,
    state), ``sum(sign * P_ev / ln 2 * base_ev)`` over the events in that
    state, and with the outer weights into one weight per (outer node,
    inner node) pair.  Most pairs carry a weight far below rounding: the
    shared gain's tail nodes, the destination nodes where ``N Phi^(N-1)``
    has vanished, the eavesdropper nodes past its clamp.  A power-free bound
    (``_SKIP_EPS``) skips them: per side, only the outer and inner nodes
    that hold a pair able to move the sum at some power are kept, and their
    pairs are about 47% of all pairs at order 64 with a pinhole (61%
    without) and 19% at order 160.  A power fails with
    :class:`EvaluationError` when the rate of any pair, kept or skipped, is
    non-finite; the largest gain of each segment decides that for every
    power at once, and the largest gain of each row names the failing node.
    The powers then go in blocks of ``_RATE_BLOCK // pairs`` (at least
    one): a block scales the kept gains into one reused (powers x pairs)
    buffer and takes one ``log1p`` and one weighted sum per power over it.

    With ``powers``, a sequence of linear transmit powers, a list with one
    entry per power is returned: entry ``k`` is bit for bit the result of
    ``asc_quadrature(replace(cfg, transmit_power=powers[k]))``, or the
    :class:`EvaluationError` that call raises.  ``cfg.transmit_power`` is
    then not used.

    With ``destinations``, a sequence of destination counts, a list with
    one entry per count is returned in the same way: entry ``k`` is bit for
    bit the result of the call on ``cfg`` with ``n_destinations =
    destinations[k]``, or the error that call raises, and
    ``cfg.topology.n_destinations`` is not used.  The gains, the node CDFs
    and the overflow check are taken once; each count then runs the
    one-count body on its own weights and kept pairs.  The rates do not
    depend on the count, so a power whose rates overflow fails every count
    with one error.  At most one of ``powers`` and ``destinations`` may be
    given.
    """
    axis, ns = route_axes(cfg, powers, destinations)
    topo = cfg.topology
    dest, eav = effective_links(topo)
    phi_e = eav.s / dest.s
    rule = cfg.quadrature
    t = rule.nodes
    w = rule.weights

    if topo.pinhole_present:
        src = topo.source_link
        x = np.exp(src.s * t + src.m)
        wx = w
    else:
        x = np.ones(1)
        wx = np.ones(1)

    y = np.exp(dest.s * t + dest.m)
    z = np.exp(eav.s * t + eav.m)
    gains = np.array([y, y, z, z])
    node_log_cdf = _node_log_cdf(rule.order)

    events = noise_events(cfg.dest_noise, cfg.eav_noise)
    # [dest state, eav state] per event: each CDF below is one call over all.
    lam = np.array([_event_offset(ev, dest, eav) for ev in events]).reshape(2, 2, 1)
    # Destination side: clamp shows up as the eavesdropper CDF.
    clamp_b = normal_cdf((t - lam) / phi_e)
    # Eavesdropper side: clamp shows up as 1 - (destination max CDF).
    log_clamp_e = normal_log_cdf(phi_e * t + lam)
    scale = (np.array([ev.probability for ev in events]) / LN2).reshape(2, 2, 1)
    alphas = [a for noise in (cfg.dest_noise, cfg.eav_noise) for _, a in noise_states(noise)]
    # fl(x_i g_j) is monotone in x_i and in g_j, so max(x) max(g) is the
    # largest gain of a segment's outer product, and it is NaN or inf when a
    # NaN (0 * inf) gain occurs.  fl(v s) is monotone in v too: at a power, a
    # segment has a non-finite rate exactly when its largest gain's is.
    g_max = np.array([y.max()] * 2 + [z.max()] * 2)
    peaks = x.max() * g_max

    # Row k holds power k's SNR factor per segment, p * alpha.
    scaled = np.multiply.outer(axis, alphas)
    errors = {}
    for k in np.flatnonzero(~np.isfinite(scaled * peaks).all(axis=1)).tolist():
        # Row i of a segment holds gains up to x_i max(g), by the same
        # monotonicity.
        bad = ~np.isfinite(np.multiply.outer(g_max, x) * scaled[k, :, None])
        seg, i = divmod(int(np.argmax(bad)), x.size)
        state = f"{('dest_state', 'eav_state')[seg // 2]}={seg % 2 + 1}"
        errors[k] = EvaluationError(f"non-finite quadrature rate ({state}) at outer node index {i}")

    results: list[SecrecyResult | EvaluationError] = []
    for n in ns:
        # Scheduling factor N * Phi(t)^(N-1), built in log space for large N.
        sel = n * np.exp((n - 1) * node_log_cdf)
        base_b = w * sel * clamp_b
        base_e = w * (-np.expm1(n * log_clamp_e))
        # Per (side, noise state) segment, destination states first: its
        # folded inner weights.
        weights = np.vstack([(scale * base_b).sum(axis=1), (-scale * base_e).sum(axis=0)])
        # Per side, the gains of its kept pairs and the folded weights of its
        # two noise states there.
        (rows_b, rows_e), (cols_b, cols_e) = _kept_nodes(wx, x, weights, gains)
        gains_b = np.multiply.outer(x[rows_b], y[cols_b]).ravel()
        gains_e = np.multiply.outer(x[rows_e], z[cols_e]).ravel()
        coefs = np.concatenate([
            (weights[:2, None, cols_b] * wx[rows_b, None]).ravel(),
            (weights[2:, None, cols_e] * wx[rows_e, None]).ravel(),
        ])
        split = 2 * gains_b.size
        # The rates of a block of powers go to a reused buffer, since a
        # (powers x pairs) array would not stay small.
        block = max(1, min(len(axis), _RATE_BLOCK // max(coefs.size, 1)))
        rate = np.empty((block, coefs.size))
        out_b = rate[:, :split].reshape(block, 2, gains_b.size)
        out_e = rate[:, split:].reshape(block, 2, gains_e.size)
        per_count: list[SecrecyResult | EvaluationError] = []
        for start in range(0, len(axis), block):
            factors = scaled[start:start + block, :, None]
            chunk = rate[:len(factors)]
            np.multiply(factors[:, :2], gains_b, out=out_b[:len(factors)])
            np.multiply(factors[:, 2:], gains_e, out=out_e[:len(factors)])
            np.log1p(chunk, out=chunk)
            # Summed by numpy, not by a BLAS dot product, whose rounding
            # depends on the BLAS thread count.
            for total in np.multiply(chunk, coefs, out=chunk).sum(axis=1).tolist():
                diagnostics = {"negative_value": total} if total < 0.0 else {}
                per_count.append(
                    SecrecyResult(value=total, method="quadrature", diagnostics=diagnostics)
                )
        # A failing power's sum is dropped for its error.
        for k, error in errors.items():
            per_count[k] = error
        results.extend(per_count)
    return axis_results(results, powers is not None or destinations is not None)


def poi_quadrature(
    cfg: SystemConfig, *, destinations: Sequence[int] | None = None
) -> SecrecyResult | list[SecrecyResult]:
    """Intercept probability by a single Gauss-Hermite expectation per event.

    For each noise event the intercept probability is
    ``E[Phi(phi_e t + lam)^N]`` over a standard normal t; transmit power
    never enters (only power-free SNR factors appear), so results are
    bit-identical across transmit powers.  ``log Phi`` at the nodes does not
    depend on N either: with ``destinations``, a sequence of destination
    counts, it is taken once, and a list with one entry per count is
    returned, each bit for bit the call on ``cfg`` with that
    ``n_destinations``.
    """
    _, ns = route_axes(cfg, destinations=destinations)
    dest, eav = effective_links(cfg.topology)
    phi_e = eav.s / dest.s
    rule = cfg.quadrature
    t = rule.nodes
    w = rule.weights

    events = noise_events(cfg.dest_noise, cfg.eav_noise)
    lam = np.array([[_event_offset(ev, dest, eav)] for ev in events])
    log_contest = normal_log_cdf(phi_e * t + lam)
    results = []
    for n in ns:
        # Never non-finite: NoiseParams keeps lam finite, so each value is in
        # [0, 1].  Summed by numpy, not by a BLAS dot product (see
        # asc_quadrature).
        contest = (w * np.exp(n * log_contest)).sum(axis=1)
        total = 0.0
        for ev, value in zip(events, contest):
            total += ev.probability * float(value)
        results.append(SecrecyResult(value=total, method="quadrature"))
    return axis_results(results, destinations is not None)


# ---------------------------------------------------------------------------
# Closed-form asymptotic average secrecy capacity
# ---------------------------------------------------------------------------


def _asymptotic_value(
    cfg: SystemConfig, keep_vanishing_terms: bool, destinations: Sequence[int] | None
) -> SecrecyResult | list[SecrecyResult]:
    _, ns = route_axes(cfg, destinations=destinations)
    topo = cfg.topology
    dest, eav = effective_links(topo)
    phi_e = eav.s / dest.s
    events = noise_events(cfg.dest_noise, cfg.eav_noise)

    # Linear in log alpha: one term at the noise-event mean covers the mixture.
    log_b = sum(ev.probability * math.log(ev.alpha_b) for ev in events)
    log_e = sum(ev.probability * math.log(ev.alpha_e) for ev in events)
    # The many-destination limit keeps only the destination's half line above 0.
    dest_fit = fit_expectation if keep_vanishing_terms else fit_tail_integral
    value, error = dest_fit(0.0, 1.0, [n - 1 for n in ns], log_b + dest.m, dest.s)
    counts = np.asarray(ns, dtype=float)
    totals = counts * value - (log_e + eav.m)
    errors = counts * error

    if keep_vanishing_terms:
        # The eavesdropper's clamp: its log rate where it beats every
        # destination, one row per noise event.
        lams = [_event_offset(ev, dest, eav) for ev in events]
        c0s = [
            math.log(ev.alpha_e) + eav.m - eav.s * lam / phi_e for ev, lam in zip(events, lams)
        ]
        values, errs = fit_expectation(lams, phi_e, ns, c0s, eav.s / phi_e)
        for ev, value, error in zip(events, values, errs):
            totals -= ev.probability * value
            errors += ev.probability * error

    method = "asymptotic" if keep_vanishing_terms else "asymptotic-large-n"
    results = [
        SecrecyResult(value=total, method=method, diagnostics={"integration_error": error})
        for total, error in zip((totals / LN2).tolist(), (errors / LN2).tolist())
    ]
    return axis_results(results, destinations is not None)


def asc_asymptotic(
    cfg: SystemConfig, *, destinations: Sequence[int] | None = None
) -> SecrecyResult | list[SecrecyResult]:
    """High-power saturation value of the average secrecy capacity.

    Independent of the transmit power and of the shared-segment statistics
    by construction.  Accuracy rests on the destination's log-mean being
    well above the eavesdropper's; the gap to ``asc_quadrature`` at a given
    finite power widens as that margin shrinks.  With ``destinations``, a
    sequence of destination counts, the N-free work of every integral is
    shared and a list with one entry per count is returned, each bit for
    bit the call on ``cfg`` with that ``n_destinations``.
    """
    return _asymptotic_value(cfg, keep_vanishing_terms=True, destinations=destinations)


def asc_asymptotic_large_n(
    cfg: SystemConfig, *, destinations: Sequence[int] | None = None
) -> SecrecyResult | list[SecrecyResult]:
    """Many-destination limit: only the terms that survive as N grows.

    Keeps the positive-half-axis destination integral and the eavesdropper's
    full log expectation.  It drops the destination's negative half axis and
    the eavesdropper's clamp, which both vanish as the number of
    destinations grows (given the destination's log-mean dominates).
    ``destinations`` works as in :func:`asc_asymptotic`.
    """
    return _asymptotic_value(cfg, keep_vanishing_terms=False, destinations=destinations)


# ---------------------------------------------------------------------------
# Closed-form intercept probability
# ---------------------------------------------------------------------------


def poi_closed_form(
    cfg: SystemConfig, *, destinations: Sequence[int] | None = None
) -> SecrecyResult | list[SecrecyResult]:
    """Intercept probability through the Q-fit.

    Same contest factor ``E[Phi(phi_e t + lam)^N]`` as
    :func:`poi_quadrature`, taken by one :func:`fit_expectation` call with
    one row per noise event.  Transmit power never enters.
    ``destinations`` works as in :func:`asc_asymptotic`.
    """
    _, ns = route_axes(cfg, destinations=destinations)
    dest, eav = effective_links(cfg.topology)
    phi_e = eav.s / dest.s

    events = noise_events(cfg.dest_noise, cfg.eav_noise)
    lams = [_event_offset(ev, dest, eav) for ev in events]
    values, errs = fit_expectation(lams, phi_e, ns, 1.0, 0.0)
    totals = np.zeros(len(ns))
    errors = np.zeros(len(ns))
    for ev, value, error in zip(events, values, errs):
        totals += ev.probability * value
        errors += ev.probability * error

    results = [
        SecrecyResult(
            value=total, method="closed-form-poi", diagnostics={"integration_error": error}
        )
        for total, error in zip(totals.tolist(), errors.tolist())
    ]
    return axis_results(results, destinations is not None)
