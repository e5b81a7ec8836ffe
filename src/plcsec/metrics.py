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
  clipped.
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
a Gaussian T, taken through the exponential Q-fit by ``_fit_expectation``.
Below 0 it is a half-axis Gaussian segment integral of
:mod:`plcsec.special_math`.  Above 0, expanding ``(1 - Qfit)^m`` binomially
would give alternating sums whose terms grow like exp(0.55 N) while the sum
stays bounded; the power is integrated instead by a fixed composite
Gauss-Legendre rule in double precision.  Cost and accuracy do not depend on
N, and that integral's error estimate is reported as ``integration_error``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Mapping, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

from .channel import LinkParams, PinholeTopology, effective_links
from .errors import ConfigError, EvaluationError
from .noise import NoiseEvent, NoiseParams, noise_events, noise_states
from .special_math import (
    DEFAULT_Q_APPROX,
    DEFAULT_QUAD_ORDER,
    SQRT_2PI,
    QuadratureRule,
    checked_quad_order,
    gauss_hermite_rule,
    gaussian_segment_integrals,
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


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to evaluate the secrecy metrics of one scenario.

    ``quadrature_order`` sets the Gauss-Hermite rule of the quadrature
    routes; the closed forms all integrate the one Q-fit ``q_approx``.
    """

    topology: PinholeTopology
    dest_noise: NoiseParams
    eav_noise: NoiseParams
    transmit_power: float
    quadrature_order: int = DEFAULT_QUAD_ORDER
    q_approx: ClassVar = DEFAULT_Q_APPROX

    def __post_init__(self) -> None:
        if not (math.isfinite(self.transmit_power) and self.transmit_power > 0.0):
            raise ConfigError("transmit_power must be finite and > 0")
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
    ``integration_error`` (error estimate of their half-line integrals) or a
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


# An overflowing gain or rate leaves a non-finite term, which raises the
# EvaluationError below; numpy's warning would only repeat it.
@np.errstate(over="ignore", invalid="ignore")
def asc_quadrature(
    cfg: SystemConfig, *, powers: Sequence[float] | None = None
) -> SecrecyResult | list[SecrecyResult | EvaluationError]:
    """Average secrecy capacity by nested standard-normal quadrature.

    The outer expectation runs over the shared gain (collapsed to the single
    point 1 when the pinhole is absent); each inner expectation runs over the
    scheduled destination's or the eavesdropper's standardized log-gain, with
    the positivity clamp appearing as the conditional CDF factor of the other
    side.  Both clamp limits read the contest offset ``lam`` that the other
    analytical routes use; transmit power enters only the two rates.  The
    raw (unclamped) sum is returned: a slightly negative value is a
    quadrature-accuracy diagnostic, not a property of the metric.

    Everything but ``log1p`` is power-free and is built once per call: the
    outer products of the shared gain with each side's gain, and the event
    weights.  Every event reads the rates of one noise state per side and
    enters the sum linearly, so the four events fold into one weight vector
    per (side, state), ``sum(sign * P_ev / ln 2 * base_ev)`` over the events
    in that state.  Each power then scales an outer product, takes its
    ``log1p`` and one matrix-vector product per (side, state).

    With ``powers``, a sequence of linear transmit powers, a list with one
    entry per power is returned: entry ``k`` is bit for bit the result of
    ``asc_quadrature(replace(cfg, transmit_power=powers[k]))``, or the
    :class:`EvaluationError` that call raises.  ``cfg.transmit_power`` is
    then not used.
    """
    axis = (cfg.transmit_power,) if powers is None else tuple(powers)
    for power in axis:
        replace(cfg, transmit_power=power)  # SystemConfig owns the power check
    topo = cfg.topology
    dest, eav = effective_links(topo)
    n = topo.n_destinations
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
    # Scheduling factor N * Phi(t)^(N-1), built in log space for large N.
    sel = n * np.exp((n - 1) * normal_log_cdf(t))

    events = noise_events(cfg.dest_noise, cfg.eav_noise)
    # [dest state, eav state] per event: each CDF below is one call over all.
    lam = np.array([_event_offset(ev, dest, eav) for ev in events]).reshape(2, 2, 1)
    # Destination side: clamp shows up as the eavesdropper CDF.
    base_b = w * sel * normal_cdf((t - lam) / phi_e)
    # Eavesdropper side: clamp shows up as 1 - (destination max CDF).
    base_e = w * (-np.expm1(n * normal_log_cdf(phi_e * t + lam)))
    # Per (side, noise state): SNR factor, power-free outer product of the
    # gains, and the weights of its events folded into one vector.
    scale = (np.array([ev.probability for ev in events]) / LN2).reshape(2, 2, 1)
    folded = []
    for states, outer, weights in (
        (noise_states(cfg.dest_noise), np.multiply.outer(x, y), (scale * base_b).sum(axis=1)),
        (noise_states(cfg.eav_noise), np.multiply.outer(x, z), (-scale * base_e).sum(axis=0)),
    ):
        folded += [(alpha, outer, row) for (_, alpha), row in zip(states, weights)]
    # One power at a time, into reused buffers: a (powers x nodes x nodes)
    # array would not stay small.
    rate = np.empty((x.size, t.size))
    partials = np.empty((len(folded), x.size))

    def at_power(p: float) -> SecrecyResult | EvaluationError:
        for (alpha, outer, weights), partial in zip(folded, partials):
            np.multiply(outer, p * alpha, out=rate)
            np.log1p(rate, out=rate)
            np.matmul(rate, weights, out=partial)
        bad = ~np.isfinite(partials)
        if bad.any():
            k, i = divmod(int(np.argmax(bad)), x.size)
            state = f"{('dest_state', 'eav_state')[k // 2]}={k % 2 + 1}"
            return EvaluationError(f"non-finite quadrature rate ({state}) at outer node index {i}")
        total = float(wx @ partials.sum(axis=0))
        diagnostics = {"negative_value": total} if total < 0.0 else {}
        return SecrecyResult(value=total, method="quadrature", diagnostics=diagnostics)

    results = [at_power(p) for p in axis]
    if powers is not None:
        return results
    if isinstance(results[0], EvaluationError):
        raise results[0]
    return results[0]


def poi_quadrature(cfg: SystemConfig) -> SecrecyResult:
    """Intercept probability by a single Gauss-Hermite expectation per event.

    For each noise event the intercept probability is
    ``E[Phi(phi_e t + lam)^N]`` over a standard normal t; transmit power
    never enters (only power-free SNR factors appear), so results are
    bit-identical across transmit powers.
    """
    dest, eav = effective_links(cfg.topology)
    n = cfg.topology.n_destinations
    phi_e = eav.s / dest.s
    rule = cfg.quadrature
    t = rule.nodes
    w = rule.weights

    events = noise_events(cfg.dest_noise, cfg.eav_noise)
    lam = np.array([[_event_offset(ev, dest, eav)] for ev in events])
    total = 0.0
    # Never non-finite: NoiseParams keeps lam finite, so each value is in [0, 1].
    for ev, vals in zip(events, np.exp(n * normal_log_cdf(phi_e * t + lam))):
        total += ev.probability * float(np.dot(w, vals))
    return SecrecyResult(value=total, method="quadrature")


# ---------------------------------------------------------------------------
# Q-fit expectations behind the closed forms
# ---------------------------------------------------------------------------

# Composite Gauss-Legendre rule in standard-normal units: panels of at most
# _PANEL_WIDTH up to _Z_MAX (where the density is below 1e-330).  The
# 8-node rule on the same panels, evaluated in the same pass, gives the
# error estimate.
_PANEL_WIDTH = 0.5
_Z_MAX = 39.0
_GL_NODES, _GL_WEIGHTS = np.hstack([leggauss(16), leggauss(8)])
_GL_FINE = slice(0, 16)
_GL_COARSE = slice(16, None)
_EPS = np.finfo(float).eps
_K1, _K2, _K3 = DEFAULT_Q_APPROX


def _tail_power_integral(
    lam: float, sigma: float, m: int, c0: float, c1: float
) -> tuple[float, float]:
    """``E[(c0 + c1 T) (1 - Qfit(T))^m ; T > 0]`` for ``T ~ N(lam, sigma^2)``.

    Expanding ``(1 - Qfit)^m`` binomially gives the closed forms' alternating
    sums term by term; integrating the power directly, as
    ``exp(m log1p(-Qfit))``, avoids their cancellation.  Returns the value and
    an error estimate: the gap to the coarse rule plus a rounding allowance
    that grows with the magnitude of each node's exponent.
    """
    lo = max(-lam / sigma, -_Z_MAX)
    if lo >= _Z_MAX:
        return 0.0, 0.0
    panels = math.ceil((_Z_MAX - lo) / _PANEL_WIDTH)
    half = 0.5 * (_Z_MAX - lo) / panels
    mids = lo + half * (2.0 * np.arange(panels) + 1.0)
    z = mids[:, None] + half * _GL_NODES
    t = lam + sigma * z
    q = np.exp(-(_K1 * t * t + _K2 * t + _K3))
    exponent = m * np.log1p(-q) - 0.5 * z * z
    wf = (c0 + c1 * t) * np.exp(exponent) * (_GL_WEIGHTS * half / SQRT_2PI)
    fine = float(wf[:, _GL_FINE].sum())
    coarse = float(wf[:, _GL_COARSE].sum())
    rounding = _EPS * float(np.sum(np.abs(wf * (16.0 + np.abs(exponent)))[:, _GL_FINE]))
    return fine, abs(fine - coarse) + rounding


def _fit_expectation(
    lam: float, sigma: float, m: int, c0: float, c1: float
) -> tuple[float, float]:
    """``E[(c0 + c1 T) Phi(T)^m]`` for ``T ~ N(lam, sigma^2)``, through the Q-fit.

    Below 0, ``Phi(T) = Q(-T)``: the fitted power times the normal density
    completes the square into ``d exp(-(a t - b)^2 / 2) / sigma``, one
    Gaussian segment integral.  Above 0, ``Phi = 1 - Q`` gives
    :func:`_tail_power_integral`.  The error estimate is that integral's
    plus a rounding allowance for the segment term, which grows with the
    magnitude of the parts of its exponent as the tail rule's does.
    """
    inv2 = 1.0 / (sigma * sigma)
    a = math.sqrt(2.0 * m * _K1 + inv2)
    b = (m * _K2 + lam * inv2) / a
    d = math.exp(-0.5 * (2.0 * m * _K3 + lam * lam * inv2 - b * b))
    seg = gaussian_segment_integrals(a, b)
    head = d * (c0 * seg.i_neg + c1 * seg.i_neg_t) / sigma
    tail, error = _tail_power_integral(lam, sigma, m, c0, c1)
    rounding = _EPS * (16.0 + 0.5 * (2.0 * m * _K3 + lam * lam * inv2 + b * b)) * abs(head)
    return head + tail, error + rounding


# ---------------------------------------------------------------------------
# Closed-form asymptotic average secrecy capacity
# ---------------------------------------------------------------------------


def _asymptotic_value(cfg: SystemConfig, keep_vanishing_terms: bool) -> SecrecyResult:
    topo = cfg.topology
    dest, eav = effective_links(topo)
    n_dest = topo.n_destinations
    phi_e = eav.s / dest.s
    events = noise_events(cfg.dest_noise, cfg.eav_noise)

    # Linear in log alpha: one term at the noise-event mean covers the mixture.
    log_b = sum(ev.probability * math.log(ev.alpha_b) for ev in events)
    log_e = sum(ev.probability * math.log(ev.alpha_e) for ev in events)
    # The many-destination limit keeps only the destination's half line above 0.
    dest_fit = _fit_expectation if keep_vanishing_terms else _tail_power_integral
    dest_value, dest_error = dest_fit(0.0, 1.0, n_dest - 1, log_b + dest.m, dest.s)
    total = n_dest * dest_value - (log_e + eav.m)
    error = n_dest * dest_error

    if keep_vanishing_terms:
        # The eavesdropper's clamp: its log rate where it beats every destination.
        for ev in events:
            lam = _event_offset(ev, dest, eav)
            c0_e = math.log(ev.alpha_e) + eav.m - eav.s * lam / phi_e
            value, err = _fit_expectation(lam, phi_e, n_dest, c0_e, eav.s / phi_e)
            total -= ev.probability * value
            error += ev.probability * err

    method = "asymptotic" if keep_vanishing_terms else "asymptotic-large-n"
    return SecrecyResult(
        value=total / LN2,
        method=method,
        diagnostics={"integration_error": error / LN2},
    )


def asc_asymptotic(cfg: SystemConfig) -> SecrecyResult:
    """High-power saturation value of the average secrecy capacity.

    Independent of the transmit power and of the shared-segment statistics
    by construction.  Accuracy rests on the destination's log-mean being
    well above the eavesdropper's; the gap to ``asc_quadrature`` at a given
    finite power widens as that margin shrinks.
    """
    return _asymptotic_value(cfg, keep_vanishing_terms=True)


def asc_asymptotic_large_n(cfg: SystemConfig) -> SecrecyResult:
    """Many-destination limit: only the terms that survive as N grows.

    Keeps the positive-half-axis destination integral and the eavesdropper's
    full log expectation.  It drops the destination's negative half axis and
    the eavesdropper's clamp, which both vanish as the number of
    destinations grows (given the destination's log-mean dominates).
    """
    return _asymptotic_value(cfg, keep_vanishing_terms=False)


# ---------------------------------------------------------------------------
# Closed-form intercept probability
# ---------------------------------------------------------------------------


def poi_closed_form(cfg: SystemConfig) -> SecrecyResult:
    """Intercept probability through the Q-fit.

    Same contest factor ``E[Phi(phi_e t + lam)^N]`` as
    :func:`poi_quadrature`, taken by :func:`_fit_expectation` per noise
    event.  Transmit power never enters.
    """
    topo = cfg.topology
    dest, eav = effective_links(topo)
    n_dest = topo.n_destinations
    phi_e = eav.s / dest.s

    total = 0.0
    error = 0.0
    for ev in noise_events(cfg.dest_noise, cfg.eav_noise):
        lam = _event_offset(ev, dest, eav)
        value, err = _fit_expectation(lam, phi_e, n_dest, 1.0, 0.0)
        total += ev.probability * value
        error += ev.probability * err

    return SecrecyResult(
        value=total,
        method="closed-form-poi",
        diagnostics={"integration_error": error},
    )
