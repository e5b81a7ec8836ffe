"""Gaussian tail machinery shared by the analytical metrics and Monte Carlo.

Four building blocks live here:

* ``normal_cdf``, ``normal_log_cdf`` and ``normal_quantile`` -- the
  standard normal CDF Phi, its logarithm and its inverse, vectorized over
  numpy arrays on the standard library alone.  The CDF and log-CDF take
  one ``math.erfc`` call per element; the quantile is Wichura's AS241.
* Gauss-Hermite rules in the *probabilists'* normalization, i.e. nodes and
  weights such that ``sum(w_i * f(z_i))`` approximates ``E[f(Z)]`` for a
  standard normal Z.  ``hermgauss`` supplies the physicists' rule for
  ``int exp(-x^2) g(x) dx``; substituting z = sqrt(2) x rescales nodes by
  sqrt(2) and weights by 1/sqrt(pi).
* ``gaussian_segment_integrals`` -- the four half-axis moments of
  ``exp(-(a t - b)^2 / 2) / sqrt(2 pi)``, elementwise over arrays of
  ``(a, b)``.
* ``fit_expectation`` -- ``E[(c0 + c1 T) Phi(T)^m]`` over a Gaussian T
  through the exponential Q-fit ``DEFAULT_Q_APPROX``, with an error
  estimate, per entry of an array of m: one segment integral below 0 and
  ``fit_tail_integral``, a composite Gauss-Legendre rule, above it.  The
  rule takes the m in blocks, each through the slabs of one work array
  allocated once per call, with the bits of a call on each m alone.  Every
  closed form in :mod:`plcsec.metrics` is built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DomainError

__all__ = [
    "DEFAULT_Q_APPROX",
    "DEFAULT_QUAD_ORDER",
    "MAX_QUAD_ORDER",
    "QuadratureRule",
    "SegmentIntegrals",
    "checked_quad_order",
    "fit_expectation",
    "fit_tail_integral",
    "gauss_hermite_rule",
    "gaussian_segment_integrals",
    "normal_cdf",
    "normal_log_cdf",
    "normal_quantile",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT1_2 = math.sqrt(0.5)
DEFAULT_QUAD_ORDER = 64
MAX_QUAD_ORDER = 200


# Exponential tail fit ``Q(t) ~ exp(-(k1 t^2 + k2 t + k3))`` for t >= 0, the
# one every closed form integrates.  ``k1 > 0`` keeps it integrable, and
# ``k3 >= 0`` with ``k2 >= 0`` keeps it in (0, 1].
DEFAULT_Q_APPROX = NamedTuple("QFit", [("k1", float), ("k2", float), ("k3", float)])(
    k1=0.3842, k2=0.7640, k3=0.6964
)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights normalized for standard-normal expectations.

    ``sum(weights) == 1`` and the nodes are symmetric about 0; the rule
    integrates polynomials up to degree ``2 * order - 1`` exactly.  Rules
    come from :func:`gauss_hermite_rule`, which write-locks the arrays, so
    they are safe to share across workers.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray


def _horner(r: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """The polynomial with ``coeffs`` (highest degree first) at ``r``."""
    out = r * coeffs[0]
    out += coeffs[1]
    for c in coeffs[2:]:
        out *= r
        out += c
    return out


# From |x| = 20 on, the tail comes from its asymptotic series instead of
# erfc.  Rounding x / sqrt(2) costs erfc a relative error of up to
# ~x^2 * 2e-16, which reaches 1e-13 near |x| = 24; at |x| >= 20 the first
# omitted term of the series is below 1e-21.
_SERIES_FROM = 20.0
# (-1)^k (2k-1)!! for k = 10..1.
_TAIL_SERIES = tuple((-1) ** k * math.prod(range(1, 2 * k, 2)) for k in range(10, 0, -1))


def _tail_series(a: np.ndarray) -> np.ndarray:
    """``sum_k (-1)^k (2k-1)!! a^(-2k)``, so ``Q(a) = phi(a) / a * (1 + sum)``."""
    u = 1.0 / (a * a)
    return _horner(u, _TAIL_SERIES) * u


def _upper_tail(a: np.ndarray) -> np.ndarray:
    """``Q(a)`` for ``a >= 0``: ``erfc(a / sqrt 2) / 2`` by one libm call per
    element, and the asymptotic series from ``a = 20`` on."""
    flat = a.ravel()
    z = (flat * SQRT1_2).tolist()
    q = 0.5 * np.fromiter(map(math.erfc, z), float, count=len(z))
    deep = np.flatnonzero(flat > _SERIES_FROM)
    if deep.size:
        ad = np.minimum(flat[deep], 40.0)  # Q(40) underflows to 0 anyway
        # exp(-a^2 / 2) with a = hi + lo split (Veltkamp, 2^27 + 1) so that
        # hi * hi is exact.
        c = 134217729.0 * ad
        hi = c - (c - ad)
        lo = ad - hi
        gauss = np.exp(-0.5 * hi * hi) * np.exp(-(hi * lo + 0.5 * lo * lo))
        q[deep] = gauss * (1.0 + _tail_series(ad)) / (ad * SQRT_2PI)
    return q.reshape(a.shape)


def normal_cdf(x) -> np.ndarray:
    """Standard normal CDF ``Phi(x)`` of an array, from ``Q(|x|)``.

    ``normal_cdf(-t)`` is the upper tail ``Q(t) = Pr[Z > t]``.  Below 0 the
    value is the tail ``Q(|x|)`` itself, so it keeps its relative accuracy
    (5.2e-14 at worst, against mpmath) until it underflows: to subnormals
    near x = -37.5 and to exactly 0 near x = -38.5 (``normal_cdf(-40.0) ==
    0.0``); it never goes negative.  ``normal_log_cdf`` goes on past that.
    """
    x = np.asarray(x, dtype=float)
    q = _upper_tail(np.abs(x))
    return np.where(x < 0.0, q, 1.0 - q)


def normal_log_cdf(x) -> np.ndarray:
    """``log Phi(x)`` of an array, within 5.2e-14 relative in both tails.

    Above 0 it is ``log1p(-Q(x))``, which keeps ``-Q(x)`` where ``Phi(x)``
    itself rounds to 1.  Down to x = -20 it is ``log Q(-x)``; below that it
    is the log of the asymptotic series, which stays finite long after Q
    underflows near x = -38.5.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    q = _upper_tail(np.abs(np.maximum(flat, -_SERIES_FROM)))
    out = np.log1p(-q)
    low = np.flatnonzero(flat <= 0.0)
    out[low] = np.log(q[low])
    deep = np.flatnonzero(flat < -_SERIES_FROM)
    if deep.size:
        ad = -flat[deep]
        out[deep] = -0.5 * ad * ad - np.log(ad * SQRT_2PI) + np.log1p(_tail_series(ad))
    return out.reshape(x.shape)


# Wichura's AS241 (PPND16), Applied Statistics 37(3), 1988: numerator and
# denominator coefficients, highest degree first, of the three branches.
_PPND_CENTRAL = (
    (
        2.5090809287301226727e3, 3.3430575583588128105e4, 6.7265770927008700853e4,
        4.5921953931549871457e4, 1.3731693765509461125e4, 1.9715909503065514427e3,
        1.3314166789178437745e2, 3.3871328727963666080e0,
    ),
    (
        5.2264952788528545610e3, 2.8729085735721942674e4, 3.9307895800092710610e4,
        2.1213794301586595867e4, 5.3941960214247511077e3, 6.8718700749205790830e2,
        4.2313330701600911252e1, 1.0,
    ),
)
_PPND_TAIL = (
    (
        7.7454501427834140764e-4, 2.2723844989269184583e-2, 2.4178072517745061177e-1,
        1.2704582524523683826e0, 3.6478483247632046050e0, 5.7694972214606914055e0,
        4.6303378461565452959e0, 1.4234371107496835773e0,
    ),
    (
        1.0507500716444168432e-9, 5.4759380849953449460e-4, 1.5198666563616457197e-2,
        1.4810397642748007459e-1, 6.8976733498510000455e-1, 1.6763848301838038494e0,
        2.0531916266377588219e0, 1.0,
    ),
)
_PPND_FAR = (
    (
        2.0103343992922881327e-7, 2.7115555687434875782e-5, 1.2426609473880784386e-3,
        2.6532189526576123093e-2, 2.9656057182850489123e-1, 1.7848265399172913358e0,
        5.4637849111641143699e0, 6.6579046435011037772e0,
    ),
    (
        2.0442631033899397856e-15, 1.4215117583164458887e-7, 1.8463183175100546818e-5,
        7.8686913114561325910e-4, 1.4875361290850614853e-2, 1.3692988092273580531e-1,
        5.9983220655588793769e-1, 1.0,
    ),
)


def _ppnd_ratio(r: np.ndarray, branch) -> np.ndarray:
    num, den = branch
    out = _horner(r, num)
    out /= _horner(r, den)
    return out


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile ``Phi^-1(p)`` of an array, by AS241.

    It is within 7e-16 relative of the exact quantile of ``p`` (against
    mpmath, over 1e-300 <= p <= 1 - 2^-53).  ``p = 0`` gives ``-inf`` and
    ``p = 1`` gives ``+inf``, without a warning.  The tail branch
    (``|p - 1/2| > 0.425``, ``r = sqrt(-log min(p, 1 - p)) <= 5``), which
    holds most best-of-N draws, runs over the whole array; the central and
    far branches run only where they apply.  ``r`` is formed in one array,
    each step after ``1 - p`` in place, with the bits of the plain
    expression.
    """
    p = np.asarray(p, dtype=float)
    flat = p.ravel()
    q = flat - 0.5
    # r is +inf at p = 0 and p = 1, where the ratios give inf / inf.
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.subtract(1.0, flat)
        np.minimum(flat, r, out=r)
        np.log(r, out=r)
        np.sqrt(np.negative(r, out=r), out=r)
        out = _ppnd_ratio(r - 1.6, _PPND_TAIL)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            out[far] = _ppnd_ratio(r[far] - 5.0, _PPND_FAR)
    out[np.isinf(r)] = np.inf
    np.copysign(out, q, out=out)
    central = np.flatnonzero(np.abs(q) <= 0.425)
    if central.size:
        qc = q[central]
        out[central] = qc * _ppnd_ratio(0.180625 - qc * qc, _PPND_CENTRAL)
    return out.reshape(p.shape)


def checked_quad_order(order) -> int:
    """``order`` as a Gauss-Hermite rule order, or :class:`ConfigError`.

    Runs before any cache lookup, so an unhashable order fails here too.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ConfigError("quadrature order must be an integer")
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ConfigError(f"quadrature order must lie in [1, {MAX_QUAD_ORDER}], got {order}")
    return int(order)


@lru_cache(maxsize=32)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Build the probabilists' Gauss-Hermite rule of the given order.

    Nodes/weights come from the eigen-decomposition of the Jacobi matrix
    (``numpy.polynomial.hermite.hermgauss``) for the physicists' weight
    ``exp(-x^2)`` and are rescaled to the standard normal measure.
    """
    order = checked_quad_order(order)
    x, w = hermgauss(order)
    nodes = math.sqrt(2.0) * x
    weights = w / math.sqrt(math.pi)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(order=order, nodes=nodes, weights=weights)


class SegmentIntegrals(NamedTuple):
    """Half-axis moments of ``exp(-(a t - b)^2 / 2) / sqrt(2 pi)``.

    ``i_neg``/``i_pos`` are the masses over (-inf, 0] and [0, inf);
    ``i_neg_t``/``i_pos_t`` are the corresponding t-weighted moments.  They
    close over the full axis: ``i_neg + i_pos = 1/a`` and
    ``i_neg_t + i_pos_t = b / a^2``.
    """

    i_neg: np.ndarray
    i_neg_t: np.ndarray
    i_pos: np.ndarray
    i_pos_t: np.ndarray


def _exp_each(x: np.ndarray) -> np.ndarray:
    """``exp`` of an array by one libm call per element, as the scalar
    formulas take it; ``np.exp`` rounds some elements differently."""
    return np.fromiter(map(math.exp, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


def gaussian_segment_integrals(a, b) -> SegmentIntegrals:
    """Closed forms of the four basic segment integrals for a > 0,
    elementwise over arrays ``a`` and ``b`` of one shape.

    With ``Q(b) = normal_cdf(-b)`` the standard normal upper tail and
    ``phi`` its density:

    * ``i_neg   = Q(b) / a``
    * ``i_neg_t = -phi(b) / a^2 + b Q(b) / a^2``
    * ``i_pos   = (1 - Q(b)) / a``
    * ``i_pos_t =  phi(b) / a^2 + b (1 - Q(b)) / a^2``

    Raises :class:`DomainError` if any element of ``a`` or ``b`` is not
    finite or any ``a`` is not positive.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise DomainError("gaussian_segment_integrals requires finite (a, b)")
    if (a <= 0.0).any():
        raise DomainError("gaussian_segment_integrals requires a > 0")
    q_b = normal_cdf(-b)
    phi_b = _exp_each(-0.5 * b * b) / SQRT_2PI
    a2 = a * a
    return SegmentIntegrals(
        i_neg=q_b / a,
        i_neg_t=(-phi_b + b * q_b) / a2,
        i_pos=(1.0 - q_b) / a,
        i_pos_t=(phi_b + b * (1.0 - q_b)) / a2,
    )


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
# Elements of each of the two slabs of the tail rule's work array (256 KiB).
# A block of powers shares every numpy call: 8 powers on the widest window
# (156 panels of 24 nodes).
_TAIL_BLOCK = 1 << 15


def fit_tail_integral(
    lam: float, sigma: float, ms: Sequence[int], c0: float, c1: float
) -> tuple[np.ndarray, np.ndarray]:
    """``E[(c0 + c1 T) (1 - Qfit(T))^m ; T > 0]`` for ``T ~ N(lam, sigma^2)``,
    per power ``m`` of ``ms``.

    Expanding ``(1 - Qfit)^m`` binomially gives the closed forms' alternating
    sums term by term; integrating the power directly, as
    ``exp(m log1p(-Qfit))``, avoids their cancellation.  The nodes,
    ``log1p(-Qfit)`` and ``c0 + c1 T`` do not depend on ``m`` and are built
    once.  The powers then go in blocks of ``_TAIL_BLOCK // nodes``, each
    through one (powers x panels x nodes) slab for the exponent and one for
    the weighted integrand.  Both slabs belong to one work array allocated
    once per call, and every step writes into them, so each ``m`` gets the
    bits a call with ``m`` alone would.  Returns the values and the error
    estimates, one entry per ``m``: the gap to the coarse rule plus a
    rounding allowance that grows with the magnitude of each node's
    exponent.
    """
    values = np.zeros(len(ms))
    errors = np.zeros(len(ms))
    lo = max(-lam / sigma, -_Z_MAX)
    if lo >= _Z_MAX:
        return values, errors
    panels = math.ceil((_Z_MAX - lo) / _PANEL_WIDTH)
    half = 0.5 * (_Z_MAX - lo) / panels
    mids = lo + half * (2.0 * np.arange(panels) + 1.0)
    z = mids[:, None] + half * _GL_NODES
    t = lam + sigma * z
    q = np.exp(-(_K1 * t * t + _K2 * t + _K3))
    log_fit = np.log1p(-q)
    half_z2 = 0.5 * z * z
    linear = c0 + c1 * t
    gl = _GL_WEIGHTS * half / SQRT_2PI
    powers = np.asarray(ms, dtype=float)[:, None, None]
    block = max(1, min(len(ms), _TAIL_BLOCK // z.size))
    work = np.empty((2, block) + z.shape)
    for start in range(0, len(ms), block):
        m = powers[start : start + block]
        exponent, wf = work[:, : len(m)]
        np.multiply(m, log_fit, out=exponent)
        np.subtract(exponent, half_z2, out=exponent)
        np.exp(exponent, out=wf)
        np.multiply(linear, wf, out=wf)
        np.multiply(wf, gl, out=wf)
        fine = wf[:, :, _GL_FINE].sum(axis=(1, 2))
        coarse = wf[:, :, _GL_COARSE].sum(axis=(1, 2))
        # wf * (16 + |exponent|), overwriting the exponent.
        np.abs(exponent, out=exponent)
        np.add(16.0, exponent, out=exponent)
        np.multiply(wf, exponent, out=exponent)
        np.abs(exponent, out=exponent)
        rounding = _EPS * exponent[:, :, _GL_FINE].sum(axis=(1, 2))
        values[start : start + len(m)] = fine
        errors[start : start + len(m)] = np.abs(fine - coarse) + rounding
    return values, errors


def fit_expectation(
    lam: float, sigma: float, ms: Sequence[int], c0: float, c1: float
) -> tuple[np.ndarray, np.ndarray]:
    """``E[(c0 + c1 T) Phi(T)^m]`` for ``T ~ N(lam, sigma^2)``, through the
    Q-fit, per power ``m`` of ``ms``: the values and the error estimates.

    Below 0, ``Phi(T) = Q(-T)``: the fitted power times the normal density
    completes the square into ``d exp(-(a t - b)^2 / 2) / sigma``, one
    Gaussian segment integral per ``m``, all taken in one call.  Above 0,
    ``Phi = 1 - Q`` gives :func:`fit_tail_integral`.  The error estimate is
    that integral's plus a rounding allowance for the segment term, which
    grows with the magnitude of the parts of its exponent as the tail
    rule's does.
    """
    tail, error = fit_tail_integral(lam, sigma, ms, c0, c1)
    m = np.asarray(ms, dtype=float)
    inv2 = 1.0 / (sigma * sigma)
    a = np.sqrt(2.0 * m * _K1 + inv2)
    b = (m * _K2 + lam * inv2) / a
    square = 2.0 * m * _K3 + lam * lam * inv2
    d = _exp_each(-0.5 * (square - b * b))
    seg = gaussian_segment_integrals(a, b)
    head = d * (c0 * seg.i_neg + c1 * seg.i_neg_t) / sigma
    rounding = _EPS * (16.0 + 0.5 * (square + b * b)) * np.abs(head)
    return head + tail, error + rounding
