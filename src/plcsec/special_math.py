"""Gaussian tail machinery shared by the analytical metrics.

Four building blocks live here:

* ``q_function`` -- the upper-tail probability Q(t) of a standard normal,
  evaluated through ``erfc`` so that values far below 1e-300 stay meaningful
  instead of collapsing to ``1 - Phi(t)`` cancellation noise.
* ``q_approx`` -- the exponential upper-tail fit
  ``exp(-(k1 t^2 + k2 t + k3))`` valid for t >= 0, which is what turns tail
  powers into Gaussian integrals with closed forms.
* Gauss-Hermite rules in the *probabilists'* normalization, i.e. nodes and
  weights such that ``sum(w_i * f(z_i))`` approximates ``E[f(Z)]`` for a
  standard normal Z.  ``hermgauss`` supplies the physicists' rule for
  ``int exp(-x^2) g(x) dx``; substituting z = sqrt(2) x rescales nodes by
  sqrt(2) and weights by 1/sqrt(pi).
* ``gaussian_segment_integrals`` -- the four half-axis moments of
  ``exp(-(a t - b)^2 / 2) / sqrt(2 pi)``, which are the primitive integrals
  every closed-form expression in :mod:`plcsec.metrics` reduces to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import special as sps

from .errors import ConfigError, DomainError

__all__ = [
    "DEFAULT_Q_APPROX",
    "DEFAULT_QUAD_ORDER",
    "MAX_QUAD_ORDER",
    "QApproxParams",
    "QuadratureRule",
    "SegmentIntegrals",
    "gauss_hermite_rule",
    "gaussian_segment_integrals",
    "q_approx",
    "q_function",
]

SQRT_2PI = math.sqrt(2.0 * math.pi)
DEFAULT_QUAD_ORDER = 64
MAX_QUAD_ORDER = 200


@dataclass(frozen=True)
class QApproxParams:
    """Coefficients of the tail fit ``Q(t) ~ exp(-(k1 t^2 + k2 t + k3))``.

    The fit is an upper-tail surrogate, only meaningful for t >= 0.  The
    invariants guarantee the surrogate is a probability: ``k1 > 0`` keeps it
    integrable and the discriminant condition keeps the exponent nonnegative
    on t >= 0 so the value stays in (0, 1].
    """

    k1: float
    k2: float
    k3: float

    def __post_init__(self) -> None:
        for name in ("k1", "k2", "k3"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"QApproxParams.{name} must be finite")
        if self.k1 <= 0.0:
            raise ConfigError("QApproxParams.k1 must be > 0")
        if self.k3 < 0.0:
            raise ConfigError("QApproxParams.k3 must be >= 0 (value at t=0 must not exceed 1)")
        if self.k2 < 0.0 and self.k2 * self.k2 > 4.0 * self.k1 * self.k3:
            raise ConfigError(
                "QApproxParams exponent dips below 0 for some t >= 0; "
                "the fit would exceed 1"
            )


# Fitted constants of the exponential tail bound used throughout.
DEFAULT_Q_APPROX = QApproxParams(k1=0.3842, k2=0.7640, k3=0.6964)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Hermite nodes/weights normalized for standard-normal expectations.

    ``sum(weights) == 1`` and the nodes are symmetric about 0; the rule
    integrates polynomials up to degree ``2 * order - 1`` exactly.  Instances
    are immutable (arrays are write-locked) and safe to share across workers.
    """

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ConfigError("nodes and weights must be 1-D arrays of equal length")
        if len(nodes) != self.order:
            raise ConfigError("rule order does not match the number of nodes")
        if np.any(weights <= 0.0):
            raise ConfigError("quadrature weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ConfigError("quadrature weights must sum to 1")
        if np.max(np.abs(nodes + nodes[::-1])) > 1e-12:
            raise ConfigError("quadrature nodes must be symmetric about 0")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def q_function(t):
    """Upper-tail probability ``Q(t) = Pr[Z > t]`` of a standard normal.

    Accepts a scalar or array.  Uses ``erfc`` so the deep tail (t ~ 40 gives
    ~1e-350) underflows gracefully to subnormals/zero instead of going
    negative.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("q_function requires finite input")
    out = 0.5 * sps.erfc(arr / math.sqrt(2.0))
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def q_approx(t, params: QApproxParams = DEFAULT_Q_APPROX):
    """Exponential tail fit ``exp(-(k1 t^2 + k2 t + k3))`` for t >= 0.

    Negative arguments are rejected: the fit is one-sided, and callers must
    reflect through ``Q(-t) = 1 - Q(t)`` themselves.
    """
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("q_approx requires finite input")
    if np.any(arr < 0.0):
        raise DomainError("q_approx is defined for t >= 0 only; reflect via Q(-t) = 1 - Q(t)")
    out = np.exp(-(params.k1 * arr * arr + params.k2 * arr + params.k3))
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


@lru_cache(maxsize=32)
def gauss_hermite_rule(order: int) -> QuadratureRule:
    """Build the probabilists' Gauss-Hermite rule of the given order.

    Nodes/weights come from the eigen-decomposition of the Jacobi matrix
    (``numpy.polynomial.hermite.hermgauss``) for the physicists' weight
    ``exp(-x^2)`` and are rescaled to the standard normal measure.
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise ConfigError("quadrature order must be an integer")
    if not 1 <= order <= MAX_QUAD_ORDER:
        raise ConfigError(f"quadrature order must lie in [1, {MAX_QUAD_ORDER}], got {order}")
    x, w = hermgauss(int(order))
    return QuadratureRule(
        order=int(order),
        nodes=math.sqrt(2.0) * x,
        weights=w / math.sqrt(math.pi),
    )


class SegmentIntegrals(NamedTuple):
    """Half-axis moments of ``exp(-(a t - b)^2 / 2) / sqrt(2 pi)``.

    ``i_neg``/``i_pos`` are the masses over (-inf, 0] and [0, inf);
    ``i_neg_t``/``i_pos_t`` are the corresponding t-weighted moments.  They
    close over the full axis: ``i_neg + i_pos = 1/a`` and
    ``i_neg_t + i_pos_t = b / a^2``.
    """

    i_neg: float
    i_neg_t: float
    i_pos: float
    i_pos_t: float


def gaussian_segment_integrals(a: float, b: float) -> SegmentIntegrals:
    """Closed forms of the four basic segment integrals for a > 0.

    With ``Q`` the standard normal upper tail and ``phi`` its density:

    * ``i_neg   = Q(b) / a``
    * ``i_neg_t = -phi(b) / a^2 + b Q(b) / a^2``
    * ``i_pos   = (1 - Q(b)) / a``
    * ``i_pos_t =  phi(b) / a^2 + b (1 - Q(b)) / a^2``
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError("gaussian_segment_integrals requires finite (a, b)")
    if a <= 0.0:
        raise DomainError("gaussian_segment_integrals requires a > 0")
    q_b = q_function(b)
    phi_b = math.exp(-0.5 * b * b) / SQRT_2PI
    a2 = a * a
    return SegmentIntegrals(
        i_neg=q_b / a,
        i_neg_t=(-phi_b + b * q_b) / a2,
        i_pos=(1.0 - q_b) / a,
        i_pos_t=(phi_b + b * (1.0 - q_b)) / a2,
    )
