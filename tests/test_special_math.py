"""Normal CDF and quantile, tail function, quadrature rule and segment-integral tests.

Expected values are either analytic, frozen from an independent oracle
(high-precision erfc, adaptive quadrature) or computed by one (mpmath,
scipy.special); the oracle never shares code with the path under test.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import integrate
from scipy import special as sps

from plcsec import (
    DEFAULT_Q_APPROX,
    ConfigError,
    DomainError,
    gauss_hermite_rule,
    gaussian_segment_integrals,
    q_function,
)
from plcsec.special_math import normal_cdf, normal_log_cdf, normal_quantile

SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(t):
    return np.exp(-0.5 * t * t) / SQRT_2PI


class TestQFunction:
    def test_half_at_zero(self):
        assert q_function(0.0) == 0.5

    def test_frozen_erfc_value(self):
        # 0.5 * erfc(1/sqrt(2)) evaluated at high precision.
        assert q_function(1.0) == pytest.approx(0.15865525393145707, abs=1e-16)

    def test_deep_tail_underflows_cleanly(self):
        v = q_function(40.0)
        assert 0.0 <= v < 1e-300

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            q_function(float("nan"))
        with pytest.raises(DomainError):
            q_function(np.array([0.0, np.inf]))

    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_reflection_identity(self, t):
        assert q_function(t) + q_function(-t) == pytest.approx(1.0, abs=1e-14)

    def test_strictly_decreasing(self):
        # In float64 the value saturates to exactly 1.0 below t ~ -8; test
        # strict monotonicity on the range where steps are representable.
        t = np.linspace(-6.0, 6.0, 1201)
        assert np.all(np.diff(q_function(t)) < 0.0)

    def test_scalar_path_matches_array_path(self):
        t = np.concatenate([np.linspace(-39.0, 39.0, 781), [-20.0, 20.0, 20.5]])
        assert [q_function(float(v)) for v in t] == q_function(t).tolist()

    def test_underflow_points(self):
        # Q is subnormal from t ~ 37.5 and exactly 0 from t ~ 38.5 on.
        assert q_function(37.4) > 2.2250738585072014e-308 > q_function(37.6) > 0.0
        assert q_function(38.4) > 0.0
        assert q_function(38.5) == 0.0
        assert q_function(40.0) == 0.0


# Grids over which the normal CDF, log-CDF and quantile meet their stated
# accuracy.  The oracle is mpmath at 40 digits; scipy.special is a second,
# independent reference.
CDF_GRID = np.concatenate(
    [
        [-1000.0, -500.0, -100.0, -60.0, -45.0, -33.4],
        np.linspace(-40.0, 38.0, 1561),
        [-20.0 - 2**-48, -20.0 + 2**-48, 20.0 - 2**-48, 20.0 + 2**-48],
    ]
)
QUANTILE_GRID = np.concatenate(
    [
        [1e-300, 1e-250, 1e-200, 1e-100],
        10.0 ** -np.linspace(60.0, 1.0, 119),
        np.linspace(0.01, 0.49, 97),
        np.linspace(0.51, 0.99, 97),
        1.0 - 10.0 ** -np.linspace(1.0, 15.5, 59),
        [0.075, 0.925, 0.5 - 2**-30, 0.5 + 2**-30, 1.0 - 2.0**-53],
    ]
)


def mp_cdf(x):
    with mpmath.workdps(40):
        return mpmath.ncdf(mpmath.mpf(float(x)))


def mp_log_cdf(x):
    with mpmath.workdps(40):
        x = mpmath.mpf(float(x))
        # log(ncdf(x)) would lose -Q(x) to the 40-digit rounding of ncdf near 1.
        return mpmath.log1p(-mpmath.ncdf(-x)) if x > 0 else mpmath.log(mpmath.ncdf(x))


def mp_quantile(p):
    """Root of Phi(x) = p, solved on the side where the tail is p itself."""
    lo = min(p, 1.0 - p)  # exact in double precision
    with mpmath.workdps(40):
        target = mpmath.log(mpmath.mpf(lo))
        x0 = -mpmath.sqrt(-2 * target)
        x = mpmath.findroot(lambda x: mpmath.log(mpmath.ncdf(x)) - target, x0)
    return x if p < 0.5 else -x


def worst_relative_error(got, refs):
    worst = 0.0
    for value, ref in zip(got, refs):
        worst = max(worst, float(abs((value - ref) / ref)))
    return worst


class TestNormalCdf:
    def test_cdf_matches_mpmath(self):
        refs = [mp_cdf(x) for x in CDF_GRID]
        keep = [abs(r) >= 1e-300 for r in refs]
        got = normal_cdf(CDF_GRID)[keep]
        assert worst_relative_error(got, [r for r, k in zip(refs, keep) if k]) <= 1e-13

    def test_log_cdf_matches_mpmath(self):
        refs = [mp_log_cdf(x) for x in CDF_GRID]
        keep = [abs(r) >= 1e-300 for r in refs]
        got = normal_log_cdf(CDF_GRID)[keep]
        assert worst_relative_error(got, [r for r, k in zip(refs, keep) if k]) <= 1e-13

    def test_matches_scipy(self):
        # scipy rounds x / sqrt(2) before erfc, which leaves its ndtr up to
        # 2e-13 off the mpmath values near |x| = 36 on this grid; the bound
        # adds that to the 1e-13 asserted above.
        cdf = sps.ndtr(CDF_GRID)
        keep = cdf >= 1e-300
        assert worst_relative_error(normal_cdf(CDF_GRID)[keep], cdf[keep]) <= 3e-13
        log_cdf = sps.log_ndtr(CDF_GRID)
        keep = np.abs(log_cdf) >= 1e-300
        assert worst_relative_error(normal_log_cdf(CDF_GRID)[keep], log_cdf[keep]) <= 3e-13

    def test_log_cdf_keeps_the_upper_tail(self):
        # Phi(8) rounds to 1 - 6e-16; its log must be -Q(8), not 0.
        value = float(normal_log_cdf(8.0))
        assert value == pytest.approx(-q_function(8.0), rel=1e-13)
        assert value == pytest.approx(float(mp_log_cdf(8.0)), rel=1e-13)

    def test_log_cdf_stays_finite_past_the_cdf_underflow(self):
        x = np.array([-38.6, -40.0, -1000.0, -1e100])
        assert np.all(normal_cdf(x[:2]) == 0.0)
        assert np.all(np.isfinite(normal_log_cdf(x)))

    def test_shape_and_special_values(self):
        x = np.array([[-np.inf, 0.0], [np.inf, np.nan]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cdf = normal_cdf(x)
            log_cdf = normal_log_cdf(x)
        assert cdf.shape == log_cdf.shape == (2, 2)
        assert cdf[0].tolist() == [0.0, 0.5] and cdf[1, 0] == 1.0
        assert log_cdf[0, 0] == -np.inf and log_cdf[1, 0] == 0.0
        assert log_cdf[0, 1] == math.log(0.5)
        assert np.isnan(cdf[1, 1]) and np.isnan(log_cdf[1, 1])


class TestNormalQuantile:
    def test_matches_mpmath(self):
        got = normal_quantile(QUANTILE_GRID)
        assert worst_relative_error(got, [mp_quantile(p) for p in QUANTILE_GRID]) <= 2e-15

    def test_matches_scipy(self):
        got = normal_quantile(QUANTILE_GRID)
        assert worst_relative_error(got, sps.ndtri(QUANTILE_GRID)) <= 4e-15

    def test_endpoints_are_infinite_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="raise"):
                z = normal_quantile(np.array([0.0, 1.0, 0.5]))
        assert z.tolist() == [-np.inf, np.inf, 0.0]

    def test_shape(self):
        assert normal_quantile(0.975).shape == ()
        assert normal_quantile(np.full((2, 3), 0.975)).shape == (2, 3)


def _tail_fit(t, params=DEFAULT_Q_APPROX):
    """The exponential tail fit the closed forms integrate, for t >= 0."""
    t = np.asarray(t, dtype=float)
    return np.exp(-(params.k1 * t * t + params.k2 * t + params.k3))


class TestQApprox:
    def test_value_at_zero_is_exp_minus_k3(self):
        assert _tail_fit(0.0) == pytest.approx(math.exp(-0.6964), rel=1e-15)

    def test_zero_coefficients_give_unity(self):
        flat = DEFAULT_Q_APPROX._replace(k1=1e-300, k2=0.0, k3=0.0)
        assert _tail_fit(1.0, flat) == pytest.approx(1.0)

    def test_close_to_q_function_at_two(self):
        rel = abs(_tail_fit(2.0) - q_function(2.0)) / q_function(2.0)
        assert rel < 0.05

    def test_envelope_on_grid(self):
        # The fit is a plot-scale surrogate: tight where the tail mass is
        # non-negligible, progressively optimistic deeper in.  Record the
        # measured envelope over [0, 5] rather than asserting a tightness the
        # constants do not deliver (at t = 5 the relative error is ~157%,
        # i.e. a factor 2.6, on an absolute scale of 1e-7).
        t = np.linspace(0.0, 5.0, 501)
        rel = np.abs(_tail_fit(t) - q_function(t)) / q_function(t)
        worst = float(rel.max())
        assert worst < 1.6, f"measured [0,5] envelope {worst:.4f}"
        near = rel[t <= 2.0]
        assert near.max() < 0.05, f"measured [0,2] envelope {near.max():.4f}"

    def test_fit_is_a_probability(self):
        # k1 > 0 keeps the fit integrable; k3 >= 0 and an exponent that
        # stays nonnegative on t >= 0 (no real root there when k2 < 0)
        # keep it in (0, 1].
        k1, k2, k3 = DEFAULT_Q_APPROX
        assert k1 > 0.0
        assert k3 >= 0.0
        assert not (k2 < 0.0 and k2 * k2 > 4.0 * k1 * k3)


class TestGaussHermiteRule:
    def test_order_one_is_the_mean(self):
        rule = gauss_hermite_rule(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights.tolist() == [1.0]

    def test_second_moment(self):
        rule = gauss_hermite_rule(5)
        assert np.dot(rule.weights, rule.nodes**2) == pytest.approx(1.0, abs=1e-12)

    def test_eighth_moment(self):
        # E[Z^8] = 7!! = 105.
        rule = gauss_hermite_rule(20)
        assert np.dot(rule.weights, rule.nodes**8) == pytest.approx(105.0, abs=1e-9)

    @pytest.mark.parametrize("order", [1, 2, 5, 16, 64, 200])
    def test_normalization_and_symmetry(self, order):
        rule = gauss_hermite_rule(order)
        assert abs(rule.weights.sum() - 1.0) <= 1e-12
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1])) <= 1e-12

    @pytest.mark.parametrize("order", [3, 8, 40])
    def test_exact_for_even_monomials(self, order):
        # E[Z^k] = (k-1)!! for even k <= 2*order - 1, 0 for odd k.
        rule = gauss_hermite_rule(order)
        moment = 1.0
        for k in range(2, 2 * order, 2):
            moment *= k - 1
            got = np.dot(rule.weights, rule.nodes ** float(k))
            assert abs(got - moment) <= 1e-9 * moment

    def test_rejects_out_of_range_order(self):
        for bad in (0, -3, 201):
            with pytest.raises(ConfigError):
                gauss_hermite_rule(bad)
        with pytest.raises(ConfigError):
            gauss_hermite_rule(2.5)

    def test_rule_arrays_are_immutable(self):
        rule = gauss_hermite_rule(8)
        with pytest.raises(ValueError):
            rule.nodes[0] = 1.0


class TestExpectStandardNormal:
    def test_weight_normalization(self):
        rule = gauss_hermite_rule(32)
        assert np.dot(rule.weights, np.ones_like(rule.nodes)) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0])
    def test_lognormal_mean_identity(self, s):
        # E[exp(s Z + m)] = exp(m + s^2 / 2).
        rule = gauss_hermite_rule(40)
        m = -0.7
        got = np.dot(rule.weights, np.exp(s * rule.nodes + m))
        assert got == pytest.approx(math.exp(m + 0.5 * s * s), abs=1e-8)

    def test_squared_cdf_expectation(self):
        # E[Phi(Z)^2] = E[U^2] = 1/3 by the probability integral transform;
        # cross-checked against adaptive quadrature.
        rule = gauss_hermite_rule(64)
        f = lambda t: (1.0 - q_function(t)) ** 2
        got = np.dot(rule.weights, f(rule.nodes))
        oracle, err = integrate.quad(lambda t: f(t) * normal_pdf(t), -10, 10)
        assert err < 1e-10
        assert got == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert got == pytest.approx(oracle, abs=1e-6)


class TestGaussianSegmentIntegrals:
    @pytest.mark.parametrize("a, b", [(1.0, math.nan), (math.inf, 0.0)])
    def test_rejects_non_finite_arguments(self, a, b):
        with pytest.raises(DomainError, match="requires finite"):
            gaussian_segment_integrals(a, b)

    def test_half_mass_split(self):
        seg = gaussian_segment_integrals(1.0, 0.0)
        assert seg.i_neg == pytest.approx(0.5)
        assert seg.i_pos == pytest.approx(0.5)

    def test_half_normal_mean(self):
        seg = gaussian_segment_integrals(1.0, 0.0)
        assert seg.i_pos_t == pytest.approx(1.0 / SQRT_2PI, rel=1e-14)
        assert seg.i_neg_t == pytest.approx(-1.0 / SQRT_2PI, rel=1e-14)

    def test_against_adaptive_quadrature(self):
        a, b = 2.0, 1.0
        seg = gaussian_segment_integrals(a, b)
        kernel = lambda t: math.exp(-0.5 * (a * t - b) ** 2) / SQRT_2PI
        # The kernel is centered at b/a with scale 1/a; clipping 12 scales out
        # truncates less than exp(-72) of mass and keeps quad's error
        # estimate honest on a finite interval.
        lo_cut = (b - 12.0) / a
        hi_cut = (b + 12.0) / a
        for got, lo, hi, weight in [
            (seg.i_neg, lo_cut, 0.0, lambda t: 1.0),
            (seg.i_neg_t, lo_cut, 0.0, lambda t: t),
            (seg.i_pos, 0.0, hi_cut, lambda t: 1.0),
            (seg.i_pos_t, 0.0, hi_cut, lambda t: t),
        ]:
            oracle, err = integrate.quad(
                lambda t: weight(t) * kernel(t),
                lo,
                hi,
                epsabs=1e-13,
                epsrel=1e-12,
                limit=200,
            )
            assert err < 1e-11
            assert got == pytest.approx(oracle, abs=1e-10)

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_full_axis_closure(self, a, b):
        seg = gaussian_segment_integrals(a, b)
        assert seg.i_neg + seg.i_pos == pytest.approx(1.0 / a, rel=1e-12)
        assert seg.i_neg_t + seg.i_pos_t == pytest.approx(b / (a * a), rel=1e-9, abs=1e-13)

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(DomainError):
            gaussian_segment_integrals(0.0, 1.0)
        with pytest.raises(DomainError):
            gaussian_segment_integrals(-1.0, 1.0)
