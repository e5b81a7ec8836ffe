"""Normal CDF and quantile, upper tail, quadrature rule, segment-integral and Q-fit tests.

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
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy import special as sps

from plcsec import (
    DEFAULT_Q_APPROX,
    ConfigError,
    DomainError,
    EvaluationError,
    ScenarioParams,
    effective_links,
    gauss_hermite_rule,
    gaussian_segment_integrals,
    noise_events,
)
from plcsec import special_math
from plcsec.metrics import _event_offset
from plcsec.special_math import (
    _GL_COARSE,
    _GL_FINE,
    _GL_NODES,
    _GL_WEIGHTS,
    _TAIL_BLOCK,
    MAX_QUAD_ORDER,
    _tail_window,
    fit_expectation,
    fit_tail_integral,
    normal_cdf,
    normal_log_cdf,
    normal_quantile,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(t):
    return np.exp(-0.5 * t * t) / SQRT_2PI


class TestQFunction:
    """The upper tail ``Q(t) = normal_cdf(-t)``."""

    def test_half_at_zero(self):
        assert normal_cdf(-0.0) == 0.5

    def test_frozen_erfc_value(self):
        # 0.5 * erfc(1/sqrt(2)) evaluated at high precision.
        assert normal_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-16)

    def test_deep_tail_underflows_cleanly(self):
        v = normal_cdf(-40.0)
        assert 0.0 <= v < 1e-300

    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_reflection_identity(self, t):
        assert normal_cdf(-t) + normal_cdf(t) == pytest.approx(1.0, abs=1e-14)

    def test_strictly_decreasing(self):
        # In float64 the value saturates to exactly 1.0 below t ~ -8; test
        # strict monotonicity on the range where steps are representable.
        t = np.linspace(-6.0, 6.0, 1201)
        assert np.all(np.diff(normal_cdf(-t)) < 0.0)

    def test_underflow_points(self):
        # Q is subnormal from t ~ 37.5 and exactly 0 from t ~ 38.5 on.
        assert normal_cdf(-37.4) > 2.2250738585072014e-308 > normal_cdf(-37.6) > 0.0
        assert normal_cdf(-38.4) > 0.0
        assert normal_cdf(-38.5) == 0.0
        assert normal_cdf(-40.0) == 0.0


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
        assert value == pytest.approx(-sps.ndtr(-8.0), rel=1e-13)
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
        rel = abs(_tail_fit(2.0) - normal_cdf(-2.0)) / normal_cdf(-2.0)
        assert rel < 0.05

    def test_envelope_on_grid(self):
        # The fit is a plot-scale surrogate: tight where the tail mass is
        # non-negligible, progressively optimistic deeper in.  Record the
        # measured envelope over [0, 5] rather than asserting a tightness the
        # constants do not deliver (at t = 5 the relative error is ~157%,
        # i.e. a factor 2.6, on an absolute scale of 1e-7).
        t = np.linspace(0.0, 5.0, 501)
        rel = np.abs(_tail_fit(t) - normal_cdf(-t)) / normal_cdf(-t)
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

    def test_agrees_with_numpy_at_every_order(self):
        # numpy's rule, from an eigenvalue solver, is a test-only reference.
        for order in range(1, MAX_QUAD_ORDER + 1):
            rule = gauss_hermite_rule(order)
            x, w = hermgauss(order)
            x, w = math.sqrt(2.0) * x, w / math.sqrt(math.pi)
            assert (np.abs(rule.nodes - x) <= 4e-15 * np.maximum(1.0, np.abs(x))).all(), order
            assert np.abs(rule.weights - w).max() <= 2e-15 * w.max(), order

    def test_guesses_that_meet_raise(self, monkeypatch):
        # Guesses that fall to one root would give a rule with a repeated node.
        monkeypatch.setattr(special_math, "_hermite_guess", lambda order: np.zeros(order))
        with pytest.raises(EvaluationError, match="order 5"):
            gauss_hermite_rule.__wrapped__(5)


class TestGaussLegendreRule:
    @pytest.mark.parametrize("n, part", [(16, _GL_FINE), (8, _GL_COARSE)])
    def test_agrees_with_numpy_and_the_exact_rule(self, n, part):
        nodes, weights = _GL_NODES[part], _GL_WEIGHTS[part]
        x = leggauss(n)[0]
        assert (np.abs(nodes - x) <= 4e-15 * np.maximum(1.0, np.abs(x))).all()
        # The weights 2 (1 - x^2) / (n P_(n-1)(x))^2 at 40 digits: numpy's
        # own end weights of leggauss(8) are 2.2e-15 of the largest off them.
        with mpmath.workdps(40):
            roots = [mpmath.findroot(lambda t: mpmath.legendre(n, t), v) for v in x.tolist()]
            exact = np.array(
                [float(2 * (1 - t * t) / (n * mpmath.legendre(n - 1, t)) ** 2) for t in roots]
            )
        assert np.abs(weights - exact).max() <= 2e-15 * exact.max()


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
        f = lambda t: (1.0 - normal_cdf(-t)) ** 2
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

    def test_arrays_match_elementwise_scalar_calls(self):
        a = np.array([0.05, 0.3, 1.0, 2.0, 7.5, 20.0, 300.0, 1.0, 1.0, 2.0])
        b = np.array([-8.0, -0.4, 0.0, 1.0, 3.7, 19.9, 20.5, -25.0, 38.0, 45.0])
        seg = gaussian_segment_integrals(a, b)
        for got, field in zip(seg, seg._fields):
            expected = [
                float(getattr(gaussian_segment_integrals(x, y), field)) for x, y in zip(a, b)
            ]
            assert got.tolist() == expected, field

    @pytest.mark.parametrize(
        "a, b",
        [([1.0, 2.0, 3.0], [0.0, math.nan, 1.0]), ([1.0, 0.0, 3.0], [0.0, 0.5, 1.0])],
    )
    def test_one_bad_element_raises(self, a, b):
        with pytest.raises(DomainError):
            gaussian_segment_integrals(np.array(a), np.array(b))


class TestFitExpectation:
    # Shuffled, with repeats, over {0, 1, 2, 24, 25, 1000, 10^5}.
    SHUFFLED = [25, 0, 1000, 2, 100_000, 1, 25, 24, 0, 1000]

    @staticmethod
    def assert_axis_matches_single_m_calls(fit, lam, sigma, ms, c0, c1):
        values, errors = fit(lam, sigma, ms, c0, c1)
        singles = [fit(lam, sigma, [m], c0, c1) for m in ms]
        assert values.tolist() == [float(v[0]) for v, _ in singles]
        assert errors.tolist() == [float(e[0]) for _, e in singles]

    @pytest.mark.parametrize("fit", [fit_expectation, fit_tail_integral])
    @pytest.mark.parametrize("ms", [[0, 1, 40, 1000], SHUFFLED])
    @pytest.mark.parametrize(
        "lam, sigma, c0, c1",
        [
            (0.0, 1.0, -1.2, 0.8),
            (-1.5, 0.6, 1.0, 0.0),
            (2.5, 3.0, 0.3, -0.7),
            (-20.0, 0.5, 1.0, 1.0),
        ],
    )
    def test_axis_matches_single_m_calls(self, fit, ms, lam, sigma, c0, c1):
        self.assert_axis_matches_single_m_calls(fit, lam, sigma, ms, c0, c1)

    @pytest.mark.parametrize("fit", [fit_expectation, fit_tail_integral])
    @pytest.mark.parametrize("lam, sigma, c0, c1", [(45.0, 1.0, -1.2, 0.8), (80.0, 2.0, 1.0, 0.0)])
    def test_axis_spanning_two_work_blocks(self, fit, lam, sigma, c0, c1):
        # lam / sigma >= 39 gives every power the window of the density
        # alone; more powers than a block holds take a second, partial one.
        _, _, keep = _tail_window(np.array([lam]), sigma, np.array(self.SHUFFLED, dtype=float))
        [width] = set(keep.ravel().tolist())
        block = _TAIL_BLOCK // (int(width) * 24)
        ms = (self.SHUFFLED * 4)[: block + 3]
        assert block < len(ms) < 2 * block
        self.assert_axis_matches_single_m_calls(fit, lam, sigma, ms, c0, c1)

    # One row per noise event, say, on one axis of powers.  sigma = 0.3
    # spreads the powers of lam = 0 over three windows; the last row has
    # lam / sigma below -39, so nothing of it lies above 0.
    ROW_LAMS = [0.0, -1.5, 2.5, 25.0, -20.0]
    ROW_C0S = [-1.2, 1.0, 0.3, -0.7, 1.0]
    SPREAD_MS = [25, 0, 100_000, 2, 300, 1, 25, 24, 0, 1000, 7, 100_000, 40]

    @pytest.mark.parametrize("fit", [fit_expectation, fit_tail_integral])
    def test_each_row_is_the_one_row_call(self, fit):
        sigma, c1 = 0.3, 0.8
        _, _, keep = _tail_window(np.array(self.ROW_LAMS[:-1]), sigma, np.array(self.SPREAD_MS))
        assert len(set(keep[0].tolist())) >= 3
        values, errors = fit(self.ROW_LAMS, sigma, self.SPREAD_MS, self.ROW_C0S, c1)
        assert values.shape == errors.shape == (len(self.ROW_LAMS), len(self.SPREAD_MS))
        for row, (lam, c0) in enumerate(zip(self.ROW_LAMS, self.ROW_C0S)):
            value, error = fit(lam, sigma, self.SPREAD_MS, c0, c1)
            assert values[row].tolist() == value.tolist()
            assert errors[row].tolist() == error.tolist()
        if fit is fit_tail_integral:
            assert values[-1].tolist() == errors[-1].tolist() == [0.0] * len(self.SPREAD_MS)


def full_window_tail(lam, sigma, m, c0, c1):
    """The tail rule on every panel of its grid up to 39 standard units,
    with its error estimate: the Q-fit tail integral without the window."""
    k1, k2, k3 = DEFAULT_Q_APPROX
    lo = max(-lam / sigma, -39.0)
    panels = math.ceil((39.0 - lo) / 0.5)
    half = 0.5 * (39.0 - lo) / panels
    mids = lo + half * (2.0 * np.arange(panels)[:, None] + 1.0)
    sums = []
    for nodes, weights in (leggauss(16), leggauss(8)):
        z = mids + half * nodes
        t = lam + sigma * z
        exponent = m * np.log1p(-np.exp(-(k1 * t * t + k2 * t + k3))) - 0.5 * z * z
        terms = (c0 + c1 * t) * np.exp(exponent) * weights * half / SQRT_2PI
        sums.append((terms.sum(), np.abs(terms * (16.0 + np.abs(exponent))).sum()))
    (fine, rounding), (coarse, _) = sums
    return fine, abs(fine - coarse) + np.finfo(float).eps * rounding


WINDOW_N = (1, 10, 40, 100, 1000, 100_000)


def closed_form_tails(s_b, s_e, n):
    """Per tail integral of the closed forms at N = n: its name and its
    (lam, sigma, m, c0, c1) arguments, one row per noise event."""
    cfg = ScenarioParams(s_b_db=s_b, s_e_db=s_e).system_config(n_destinations=n)
    dest, eav = effective_links(cfg.topology)
    phi_e = eav.s / dest.s
    events = noise_events(cfg.dest_noise, cfg.eav_noise)
    lams = [_event_offset(ev, dest, eav) for ev in events]
    c0_b = [math.log(ev.alpha_b) + dest.m for ev in events]
    c0_e = [math.log(ev.alpha_e) + eav.m - eav.s * lam / phi_e for ev, lam in zip(events, lams)]
    yield "destination", [0.0] * len(events), 1.0, n - 1, c0_b, dest.s
    yield "eavesdropper", lams, phi_e, n, c0_e, eav.s / phi_e
    yield "intercept", lams, phi_e, n, [1.0] * len(events), 0.0


@pytest.mark.parametrize("n", WINDOW_N)
@pytest.mark.parametrize("s_b, s_e", [(6.0, 6.0), (6.0, 2.0), (2.0, 6.0)])
def test_window_drops_only_what_its_error_covers(s_b, s_e, n):
    # The window keeps the full rule's panels where the integrand lives:
    # its gap to the full rule is within its stated error, and that error
    # is no more than twice the full rule's, so the window costs no
    # accuracy.  A margin too narrow would show as a stated error far above
    # the full rule's.
    for name, lams, sigma, m, c0s, c1 in closed_form_tails(s_b, s_e, n):
        values, errors = fit_tail_integral(lams, sigma, [m], c0s, c1)
        for lam, c0, [value], [error] in zip(lams, c0s, values, errors):
            ref, ref_error = full_window_tail(lam, sigma, m, c0, c1)
            case = (name, lam, m, value, ref, error, ref_error)
            assert abs(value - ref) <= error, case
            assert error <= 2.0 * ref_error, case


def test_window_keeps_a_rare_intercept():
    # s_b / s_e = 6 / 2 dB at N = 1000: the intercept probability is ~1e-36,
    # all of it in the eavesdropper's tails above 0.
    [(_, lams, sigma, m, c0s, c1)] = [
        args for args in closed_form_tails(6.0, 2.0, 1000) if args[0] == "intercept"
    ]
    values, _ = fit_tail_integral(lams, sigma, [m], c0s, c1)
    for lam, [value] in zip(lams, values):
        ref, _ = full_window_tail(lam, sigma, m, 1.0, 0.0)
        assert ref > 0.0
        assert abs(value - ref) <= 1e-12 * ref, (lam, value, ref)
