"""Secrecy-metric tests.

Every analytical route is checked against an independent oracle:

* the quadrature average against direct adaptive integration of the defining
  clamped-rate expectation (no shared code: the oracle integrates in the
  standardized normal plane with explicit clamp boundaries);
* the closed-form asymptote and intercept probability against adaptive
  integration of their defining tail-fit integrands;
* small analytic cases (symmetry, degenerate parameters) against hand
  values.
"""

import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from scipy import integrate

from plcsec import (
    ConfigError,
    EvaluationError,
    LinkParams,
    McConfig,
    NoiseParams,
    PinholeTopology,
    ScenarioParams,
    SystemConfig,
    asc_asymptotic,
    asc_asymptotic_large_n,
    asc_quadrature,
    effective_links,
    gauss_hermite_rule,
    mc_asc,
    noise_events,
    poi_closed_form,
    poi_quadrature,
    q_function,
)
from plcsec.metrics import _event_offset, _fit_expectation
from plcsec.special_math import normal_cdf, normal_log_cdf

LN2 = math.log(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)
K1, K2, K3 = 0.3842, 0.7640, 0.6964


def make_config(
    m_b=-4.60517,
    s_b=1.38155,
    m_e=-9.21034,
    s_e=1.38155,
    m_a=-4.60517,
    s_a=1.38155,
    n=10,
    pinhole=True,
    p_b=0.1,
    p_e=0.1,
    eta_b=10.0,
    eta_e=10.0,
    power=100.0,
    order=64,
    bg_b=1.0,
    bg_e=1.0,
):
    return SystemConfig(
        topology=PinholeTopology(
            source_link=LinkParams(m_a, s_a),
            destination_link=LinkParams(m_b, s_b),
            eavesdropper_link=LinkParams(m_e, s_e),
            n_destinations=n,
            pinhole_present=pinhole,
        ),
        dest_noise=NoiseParams(bg_b, eta_b, p_b),
        eav_noise=NoiseParams(bg_e, eta_e, p_e),
        transmit_power=power,
        quadrature_order=order,
    )


def normal_pdf(t):
    return np.exp(-0.5 * t * t) / SQRT_2PI


def pinned_gains_config(ga, gn, ge, **kw):
    """Configuration whose link gains are fixed at ``ga``, ``gn``, ``ge``."""
    return make_config(
        m_a=math.log(ga), m_b=math.log(gn), m_e=math.log(ge),
        s_a=1e-12, s_b=1e-12, s_e=1e-12, n=1, **kw,
    )


class TestSystemConfig:
    def test_fields_are_the_scenario_power_and_order(self):
        assert [f.name for f in fields(SystemConfig)] == [
            "topology", "dest_noise", "eav_noise", "transmit_power", "quadrature_order",
        ]
        cfg = make_config()
        with pytest.raises(TypeError):
            SystemConfig(cfg.topology, cfg.dest_noise, cfg.eav_noise, 1.0,
                         q_approx=cfg.q_approx)

    @pytest.mark.parametrize("bad", [0, 201, 2.5, True, "64", [64]])
    def test_rejects_bad_quadrature_order(self, bad):
        with pytest.raises(ConfigError, match="quadrature order"):
            make_config(order=bad)

    def test_equal_scenarios_give_equal_hashable_configs(self):
        a = ScenarioParams().system_config(quad_order=32)
        b = ScenarioParams().system_config(quad_order=32)
        assert a == b and hash(a) == hash(b)
        assert a != ScenarioParams().system_config()
        assert {a, b} == {a}

    @pytest.mark.parametrize("order", [1, 32, np.int64(64)])
    def test_quadrature_is_the_cached_rule(self, order):
        cfg = make_config(order=order)
        assert cfg.quadrature is gauss_hermite_rule(cfg.quadrature_order)
        assert cfg.quadrature.order == order


class TestInstantaneousSecrecyCapacity:
    """Monte Carlo scores the clamped rate difference of each trial under
    its realized noise states; with pinned gains only the states vary, so
    the estimate must match the four-event mixture at those gains."""

    def test_equal_arguments_cancel_same_state_events(self):
        # With identical noise at both nodes and equal branch gains, the
        # same-state events see identical rates; only cross-state events
        # contribute.
        g = 0.37
        cfg = pinned_gains_config(1.7, g, g, p_b=0.3, p_e=0.3, eta_b=5.0, eta_e=5.0)
        est = mc_asc(cfg, McConfig(samples=200_000, seed=12))
        a1 = cfg.transmit_power / 1.0
        a2 = a1 / 6.0
        cross = math.log1p(a1 * 1.7 * g) / LN2 - math.log1p(a2 * 1.7 * g) / LN2
        # Only (state1, state2) contributes: (1-p) * p * cross.
        assert abs(est.value - 0.7 * 0.3 * cross) <= est.ci_halfwidth

    def test_clamp_floors_at_zero(self):
        cfg = pinned_gains_config(1.0, 0.001, 10.0, p_b=0.0, p_e=0.0, eta_b=0.0, eta_e=0.0)
        # Destination weaker than the eavesdropper: every trial clamps to 0.
        est = mc_asc(cfg, McConfig(samples=10_000, seed=3))
        assert est.value == 0.0
        assert est.ci_halfwidth == 0.0

    def test_matches_direct_four_term_evaluation(self):
        rng = np.random.default_rng(99)
        for i in range(5):
            ga, gn, ge = np.exp(rng.normal(size=3) * 2.0)
            cfg = pinned_gains_config(
                ga, gn, ge, p_b=0.25, p_e=0.6, eta_b=3.0, eta_e=30.0, power=17.0
            )
            expected = 0.0
            for j, pj in ((1, 0.75), (2, 0.25)):
                ab = 17.0 / (1.0 if j == 1 else 4.0)
                for k, pk in ((1, 0.4), (2, 0.6)):
                    ae = 17.0 / (1.0 if k == 1 else 31.0)
                    diff = math.log2(1 + ab * ga * gn) - math.log2(1 + ae * ga * ge)
                    expected += pj * pk * max(diff, 0.0)
            est = mc_asc(cfg, McConfig(samples=100_000, seed=40 + i, confidence=0.999))
            assert abs(est.value - expected) <= est.ci_halfwidth


def asc_quadrature_per_event(cfg, power):
    """The nested Gauss-Hermite sum of ``asc_quadrature`` taken event by event.

    Each noise event forms its own two rate matrices, each inner sum reads
    that event's clamp weights, and the events are mixed by probability last.
    ``asc_quadrature`` folds the event weights per noise state instead, which
    only reorders the floating-point sum.
    """
    dest, eav = effective_links(cfg.topology)
    n = cfg.topology.n_destinations
    phi_e = eav.s / dest.s
    rule = gauss_hermite_rule(cfg.quadrature_order)
    t, w = rule.nodes, rule.weights
    if cfg.topology.pinhole_present:
        src = cfg.topology.source_link
        x, wx = np.exp(src.s * t + src.m), w
    else:
        x, wx = np.ones(1), np.ones(1)
    y = np.exp(dest.s * t + dest.m)
    z = np.exp(eav.s * t + eav.m)
    sel = n * np.exp((n - 1) * normal_log_cdf(t))
    total = 0.0
    for ev in noise_events(cfg.dest_noise, cfg.eav_noise):
        lam = _event_offset(ev, dest, eav)
        base_b = w * sel * normal_cdf((t - lam) / phi_e)
        base_e = w * (-np.expm1(n * normal_log_cdf(phi_e * t + lam)))
        rate_b = np.log1p((power * ev.alpha_b * x)[:, None] * y[None, :]) / LN2
        rate_e = np.log1p((power * ev.alpha_e * x)[:, None] * z[None, :]) / LN2
        total += ev.probability * float(wx @ (rate_b @ base_b - rate_e @ base_e))
    return total


def asc_oracle_no_shared(cfg):
    """Direct adaptive integration of the clamped-rate expectation.

    Valid when the shared gain is pinned to 1 (no pinhole).  Works in the
    standardized plane: for each eavesdropper coordinate the positive-rate
    region of the best-destination coordinate is a half-line, so the clamp
    never enters as a kink.
    """
    dest, eav = effective_links(cfg.topology)
    n = cfg.topology.n_destinations
    power = cfg.transmit_power

    total = 0.0
    for ev in noise_events(cfg.dest_noise, cfg.eav_noise):
        if ev.probability == 0.0:
            continue

        def inner(ze):
            gain_e = math.exp(eav.m + eav.s * ze)
            rate_e = math.log1p(power * ev.alpha_e * gain_e) / LN2
            # Positive secrecy requires alpha_b * gain_b > alpha_e * gain_e.
            z_lo = (
                math.log(ev.alpha_e / ev.alpha_b) + eav.m + eav.s * ze - dest.m
            ) / dest.s

            def body(zb):
                gain_b = math.exp(dest.m + dest.s * zb)
                rate_b = math.log1p(power * ev.alpha_b * gain_b) / LN2
                dens = (
                    n * (1.0 - q_function(zb)) ** (n - 1) * float(normal_pdf(zb))
                )
                return (rate_b - rate_e) * dens

            lo = max(z_lo, -40.0)
            if lo >= 12.0:
                return 0.0
            val, _ = integrate.quad(body, lo, 12.0, limit=200)
            return val * float(normal_pdf(ze))

        val, _ = integrate.quad(inner, -10.0, 10.0, limit=200)
        total += ev.probability * val
    return total


class TestAscQuadrature:
    @pytest.mark.parametrize("n,power", [(1, 10.0), (3, 1000.0)])
    def test_against_direct_integration(self, n, power):
        cfg = make_config(n=n, pinhole=False, m_a=0.0, s_a=1e-9, power=power)
        got = asc_quadrature(cfg).value
        oracle = asc_oracle_no_shared(cfg)
        assert got == pytest.approx(oracle, abs=2e-6)

    def test_against_direct_integration_no_impulses(self):
        cfg = make_config(
            n=1, pinhole=False, m_a=0.0, s_a=1e-9, p_b=0.0, p_e=0.0, power=100.0
        )
        assert asc_quadrature(cfg).value == pytest.approx(
            asc_oracle_no_shared(cfg), abs=1e-6
        )

    def test_result_is_tagged(self):
        res = asc_quadrature(make_config())
        assert res.method == "quadrature"
        assert res.ci_halfwidth == 0.0

    def test_doubling_order_is_stable(self):
        for power in (1.0, 1e3, 1e6):
            a = asc_quadrature(make_config(power=power, order=64)).value
            b = asc_quadrature(make_config(power=power, order=128)).value
            assert abs(a - b) < 1e-4

    def test_nondecreasing_in_destination_count(self):
        values = [
            asc_quadrature(make_config(n=n, power=100.0)).value
            for n in (1, 2, 4, 8, 16, 40)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("spreads_db", [(6, 6), (2, 6)], ids=["sb6-se6", "sb2-se6"])
    @pytest.mark.parametrize("n", [1, 10, 1000])
    @pytest.mark.parametrize("order", [32, 64, 160])
    @pytest.mark.parametrize("prob", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("pinhole", [True, False], ids=["pinhole", "no-pinhole"])
    def test_folded_events_match_per_event_sum(self, pinhole, prob, order, n, spreads_db):
        db = math.log(10.0) / 10.0
        cfg = make_config(
            n=n, pinhole=pinhole, p_b=prob, p_e=prob, order=order,
            s_b=spreads_db[0] * db, s_e=spreads_db[1] * db,
        )
        powers = (0.1, 10.0, 1e3, 1e6)
        for power, got in zip(powers, asc_quadrature(cfg, powers=powers)):
            want = asc_quadrature_per_event(cfg, power)
            assert got.value == pytest.approx(want, rel=4e-15, abs=0.0)

    def test_overflowing_inputs_raise_evaluation_error(self):
        cfg = make_config(power=1e308, bg_b=1e-12, bg_e=1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match="dest_state"):
                asc_quadrature(cfg)

    def test_eavesdropper_overflow_names_its_noise_state(self):
        # Only the eavesdropper's rates overflow: its SNR factor is 1e300.
        cfg = make_config(power=1e6, bg_e=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError, match=r"\(eav_state=1\) at outer node index"):
                asc_quadrature(cfg)

    @pytest.mark.parametrize("pinhole", [True, False], ids=["pinhole", "no-pinhole"])
    @pytest.mark.parametrize("order", [64, 160])
    def test_power_axis_matches_calls_one_power_at_a_time(self, order, pinhole):
        # The rates overflow at 1e300 alone.
        cfg = make_config(order=order, pinhole=pinhole, m_b=20.0, m_e=15.0)
        powers = (0.1, 100.0, 1e6, 1e300, 2.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            axis = asc_quadrature(cfg, powers=powers)
            assert len(axis) == len(powers)
            for power, got in zip(powers, axis):
                one = replace(cfg, transmit_power=power)
                if power == 1e300:
                    with pytest.raises(EvaluationError) as exc:
                        asc_quadrature(one)
                    assert isinstance(got, EvaluationError) and str(got) == str(exc.value)
                else:
                    assert got == asc_quadrature(one)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_power_axis_rejects_bad_powers(self, bad):
        with pytest.raises(ConfigError, match="transmit_power"):
            asc_quadrature(make_config(), powers=(1.0, bad))

    def test_power_axis_peak_memory_stays_small(self):
        # One power at a time: a (powers x nodes x nodes) array would be 57 MB.
        cfg = make_config(order=160)
        powers = [10.0 ** (-1.0 + 0.025 * i) for i in range(281)]
        tracemalloc.start()
        try:
            asc_quadrature(cfg, powers=powers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def asymptotic_event_oracle(at_b, at_e, m_b, s_b, m_e, s_e, n):
    """Adaptive integration of the tail-fit integrands for one noise event.

    Mirrors the derivation independently: destination side via the dropped
    contest factor, eavesdropper side via the re-centered contest variable,
    with the exponential Q-fit substituted on each half-axis.
    """
    phi = s_e / s_b
    lam = (m_e - m_b + math.log(at_e / at_b)) / s_b
    c0b = math.log(at_b) + m_b

    def q_fit(t):
        return math.exp(-(K1 * t * t + K2 * t + K3))

    dest_neg, _ = integrate.quad(
        lambda t: (n / LN2)
        * (c0b + s_b * t)
        * q_fit(-t) ** (n - 1)
        * float(normal_pdf(t)),
        -12,
        0,
        limit=200,
    )
    dest_pos, _ = integrate.quad(
        lambda t: (n / LN2)
        * (c0b + s_b * t)
        * (1.0 - q_fit(t)) ** (n - 1)
        * float(normal_pdf(t)),
        0,
        12,
        limit=200,
    )
    eav_zero = (math.log(at_e) + m_e) / LN2

    def eav_density(u):
        return math.exp(-((u - lam) ** 2) / (2 * phi * phi)) / (SQRT_2PI * phi)

    pref = lambda u: (math.log(at_e) + m_e - s_e * lam / phi + s_e * u / phi) / LN2
    eav_neg, _ = integrate.quad(
        lambda u: pref(u) * q_fit(-u) ** n * eav_density(u),
        lam - 12 * phi if lam - 12 * phi < 0 else -24,
        0,
        limit=200,
    )
    eav_pos, _ = integrate.quad(
        lambda u: pref(u) * (1.0 - q_fit(u)) ** n * eav_density(u),
        0,
        max(lam + 12 * phi, 12),
        limit=200,
    )
    return (dest_neg + dest_pos) - (eav_zero + eav_neg + eav_pos)


class TestAscAsymptotic:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_against_term_level_integration(self, n):
        cfg = make_config(n=n)
        dest, eav = effective_links(cfg.topology)
        expected = 0.0
        for ev in noise_events(cfg.dest_noise, cfg.eav_noise):
            expected += ev.probability * asymptotic_event_oracle(
                ev.alpha_b, ev.alpha_e, dest.m, dest.s, eav.m, eav.s, n
            )
        got = asc_asymptotic(cfg).value
        assert got == pytest.approx(expected, abs=1e-9)

    def test_single_destination_analytic_value(self):
        # With one destination, no impulses and unit background variances the
        # whole closed form collapses: the destination side integrates the
        # affine rate exactly, the eavesdropper side keeps its half-axis
        # contest corrections, which cancel by symmetry here.
        m_b, s_b, m_e, s_e = -2.0, 1.2, -7.0, 1.2
        cfg = make_config(
            m_b=m_b, s_b=s_b, m_e=m_e, s_e=s_e, n=1, p_b=0.0, p_e=0.0,
            eta_b=0.0, eta_e=0.0,
        )
        got = asc_asymptotic_large_n(cfg).value
        expected = (m_b / 2.0 + s_b / SQRT_2PI - m_e) / LN2
        assert got == pytest.approx(expected, rel=1e-12)

    def test_independent_of_transmit_power_bitwise(self):
        a = asc_asymptotic(make_config(power=1.0)).value
        b = asc_asymptotic(make_config(power=1e6)).value
        assert a == b

    def test_matches_quadrature_at_saturation(self):
        cfg = make_config()
        asym = asc_asymptotic(cfg).value
        quad = asc_quadrature(make_config(power=1e10)).value
        assert abs(quad - asym) / asym < 0.01


class TestAscAsymptoticLargeN:
    def test_gap_to_full_asymptote_shrinks_with_n(self):
        gaps = []
        for n in (1, 10, 40, 100):
            cfg = make_config(n=n)
            gaps.append(
                abs(asc_asymptotic(cfg).value - asc_asymptotic_large_n(cfg).value)
            )
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_increasing_in_n_within_validity_regime(self):
        # The many-destination form drops terms that dominate at small N, so
        # the growth claim is tested from N = 4 upward where it applies.
        values = [
            asc_asymptotic_large_n(make_config(n=n)).value for n in (4, 8, 16, 32, 64)
        ]
        assert all(b > a for a, b in zip(values, values[1:]))


def poi_event_oracle(at_b, at_e, m_b, s_b, m_e, s_e, n):
    """Tail-fit intercept probability for one event by direct integration."""
    phi = s_e / s_b
    lam = (m_e - m_b + math.log(at_e / at_b)) / s_b

    def q_fit(t):
        return math.exp(-(K1 * t * t + K2 * t + K3))

    def dens(u):
        return math.exp(-((u - lam) ** 2) / (2 * phi * phi)) / (SQRT_2PI * phi)

    neg, _ = integrate.quad(
        lambda u: q_fit(-u) ** n * dens(u), min(lam - 12 * phi, -12), 0, limit=200
    )
    pos, _ = integrate.quad(
        lambda u: (1.0 - q_fit(u)) ** n * dens(u), 0, max(lam + 12 * phi, 12), limit=200
    )
    return neg + pos


class TestPoiQuadrature:
    def test_symmetric_single_destination_is_half(self):
        cfg = make_config(
            m_b=-5.0, s_b=1.0, m_e=-5.0, s_e=1.0, n=1, p_b=0.3, p_e=0.3,
            eta_b=4.0, eta_e=4.0,
        )
        assert poi_quadrature(cfg).value == pytest.approx(0.5, abs=1e-9)

    def test_independent_of_transmit_power_bitwise(self):
        assert (
            poi_quadrature(make_config(power=1.0)).value
            == poi_quadrature(make_config(power=1000.0)).value
        )

    def test_in_unit_interval_and_nonincreasing_in_n(self):
        values = []
        for n in (1, 2, 4, 8, 16, 40):
            v = poi_quadrature(make_config(n=n)).value
            assert 0.0 <= v <= 1.0
            values.append(v)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_swap_maps_to_complement_for_one_destination(self):
        # Same noise statistics at both node classes: exchanging the two
        # branch links turns "eavesdropper wins" into its complement.
        base = make_config(m_b=-4.0, s_b=1.4, m_e=-8.0, s_e=0.9, n=1,
                           p_b=0.2, p_e=0.2, eta_b=7.0, eta_e=7.0)
        swapped = make_config(m_b=-8.0, s_b=0.9, m_e=-4.0, s_e=1.4, n=1,
                              p_b=0.2, p_e=0.2, eta_b=7.0, eta_e=7.0)
        assert poi_quadrature(swapped).value == pytest.approx(
            1.0 - poi_quadrature(base).value, abs=1e-9
        )

    @pytest.mark.parametrize("n", [1, 10])
    @pytest.mark.parametrize(
        "noise",
        [dict(bg_b=6e-309), dict(bg_e=6e-309), dict(bg_b=1e10, eta_b=1e290),
         dict(bg_e=1e10, eta_e=1e290), dict(bg_b=6e-309, bg_e=1e10, eta_e=1e290)],
        ids=["tiny-var-b", "tiny-var-e", "large-ratio-b", "large-ratio-e", "opposite-bounds"],
    )
    def test_in_unit_interval_at_the_snr_factor_bounds(self, noise, n):
        # The smallest and largest SNR factors NoiseParams accepts.
        assert 0.0 <= poi_quadrature(make_config(n=n, **noise)).value <= 1.0


class TestPoiClosedForm:
    @pytest.mark.parametrize("n", [1, 2, 6, 14])
    def test_against_direct_integration(self, n):
        cfg = make_config(n=n)
        dest, eav = effective_links(cfg.topology)
        expected = 0.0
        for ev in noise_events(cfg.dest_noise, cfg.eav_noise):
            expected += ev.probability * poi_event_oracle(
                ev.alpha_b, ev.alpha_e, dest.m, dest.s, eav.m, eav.s, n
            )
        assert poi_closed_form(cfg).value == pytest.approx(expected, rel=1e-9)

    def test_tracks_quadrature_on_reference_grid(self):
        for n in range(1, 9):
            q = poi_quadrature(make_config(n=n)).value
            c = poi_closed_form(make_config(n=n)).value
            assert abs(q - c) <= max(0.01, 0.05 * q)

    def test_symmetric_single_destination_is_half(self):
        cfg = make_config(m_b=-5.0, s_b=1.0, m_e=-5.0, s_e=1.0, n=1,
                          p_b=0.0, p_e=0.0, eta_b=0.0, eta_e=0.0)
        assert poi_closed_form(cfg).value == pytest.approx(0.5, abs=1e-12)

    def test_monotone_decay_to_many_destinations(self):
        prev = 1.0
        for n in range(1, 65):
            v = poi_closed_form(make_config(n=n)).value
            assert 0.0 < v < prev
            prev = v
        assert prev < 2e-5

    def test_independent_of_transmit_power_bitwise(self):
        assert (
            poi_closed_form(make_config(power=1.0)).value
            == poi_closed_form(make_config(power=1e6)).value
        )


class TestAsymptoticConstants:
    @pytest.mark.parametrize("lam, sigma", [(0.0, 1.0), (1.5, 0.5), (-2.0, 3.0), (4.0, 0.3)])
    def test_zero_power_gives_normal_moments(self, lam, sigma):
        # At m = 0 the completed square must be the bare density of T
        # (a = 1/sigma, b = lam/sigma, d = 1), so both halves add up to the
        # mass 1 and the mean lam.
        mass, _ = _fit_expectation(lam, sigma, 0, 1.0, 0.0)
        mean, _ = _fit_expectation(lam, sigma, 0, 0.0, 1.0)
        assert abs(mass - 1.0) <= 1e-12
        assert abs(mean - lam) <= 1e-12

    def test_offset_reflects_noise_states(self):
        cfg = make_config()
        dest, eav = effective_links(cfg.topology)
        lam = [
            _event_offset(ev, dest, eav) for ev in noise_events(cfg.dest_noise, cfg.eav_noise)
        ]
        # Impulsive noise at the destination only weakens it by log(1+eta):
        # events 2 and 0 differ only in the destination's state.
        shift = lam[2] - lam[0]
        assert shift == pytest.approx(math.log(11.0) / dest.s, rel=1e-12)

    @pytest.mark.parametrize("bg_b, bg_e", [(6e-309, 1e300), (1e300, 6e-309)])
    def test_offset_survives_a_factor_ratio_out_of_range(self, bg_b, bg_e):
        # Both SNR factors are valid, but their ratio under- or overflows.
        cfg = make_config(bg_b=bg_b, bg_e=bg_e, p_b=0.0, p_e=0.0)
        dest, eav = effective_links(cfg.topology)
        ev = noise_events(cfg.dest_noise, cfg.eav_noise)[0]
        assert ev.alpha_e / ev.alpha_b in (0.0, math.inf)
        want = (eav.m - dest.m + math.log(bg_b) - math.log(bg_e)) / dest.s
        assert _event_offset(ev, dest, eav) == pytest.approx(want, rel=1e-15)
        for route in (asc_asymptotic, asc_asymptotic_large_n, poi_closed_form, poi_quadrature):
            assert math.isfinite(route(cfg).value)


class TestPinholeBehaviour:
    def test_baseline_beats_pinhole_at_finite_power(self):
        for power_db in (0.0, 20.0, 40.0):
            power = 10.0 ** (power_db / 10.0)
            ph = asc_quadrature(make_config(power=power)).value
            nph = asc_quadrature(make_config(power=power, pinhole=False)).value
            assert nph >= ph

    def test_pinhole_and_baseline_share_the_high_power_limit(self):
        # Both systems converge to the same saturation value; at a power deep
        # in the saturated regime they agree to well under a percent.
        power = 10.0 ** (100.0 / 10.0)
        ph = asc_quadrature(make_config(power=power)).value
        nph = asc_quadrature(make_config(power=power, pinhole=False)).value
        assert abs(ph - nph) / ph < 0.005

    def test_scenario_params_construction(self):
        cfg = ScenarioParams().system_config(power_db=20.0)
        assert cfg.transmit_power == pytest.approx(100.0)
        assert cfg.topology.n_destinations == 10
        assert cfg.topology.destination_link.m == pytest.approx(-4.60517, abs=1e-5)
