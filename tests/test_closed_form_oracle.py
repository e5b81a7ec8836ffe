"""Closed forms against their alternating binomial sums in arbitrary precision.

Each tail power ``(1 - Qfit)^M`` in the closed forms expands binomially into
an alternating sum; the oracle below evaluates that sum term by term in
mpmath, with working precision growing with N so that the exp(0.55 N)
cancellation is absorbed, and rounds once at the end.  It shares no code
with :func:`plcsec.special_math.fit_tail_integral`, which integrates the
same tail power directly in double precision.
"""

import math
from functools import lru_cache

import mpmath
import pytest

from plcsec import (
    DEFAULT_Q_APPROX,
    ScenarioParams,
    asc_asymptotic,
    asc_asymptotic_large_n,
    effective_links,
    noise_events,
    poi_closed_form,
)
from plcsec.special_math import fit_tail_integral

# s_b/s_e spread ratios 1, 3 and 1/3; the second scenario is the one whose
# double-precision sums once gave negative intercept probabilities.
SCENARIOS = {
    "equal-spreads": ScenarioParams(),
    "sb6-se2-impulsive": ScenarioParams(
        s_e_db=2.0, m_b_db=-10.0, p_b=0.9, p_e=0.9, eta_b=100.0, eta_e=10.0
    ),
    "sb2-se6-mb-30": ScenarioParams(s_b_db=2.0, m_b_db=-30.0),
}
ORACLE_N = (1, 2, 5, 10, 20, 23, 24, 25, 26, 40, 100, 300)


def _precision(m: int) -> int:
    """Decimal digits that absorb the cancellation of an m-term alternating sum."""
    return 30 + int(0.35 * m)


def _sf(b):
    """Standard normal upper tail Q(b)."""
    return mpmath.erfc(b / mpmath.sqrt(2)) / 2


def _neg(a, b, c0, c1):
    """c0 * int_{-inf}^0 g + c1 * int_{-inf}^0 t g, g = exp(-(a t - b)^2 / 2) / sqrt(2 pi)."""
    q = _sf(b)
    return c0 * q / a + c1 * (b * q - mpmath.npdf(b)) / (a * a)


def event_inputs(cfg):
    """Per noise event: the event, the contest offset lam, the spread ratio
    phi_e and the rate constants (c0, c1) of the destination and of the
    eavesdropper, in double precision as the closed forms compute them."""
    dest, eav = effective_links(cfg.topology)
    phi_e = eav.s / dest.s
    for ev in noise_events(cfg.dest_noise, cfg.eav_noise):
        lam = (eav.m - dest.m + math.log(ev.alpha_e / ev.alpha_b)) / dest.s
        c0_b = math.log(ev.alpha_b) + dest.m
        c0_e = math.log(ev.alpha_e) + eav.m - eav.s * lam / phi_e
        yield ev, lam, phi_e, (c0_b, dest.s), (c0_e, eav.s / phi_e)


@lru_cache(maxsize=None)
def mp_tail_moments(lam: float, sigma: float, m: int):
    """``E[(1 - Qfit(T))^m T^k ; T > 0]`` for k = 0, 1 and ``T ~ N(lam, sigma^2)``.

    Binomial expansion of the tail power: each term ``Qfit^n`` times the
    normal density completes the square into ``d exp(-(a t - b)^2 / 2)``,
    whose half-line moments are closed forms.  Evaluated at the working
    precision of :func:`_precision`.
    """
    with mpmath.workdps(_precision(m)):
        k1, k2, k3 = map(mpmath.mpf, DEFAULT_Q_APPROX)
        lam, sigma = mpmath.mpf(lam), mpmath.mpf(sigma)
        inv2 = 1 / (sigma * sigma)
        mass = first = mpmath.mpf(0)
        for n in range(m + 1):
            a = mpmath.sqrt(2 * n * k1 + inv2)
            b = (-n * k2 + lam * inv2) / a
            coef = (-1) ** n * math.comb(m, n) * mpmath.exp(
                -(2 * n * k3 + lam * lam * inv2 - b * b) / 2
            ) / sigma
            cdf = _sf(-b)
            mass += coef * cdf / a
            first += coef * (mpmath.npdf(b) + b * cdf) / (a * a)
        return mass, first


def mp_closed_forms(name: str, n_dest: int) -> tuple[float, float, float]:
    """(asc_asymptotic, asc_asymptotic_large_n, poi_closed_form) by mpmath sums."""
    cfg = SCENARIOS[name].system_config(n_destinations=n_dest)
    with mpmath.workdps(_precision(n_dest)):
        k1, k2, k3 = map(mpmath.mpf, DEFAULT_Q_APPROX)
        ln2 = mpmath.log(2)
        # Negative-half-axis single terms: the (N-1)-th destination and N-th
        # eavesdropper completed squares.
        a_b = mpmath.sqrt(2 * (n_dest - 1) * k1 + 1)
        b_b = (n_dest - 1) * k2 / a_b
        d_b = mpmath.exp(-(2 * (n_dest - 1) * k3 - b_b * b_b) / 2)
        dest_mass, dest_first = mp_tail_moments(0.0, 1.0, n_dest - 1)

        full = large = poi = mpmath.mpf(0)
        for ev, lam, phi_e, (c0_b, c1_b), (c0_e, c1_e) in event_inputs(cfg):
            lam, phi_e = mpmath.mpf(lam), mpmath.mpf(phi_e)
            inv2 = 1 / (phi_e * phi_e)
            a_e = mpmath.sqrt(2 * n_dest * k1 + inv2)
            b_e = (n_dest * k2 + lam * inv2) / a_e
            d_e = mpmath.exp(-(2 * n_dest * k3 + lam * lam * inv2 - b_e * b_e) / 2)
            eav_mass, eav_first = mp_tail_moments(float(lam), float(phi_e), n_dest)

            dest_minus = n_dest / ln2 * (c0_b * dest_mass + c1_b * dest_first)
            eav_zero = (c0_e + c1_e * lam) / ln2
            dest_plus = n_dest * d_b / ln2 * _neg(a_b, b_b, c0_b, c1_b)
            eav_plus = d_e / (phi_e * ln2) * _neg(a_e, b_e, c0_e, c1_e)
            eav_minus = (c0_e * eav_mass + c1_e * eav_first) / ln2
            head = d_e * _sf(b_e) / (a_e * phi_e)

            p = mpmath.mpf(ev.probability)
            large += p * (dest_minus - eav_zero)
            full += p * (dest_minus - eav_zero + dest_plus - eav_plus - eav_minus)
            poi += p * (head + eav_mass)
        return float(full), float(large), float(poi)


@pytest.mark.parametrize("n", ORACLE_N)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_closed_forms_match_alternating_sums(name, n):
    cfg = SCENARIOS[name].system_config(n_destinations=n)
    for fn, expected in zip(
        (asc_asymptotic, asc_asymptotic_large_n, poi_closed_form),
        mp_closed_forms(name, n),
    ):
        value = fn(cfg).value
        assert abs(value - expected) <= 1e-10 * abs(expected), (fn.__name__, value, expected)


@pytest.mark.parametrize("n", ORACLE_N)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_integration_error_bounds_gap_to_sums(name, n):
    # Each half-line integral against the alternating sum it replaces; the
    # closed forms' exact single terms are not part of the estimate.
    cfg = SCENARIOS[name].system_config(n_destinations=n)
    for _, lam, phi_e, dest_c, eav_c in event_inputs(cfg):
        for shift, scale, m, (c0, c1) in (
            (0.0, 1.0, n - 1, dest_c),
            (lam, phi_e, n, eav_c),
            (lam, phi_e, n, (1.0, 0.0)),
        ):
            [value], [error] = fit_tail_integral(shift, scale, [m], c0, c1)
            mass, first = mp_tail_moments(shift, scale, m)
            with mpmath.workdps(_precision(m)):
                expected = float(c0 * mass + c1 * first)
            assert abs(value - expected) <= error, (shift, scale, m, value, expected)


@pytest.mark.parametrize("n", ORACLE_N)
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_closed_forms_integration_error_bounds_gap_to_sums(name, n):
    # Route level: each closed form's reported estimate covers its whole gap.
    cfg = SCENARIOS[name].system_config(n_destinations=n)
    for fn, expected in zip(
        (asc_asymptotic, asc_asymptotic_large_n, poi_closed_form),
        mp_closed_forms(name, n),
    ):
        res = fn(cfg)
        error = res.diagnostics["integration_error"]
        assert abs(res.value - expected) <= error, (fn.__name__, res.value, expected, error)


@pytest.mark.parametrize("lam, sigma", [(-39.0, 1.0), (-80.0, 2.0), (-1e6, 0.5)])
def test_tail_integral_is_zero_past_the_window(lam, sigma):
    # With lam / sigma <= -39 the half line T > 0 lies beyond the rule's
    # window: the weight there is below 1e-330, which double precision
    # cannot hold.
    values, errors = fit_tail_integral(lam, sigma, [0, 1, 40], 1.0, 1.0)
    assert values.tolist() == errors.tolist() == [0.0] * 3
    for m in (0, 1, 40):
        mass, first = mp_tail_moments(lam, sigma, m)
        assert float(mass) == 0.0 and float(first) == 0.0


def test_intercept_probability_nonnegative_and_nonincreasing():
    base = SCENARIOS["sb6-se2-impulsive"]
    prev = math.inf
    for n in range(1, 65):
        v = poi_closed_form(base.system_config(n_destinations=n)).value
        assert 0.0 <= v <= prev, n
        prev = v


@pytest.mark.parametrize("n", [1001, 5000])
def test_no_destination_cap(n):
    cfg = ScenarioParams().system_config(n_destinations=n)
    for fn in (asc_asymptotic, asc_asymptotic_large_n):
        res = fn(cfg)
        assert math.isfinite(res.value)
        assert math.isfinite(res.diagnostics["integration_error"])
    assert 0.0 < poi_closed_form(cfg).value < 1.0
