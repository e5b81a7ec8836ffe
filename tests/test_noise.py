"""Impulsive-noise parameters, SNR factors, the four joint events and the
per-trial noise-state draws of Monte Carlo."""

import math

import pytest
from hypothesis import given, strategies as st

from plcsec import (
    ConfigError,
    LinkParams,
    McConfig,
    NoiseParams,
    PinholeTopology,
    SystemConfig,
    alpha_factors_tilde,
    mc_asc,
    mc_poi,
    noise_events,
)

probabilities = st.floats(min_value=0.0, max_value=1.0)


class TestAlphaFactors:
    def test_no_impulse_collapses_states(self):
        a1, a2 = alpha_factors_tilde(NoiseParams(background_var=2.0, impulse_ratio=0.0))
        assert a1 == a2

    def test_reference_setting(self):
        assert alpha_factors_tilde(NoiseParams(1.0, 10.0, 0.1)) == (1.0, 1.0 / 11.0)

    @pytest.mark.parametrize("power", [0.5, 1.0, 123.0])
    def test_state_ratio_is_power_free(self, power):
        # The rates scale both factors by the transmit power.
        noise = NoiseParams(background_var=0.3, impulse_ratio=7.0)
        a1, a2 = (power * a for a in alpha_factors_tilde(noise))
        assert a1 / a2 == pytest.approx(1.0 + noise.impulse_ratio, rel=1e-14)

    def test_rejects_nonpositive_power(self):
        # SystemConfig is the one place transmit power is checked.
        link = LinkParams(0.0, 1.0)
        topo = PinholeTopology(link, link, link, n_destinations=1)
        for power in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="transmit_power must be finite and > 0"):
                SystemConfig(topo, NoiseParams(), NoiseParams(), transmit_power=power)


class TestAlphaFactorsTilde:
    def test_unit_variance_no_impulse(self):
        assert alpha_factors_tilde(NoiseParams(1.0, 0.0)) == (1.0, 1.0)

    def test_reference_values(self):
        t1, t2 = alpha_factors_tilde(NoiseParams(2.0, 10.0))
        assert t1 == pytest.approx(0.5)
        assert t2 == pytest.approx(0.5 / 11.0)


class TestNoiseEvents:
    def test_no_impulses_single_event(self):
        events = noise_events(NoiseParams(), NoiseParams())
        probs = {(e.dest_state, e.eav_state): e.probability for e in events}
        assert probs[(1, 1)] == 1.0
        assert probs[(1, 2)] == probs[(2, 1)] == probs[(2, 2)] == 0.0

    def test_reference_probabilities(self):
        events = noise_events(NoiseParams(impulse_prob=0.1), NoiseParams(impulse_prob=0.1))
        got = [e.probability for e in events]
        assert got == pytest.approx([0.81, 0.09, 0.09, 0.01])

    def test_alpha_assignment_tracks_states(self):
        dest = NoiseParams(1.0, 10.0, 0.2)
        eav = NoiseParams(4.0, 3.0, 0.7)
        for ev in noise_events(dest, eav):
            expect_b = alpha_factors_tilde(dest)[ev.dest_state - 1]
            expect_e = alpha_factors_tilde(eav)[ev.eav_state - 1]
            assert (ev.alpha_b, ev.alpha_e) == (expect_b, expect_e)

    @given(probabilities, probabilities)
    def test_probabilities_form_a_distribution(self, p_b, p_e):
        events = noise_events(NoiseParams(impulse_prob=p_b), NoiseParams(impulse_prob=p_e))
        total = math.fsum(e.probability for e in events)
        assert abs(total - 1.0) <= 1e-15
        assert all(0.0 <= e.probability <= 1.0 for e in events)

    def test_common_variance_scaling_preserves_ratios(self):
        # Scaling both background variances scales every alpha by the same
        # factor; the eavesdropper-to-destination ratios are untouched, which
        # is why the intercept probability is scale-invariant.
        dest = NoiseParams(1.0, 10.0, 0.1)
        eav = NoiseParams(1.0, 3.0, 0.4)
        scaled = noise_events(NoiseParams(5.0, 10.0, 0.1), NoiseParams(5.0, 3.0, 0.4))
        base = noise_events(dest, eav)
        for b, s in zip(base, scaled):
            assert s.probability == b.probability
            assert s.alpha_e / s.alpha_b == pytest.approx(
                b.alpha_e / b.alpha_b, rel=1e-14
            )
            assert s.alpha_b == pytest.approx(b.alpha_b / 5.0, rel=1e-14)

    def test_state_two_never_exceeds_state_one(self):
        for eta in (0.0, 1.0, 50.0):
            a1, a2 = alpha_factors_tilde(NoiseParams(1.0, eta))
            assert a2 <= a1
            assert (a2 == a1) == (eta == 0.0)


class TestNoiseParams:
    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            NoiseParams(background_var=0.0)
        with pytest.raises(ConfigError):
            NoiseParams(impulse_ratio=-1.0)
        with pytest.raises(ConfigError):
            NoiseParams(impulse_prob=1.5)


def system(dest_noise, eav_noise, m_b=-4.6, m_e=-9.2, s=1.38, n=4):
    link = lambda m: LinkParams(m, s)
    return SystemConfig(
        topology=PinholeTopology(link(-4.6), link(m_b), link(m_e), n_destinations=n),
        dest_noise=dest_noise,
        eav_noise=eav_noise,
        transmit_power=100.0,
    )


class TestSampleNoiseState:
    """Monte Carlo draws one Bernoulli noise state per node class per trial."""

    def test_degenerate_probabilities(self):
        # impulse_prob 0 never draws state 2, so the impulse ratio is moot;
        # impulse_prob 1 always draws it, which is the same as background
        # noise (1 + ratio) times stronger.  Same seed, same other draws.
        mc = McConfig(samples=20_000, seed=6)
        quiet = NoiseParams(1.0, 0.0, 0.0)
        never = mc_asc(system(NoiseParams(1.0, 1e3, 0.0), NoiseParams(1.0, 50.0, 0.0)), mc)
        assert never == mc_asc(system(quiet, quiet), mc)
        always = system(NoiseParams(1.0, 9.0, 1.0), NoiseParams(1.0, 3.0, 1.0))
        scaled = system(NoiseParams(10.0, 0.0, 0.0), NoiseParams(4.0, 0.0, 0.0))
        assert mc_asc(always, mc) == mc_asc(scaled, mc)
        assert mc_poi(always, mc) == mc_poi(scaled, mc)

    def test_empirical_frequency(self):
        # Fixed gains, destination 1 neper above the eavesdropper: an
        # intercept happens exactly when the destination draws an impulse
        # (ratio 10 costs ln 11 > 1 neper), so the POI estimate is the
        # empirical frequency of state 2.
        p = 0.37
        cfg = system(NoiseParams(1.0, 10.0, p), NoiseParams(), m_b=1.0, m_e=0.0, s=1e-9, n=1)
        samples = 1_000_000
        freq = mc_poi(cfg, McConfig(samples=samples, seed=123)).value
        sigma = math.sqrt(p * (1 - p) / samples)
        assert abs(freq - p) < 3.0 * sigma
