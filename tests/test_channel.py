"""Link parameters, dB conversion, the pinhole topology and its effective
links, and the Monte Carlo draw of link and best-destination gains, checked
against analytic identities and Monte Carlo oracles."""

import math

import numpy as np
import pytest
from scipy import stats

from plcsec import (
    ConfigError,
    LinkParams,
    McConfig,
    NoiseParams,
    PinholeTopology,
    SystemConfig,
    effective_links,
    link_params_from_db,
    mc_asc,
)
from plcsec.montecarlo import _best_of_n_normals


def best_of_n_normal(rng, m, n):
    """The Monte Carlo sampler's ``m`` best-destination draws at one count."""
    (z,) = _best_of_n_normals(rng, m, (n,))
    return z


def topo(m_b=-4.605, s_b=1.382, n=10, pinhole=True, m_a=-4.605, s_a=1.382, m_e=-9.21, s_e=1.382):
    return PinholeTopology(
        source_link=LinkParams(m_a, s_a),
        destination_link=LinkParams(m_b, s_b),
        eavesdropper_link=LinkParams(m_e, s_e),
        n_destinations=n,
        pinhole_present=pinhole,
    )


class FixedUniforms:
    """Stub generator whose ``random(m)`` returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, m):
        assert m == self.u.size
        return self.u.copy()


def best_gain(link, z):
    return np.exp(link.m + link.s * z)


def best_cdf(x, link, n):
    """CDF of the best of ``n`` i.i.d. log-normal gains, ``Phi(.)^n``."""
    return stats.norm.cdf((np.log(x) - link.m) / link.s) ** n


class TestDbConversion:
    def test_zero_maps_to_zero(self):
        assert link_params_from_db(0.0, 6.0).m == 0.0

    def test_reference_values(self):
        link = link_params_from_db(-20.0, 6.0)
        assert link.m == pytest.approx(-4.60517, abs=1e-5)
        assert link.s == pytest.approx(1.38155, abs=1e-5)

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ConfigError):
            link_params_from_db(-20.0, 0.0)
        with pytest.raises(ConfigError):
            LinkParams(0.0, -1.0)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_mean(self, m):
        with pytest.raises(ConfigError, match="LinkParams.m must be finite"):
            LinkParams(m, 1.0)


class TestPinholeTopology:
    def test_rejects_nonpositive_destination_count(self):
        with pytest.raises(ConfigError):
            topo(n=0)


class TestLognormalMean:
    def test_sample_mean_within_three_standard_errors(self):
        # A single-branch draw is one link gain; its sample mean must match
        # exp(m + s^2/2).  Drawn in chunks to keep memory small.
        link = LinkParams(m=-0.8, s=1.1)
        rng = np.random.default_rng(2024)
        chunk, chunks = 1_000_000, 10
        total = math.fsum(
            best_gain(link, best_of_n_normal(rng, chunk, 1)).sum() for _ in range(chunks)
        )
        mean = math.exp(link.m + 0.5 * link.s**2)
        # Standard error of the sample mean of a log-normal.
        se = mean * math.sqrt((math.exp(link.s**2) - 1.0) / (chunk * chunks))
        assert abs(total / (chunk * chunks) - mean) < 3.0 * se


class TestBestDestination:
    """The scheduled destination's gain as Monte Carlo draws it: one uniform
    per trial, inverted through the CDF of the best of N branches."""

    def test_single_destination_matches_link_cdf(self):
        # With N = 1 the draw at uniform F(x) is the link quantile x itself.
        link = topo(n=1).destination_link
        for x in (0.01, 0.5, 3.0):
            u = best_cdf(x, link, 1)
            z = best_of_n_normal(FixedUniforms([u]), 1, 1)
            assert best_gain(link, z[0]) == pytest.approx(x, rel=1e-9)

    def test_median_cubed(self):
        # The best of three sits below the link median with probability 1/8.
        link = topo(n=3).destination_link
        z = best_of_n_normal(FixedUniforms([0.125]), 1, 3)
        assert z[0] == pytest.approx(0.0, abs=1e-15)
        assert best_gain(link, z[0]) == pytest.approx(math.exp(link.m), rel=1e-14)

    def test_empirical_cdf_of_sampled_maximum(self):
        t = topo(n=10)
        link = t.destination_link
        rng = np.random.default_rng(7)
        trials = 1_000_000
        best = best_gain(link, best_of_n_normal(rng, trials, t.n_destinations))
        for x in (0.02, 0.1, 1.0):
            expected = best_cdf(x, link, t.n_destinations)
            freq = np.mean(best <= x)
            sigma = math.sqrt(expected * (1.0 - expected) / trials)
            assert abs(freq - expected) < 3.0 * sigma

    def test_cdf_nonincreasing_in_n(self):
        # Common uniforms: the drawn quantile of Phi^N never falls as N
        # grows, i.e. P(best <= x) is non-increasing in N at every x.
        u = np.concatenate([
            np.random.default_rng(3).random(10_000),
            [2.0**-1074, 1e-300, 0.5, 1.0 - 2.0**-53],
        ])
        draws = list(_best_of_n_normals(FixedUniforms(u), u.size, (1, 2, 4, 8, 16)))
        assert not any(np.isnan(d).any() for d in draws)
        assert all(np.all(b >= a) for a, b in zip(draws, draws[1:]))

    def test_sampled_best_mean_nondecreasing_in_n(self):
        # Common random numbers: each N uses the first N columns of one pool.
        rng = np.random.default_rng(11)
        z = rng.standard_normal((200_000, 8))
        t1 = topo()
        link = t1.destination_link
        means = [
            np.exp(link.m + link.s * z[:, :n].max(axis=1)).mean() for n in (1, 2, 4, 8)
        ]
        assert all(b >= a for a, b in zip(means, means[1:]))


class TestSampleGain:
    """Link gains as Monte Carlo draws them, ``exp(m + s Z)``."""

    def test_degenerate_spread_pins_the_gain(self):
        # With vanishing spreads every trial sees the median gains, so the
        # estimate is the deterministic clamped rate difference.
        t = topo(n=10, m_a=-2.0, s_a=1e-12, m_b=-1.0, s_b=1e-12, m_e=-3.0, s_e=1e-12)
        cfg = SystemConfig(
            topology=t, dest_noise=NoiseParams(), eav_noise=NoiseParams(), transmit_power=50.0
        )
        est = mc_asc(cfg, McConfig(samples=10_000, seed=0))
        expected = math.log2(1.0 + 50.0 * math.exp(-3.0)) - math.log2(1.0 + 50.0 * math.exp(-5.0))
        assert est.value == pytest.approx(expected, rel=1e-10)
        assert est.ci_halfwidth <= 1e-10 * expected

    def test_fixed_seed_reproduces_sequences(self):
        for n in (1, 10):
            a = best_of_n_normal(np.random.default_rng(42), 64, n)
            b = best_of_n_normal(np.random.default_rng(42), 64, n)
            c = best_of_n_normal(np.random.default_rng(43), 64, n)
            np.testing.assert_array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_kolmogorov_smirnov_against_cdf(self):
        link = LinkParams(m=-1.0, s=1.3)
        rng = np.random.default_rng(5)
        draws = best_gain(link, best_of_n_normal(rng, 100_000, 1))
        result = stats.kstest(draws, lambda x: best_cdf(x, link, 1))
        critical_1pct = 1.6276 / math.sqrt(draws.size)
        assert result.statistic < critical_1pct


class TestEffectiveLinks:
    def test_identity_with_pinhole(self):
        t = topo()
        assert effective_links(t) == (t.destination_link, t.eavesdropper_link)

    def test_mean_shift_without_pinhole(self):
        t = topo(pinhole=False)
        dest, eav = effective_links(t)
        shift = t.source_link.m + 0.5 * t.source_link.s**2
        assert dest.m == pytest.approx(t.destination_link.m + shift)
        assert eav.m == pytest.approx(t.eavesdropper_link.m + shift)
        assert dest.s == t.destination_link.s

    def test_average_end_to_end_gain_is_preserved(self):
        t = topo(pinhole=False)
        dest, _ = effective_links(t)
        src, link = t.source_link, t.destination_link
        product_mean = math.exp(src.m + 0.5 * src.s**2) * math.exp(link.m + 0.5 * link.s**2)
        assert math.exp(dest.m + 0.5 * dest.s**2) == pytest.approx(product_mean, rel=1e-12)

    def test_shared_factor_correlates_branches(self):
        # With the pinhole, both end-to-end gains contain the shared factor
        # and must correlate; without it they are independent.
        rng = np.random.default_rng(17)
        trials = 200_000
        t = topo(n=4)
        z_a = rng.standard_normal(trials)
        z_d = rng.standard_normal((trials, t.n_destinations))
        z_e = rng.standard_normal(trials)
        ln_a = t.source_link.m + t.source_link.s * z_a
        ln_best = t.destination_link.m + t.destination_link.s * z_d.max(axis=1)
        ln_eav = t.eavesdropper_link.m + t.eavesdropper_link.s * z_e

        with_ph = np.corrcoef(np.exp(ln_a + ln_best), np.exp(ln_a + ln_eav))[0, 1]
        without = np.corrcoef(np.exp(ln_best), np.exp(ln_eav))[0, 1]
        assert with_ph > 0.05
        assert abs(without) < 3.0 / math.sqrt(trials)
