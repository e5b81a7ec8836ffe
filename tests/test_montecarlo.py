"""Monte Carlo estimator tests: determinism, statistical validity and
cross-agreement with the analytical routes."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import special as sps
from scipy import stats

import plcsec
import plcsec.montecarlo as mc_mod
from plcsec import (
    ConfigError,
    EvaluationError,
    LinkParams,
    McConfig,
    NoiseParams,
    PinholeTopology,
    SystemConfig,
    asc_quadrature,
    mc_asc,
    mc_poi,
    poi_closed_form,
    poi_quadrature,
)
from plcsec.special_math import normal_quantile


def brute_force_best_of_n(rng, m, n, rows=8192):
    """Oracle for the best-destination draw: the row maximum of m x n normals.

    Drawn in row chunks so large ``n`` stays small in memory; the stream is
    the same as one ``(m, n)`` draw.
    """
    return np.concatenate([
        rng.standard_normal((min(rows, m - i), n)).max(axis=1) for i in range(0, m, rows)
    ])


def best_of_n_normal(rng, m, n):
    """The Monte Carlo sampler's ``m`` best-destination draws at one count."""
    (z,) = mc_mod._best_of_n_normals(rng, m, (n,))
    return z


def whole_array_draw(log_u, n):
    """The best-destination draw's chain, ``-Phi^-1(-expm1(log_u / n))``,
    over the whole array at once."""
    t = np.divide(log_u, n)
    np.expm1(t, out=t)
    z = normal_quantile(np.negative(t, out=t))
    return np.negative(z, out=z)


class ConstantUniforms:
    """Stub generator: every uniform is ``u``, every normal is 0."""

    def __init__(self, u):
        self.u = u

    def random(self, m):
        return np.full(m, self.u)

    def standard_normal(self, m):
        return np.zeros(m)


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
):
    return SystemConfig(
        topology=PinholeTopology(
            source_link=LinkParams(m_a, s_a),
            destination_link=LinkParams(m_b, s_b),
            eavesdropper_link=LinkParams(m_e, s_e),
            n_destinations=n,
            pinhole_present=pinhole,
        ),
        dest_noise=NoiseParams(1.0, eta_b, p_b),
        eav_noise=NoiseParams(1.0, eta_e, p_e),
        transmit_power=power,
        quadrature_order=64,
    )


class TestMcConfig:
    def test_rejects_undersized_budgets(self):
        with pytest.raises(ConfigError):
            McConfig(samples=1000, seed=1)
        with pytest.raises(ConfigError):
            McConfig(samples=100_000, seed=1, workers=0)
        with pytest.raises(ConfigError):
            McConfig(samples=100_000, seed=1, confidence=0.4)

    @pytest.mark.parametrize(
        "name, value",
        [("seed", -1), ("seed", 1.5), ("seed", True), ("workers", True),
         ("confidence", "x")],
    )
    def test_rejects_bad_types_and_negative_seed(self, name, value):
        with pytest.raises(ConfigError, match=f"^{name} "):
            McConfig(**{"samples": 100_000, "seed": 1, name: value})


class TestMcAsc:
    def test_agrees_with_quadrature_on_simple_case(self):
        # One destination, no impulses, near-degenerate shared link.
        cfg = make_config(
            n=1, p_b=0.0, p_e=0.0, eta_b=0.0, eta_e=0.0,
            m_a=0.0, s_a=1e-9, m_e=-4.60517,
        )
        est = mc_asc(cfg, McConfig(samples=1_000_000, seed=31))
        exact = asc_quadrature(cfg).value
        assert abs(est.value - exact) <= est.ci_halfwidth

    def test_agrees_with_quadrature_with_pinhole_and_impulses(self):
        cfg = make_config()
        est = mc_asc(cfg, McConfig(samples=1_000_000, seed=8))
        exact = asc_quadrature(cfg).value
        assert abs(est.value - exact) <= est.ci_halfwidth

    def test_zero_capacity_regime(self):
        # Eavesdropper dominates and the destination drowns in impulses:
        # every trial clamps to zero.
        cfg = make_config(
            m_b=-9.21034, m_e=-2.30, p_b=1.0, eta_b=1e6, p_e=0.0, eta_e=0.0
        )
        est = mc_asc(cfg, McConfig(samples=100_000, seed=4))
        assert est.value <= est.ci_halfwidth
        assert est.value >= 0.0

    def test_bit_identical_across_runs_and_workers(self):
        cfg = make_config(n=3)
        runs = [
            mc_asc(cfg, McConfig(samples=200_000, seed=77, workers=w))
            for w in (1, 1, 2, 3, 7)
        ]
        assert len({(r.value, r.ci_halfwidth) for r in runs}) == 1

    def test_bit_identical_across_blas_thread_counts(self):
        # A BLAS dot product splits its sum across threads, which moves the
        # last bits of the CI; the thread count is fixed when BLAS loads, so
        # each count runs in its own process.
        code = (
            "from plcsec import McConfig, ScenarioParams, mc_asc\n"
            "r = mc_asc(ScenarioParams().system_config(power_db=30.0), "
            "McConfig(samples=200_000, seed=3))\n"
            "print(repr(r.value), repr(r.ci_halfwidth))"
        )
        src = str(Path(plcsec.__file__).parents[1])
        outputs = set()
        for threads in ("1", "2"):
            env = dict(
                os.environ,
                OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
            )
            proc = subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, outputs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_power_axis_matches_calls_one_power_at_a_time(self, workers):
        # 200000 samples span 4 blocks.  d / (x_e + 1/P) overflows at 1e300
        # alone: the eavesdropper's gain, near e^-300, is then below 1/P.
        cfg = make_config(n=3, m_b=450.0, m_e=-300.0, pinhole=False)
        mc = McConfig(samples=200_000, seed=77, workers=workers)
        powers = (0.1, 100.0, 1e6, 1e300, 2.5)
        axis = mc_asc(cfg, mc, powers=powers)
        assert len(axis) == len(powers)
        for power, got in zip(powers, axis):
            one = replace(cfg, transmit_power=power)
            if power == 1e300:
                with pytest.raises(EvaluationError) as exc:
                    mc_asc(one, mc)
                assert isinstance(got, EvaluationError) and str(got) == str(exc.value)
            else:
                assert got == mc_asc(one, mc)

    def test_saturates_where_the_rates_overflow(self):
        # P x overflows at 1e300, but the sample log1p(d / (x_e + 1/P)) does
        # not: with gains near e^50, 1/P is lost in x_e + 1/P from 1e6 on.
        cfg = make_config(n=3, m_b=50.0, m_e=50.0)
        mc = McConfig(samples=200_000, seed=77)
        top, mid = mc_asc(cfg, mc, powers=(1e300, 1e6))
        assert top == mid and math.isfinite(top.value) and top.value > 0.0

    def test_power_axis_rejects_bad_powers(self):
        with pytest.raises(ConfigError, match="transmit_power"):
            mc_asc(make_config(), McConfig(samples=10_000, seed=1), powers=(1.0, 0.0))

    def test_rejects_a_power_whose_reciprocal_overflows(self):
        # Below ~5.6e-309, 1/P overflows and x_e + 1/P would score every
        # trial 0; the smallest powers with a finite reciprocal still score.
        cfg, mc = make_config(), McConfig(samples=10_000, seed=1)
        with pytest.raises(ConfigError, match="finite reciprocal"):
            mc_asc(cfg, mc, powers=(1.0, 1e-310))
        with pytest.raises(ConfigError, match="finite reciprocal"):
            replace(cfg, transmit_power=1e-310)
        low = mc_asc(replace(cfg, transmit_power=6e-309), mc)
        quad = asc_quadrature(replace(cfg, transmit_power=6e-309))
        # The half-width underflows to 0 here: the check is relative.
        assert low.value == pytest.approx(quad.value, rel=0.05)

    def test_different_seeds_differ(self):
        cfg = make_config(n=2)
        a = mc_asc(cfg, McConfig(samples=100_000, seed=1))
        b = mc_asc(cfg, McConfig(samples=100_000, seed=2))
        assert a.value != b.value

    def test_method_tag_and_ci(self):
        cfg = make_config(n=2)
        res = mc_asc(cfg, McConfig(samples=100_000, seed=5))
        assert res.method == "monte-carlo"
        assert res.ci_halfwidth > 0.0


def secrecy_sample(x_b, x_e, power):
    """The sampler's secrecy samples, in nats, at per-trial powers."""
    d = mc_mod._gain_gap(x_b.copy(), x_e)
    return mc_mod._secrecy_sample(d, x_e + 1.0 / power, np.empty_like(x_b))


def exact_secrecy_sample(x_b, x_e, power):
    """``max(log1p(P x_b) - log1p(P x_e), 0)`` at 60 digits, rounded once."""
    with mpmath.workdps(60):
        b, e, p = (mpmath.mpf(float(v)) for v in (x_b, x_e, power))
        return float(max(mpmath.log1p(p * b) - mpmath.log1p(p * e), 0))


class TestSecrecySample:
    def test_matches_mpmath_on_random_and_cancelling_gains(self):
        rng = np.random.default_rng(2024)
        n = 1000
        x_e = 10.0 ** rng.uniform(-12, 12, 2 * n)
        # Half independent, half within 1e-6 of x_e; every fourth of those
        # within 3 ulp of it, where the two rates nearly cancel.
        x_b = np.concatenate([10.0 ** rng.uniform(-12, 12, n),
                              x_e[n:] * (1.0 + rng.uniform(-1e-6, 1e-6, n))])
        x_b[n::4] = x_e[n::4] + rng.integers(-3, 4, n // 4) * np.spacing(x_e[n::4])
        power = 10.0 ** rng.uniform(-3, 9, 2 * n)
        got = secrecy_sample(x_b, x_e, power)
        want = np.array([exact_secrecy_sample(*t) for t in zip(x_b, x_e, power)])
        pos = want > 0.0
        assert 0 < np.count_nonzero(~pos) < pos.size
        assert np.all(got[~pos] == 0.0)
        assert np.max(np.abs(got[pos] - want[pos]) / want[pos]) <= 2.0 * 2.0**-52

    def test_no_gap_scores_exactly_zero(self):
        x_e = np.array([0.0, 1e-300, 1.0, 3.5e7, 1e300, np.inf])
        # inf - inf is NaN: an infinite x_b is tested below.
        for x_b in (np.minimum(x_e, 1e308), 0.5 * np.minimum(x_e, 1e308)):
            got = secrecy_sample(x_b, x_e, np.full(x_e.size, 1e6))
            assert np.all(got == 0.0) and not np.any(np.signbit(got))

    @pytest.mark.parametrize("x_e_at_index", [1.0, np.inf], ids=["finite-eav", "infinite-eav"])
    def test_an_infinite_gain_is_a_non_finite_sample(self, x_e_at_index):
        x_b = np.full(8, 2.0)
        x_e = np.ones(8)
        x_b[5], x_e[5] = np.inf, x_e_at_index
        # A block that starts at trial 131072 of the run names trial 5 of
        # its own by its index in the run.
        with np.errstate(invalid="ignore"):
            err = mc_mod._score(secrecy_sample(x_b, x_e, np.full(8, 10.0)), 2 * mc_mod._BLOCK)
        assert isinstance(err, EvaluationError)
        assert str(err) == "non-finite secrecy sample at trial index 131077"


class TestBestOfNSampler:
    @pytest.mark.parametrize("n", [1, 2, 10, 40, 256])
    def test_matches_brute_force_oracle(self, n):
        draws = 200_000
        direct = best_of_n_normal(np.random.default_rng([n, 1]), draws, n)
        oracle = brute_force_best_of_n(np.random.default_rng([n, 2]), draws, n)
        assert stats.ks_2samp(direct, oracle).pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 10, 256])
    def test_upper_tail_frequency(self, n):
        # P(max > Phi^-1(1 - q)) = 1 - (1 - q)^n, within a 99.9% binomial CI.
        draws, q = 2_000_000, 1e-3
        z = best_of_n_normal(np.random.default_rng([n, 3]), draws, n)
        p = -math.expm1(n * math.log1p(-q))
        hits = np.count_nonzero(z > -sps.ndtri(q))
        assert abs(hits / draws - p) <= 3.2905 * math.sqrt(p * (1 - p) / draws)

    @pytest.mark.parametrize("n", [1, 256, 100_000])
    def test_largest_uniform_keeps_the_tail_exact(self, n):
        # 1 - 2^-53 is the largest uniform Generator.random returns; there
        # U^(1/n) rounds to 1, so only the expm1 form keeps the draw finite.
        z = best_of_n_normal(ConstantUniforms(1.0 - 2.0**-53), 1, n)
        assert z[0] == pytest.approx(-sps.ndtri(2.0**-53 / n), rel=1e-12)

    def test_zero_uniform_gives_zero_gain_silently(self, monkeypatch):
        # Every best-destination gain is 0: no secrecy, every trial intercepted.
        monkeypatch.setattr(np.random, "Generator", lambda _: ConstantUniforms(0.0))
        mc = McConfig(samples=10_000, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = best_of_n_normal(ConstantUniforms(0.0), 4, 10)
            asc = mc_asc(make_config(), mc)
            poi = mc_poi(make_config(), mc)
        assert np.all(z == -np.inf)
        assert (asc.value, asc.ci_halfwidth) == (0.0, 0.0)
        assert (poi.value, poi.ci_halfwidth) == (1.0, 0.0)

    def test_mc_asc_agrees_with_brute_force_sampler(self, monkeypatch):
        cfg = make_config(n=10)
        mc = McConfig(samples=400_000, seed=17)
        direct = mc_asc(cfg, mc)
        monkeypatch.setattr(
            mc_mod, "_best_of_n_normals",
            lambda rng, m, ns, step: [brute_force_best_of_n(rng, m, n) for n in ns],
        )
        brute = mc_asc(cfg, mc)
        assert direct.value != brute.value
        assert abs(direct.value - brute.value) <= math.hypot(
            direct.ci_halfwidth, brute.ci_halfwidth
        )

    def test_memory_is_flat_in_destination_count(self):
        # The brute-force sampler would hold 65536 x 1000 doubles per block,
        # and a destination axis held whole 65536 x 16 per block.
        cfg = make_config(n=1000)
        mc = McConfig(samples=200_000, seed=2)
        tracemalloc.start()
        try:
            mc_asc(cfg, mc)
            mc_poi(cfg, mc)
            mc_asc(cfg, mc, destinations=range(1, 17))
            mc_poi(cfg, mc, destinations=range(1, 17))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "call, whole, bound_mib",
        [
            (lambda cfg, mc: mc_asc(cfg, mc, powers=[10 ** (db / 10) for db in range(-10, 62, 2)]),
             False, 1.7),
            (lambda cfg, mc: mc_poi(cfg, mc), False, 1.25),
            (lambda cfg, mc: mc_asc(cfg, mc, destinations=range(1, 17)), False, 3.35),
            (lambda cfg, mc: mc_poi(cfg, mc, destinations=range(1, 17)), False, 2.35),
            (lambda cfg, mc: mc_asc(cfg, mc, powers=[10 ** (db / 10) for db in range(-10, 62, 2)]),
             True, 3.9),
            (lambda cfg, mc: mc_poi(cfg, mc), True, 3.4),
            (lambda cfg, mc: mc_asc(cfg, mc, destinations=range(1, 17)), True, 6.45),
            (lambda cfg, mc: mc_poi(cfg, mc, destinations=range(1, 17)), True, 5.45),
        ],
        ids=["asc-36-powers", "poi", "asc-n1..16", "poi-n1..16",
             "asc-36-powers-whole", "poi-whole", "asc-n1..16-whole", "poi-n1..16-whole"],
    )
    def test_one_block_holds_only_what_it_reads(self, monkeypatch, call, whole, bound_mib):
        # One full block: 512 KiB per float array.  A serial run measures
        # 1.51, 1.08, 3.09 and 2.09 MiB; a whole-block draw, as on worker
        # threads, 3.65, 3.14, 6.19 and 5.20 MiB.  Each bound sits below the
        # peak with a third whole-block array held while a single count
        # draws, or the last count's draw held while an axis forms the next
        # (1.96, 1.46, 3.59, 2.59, 4.22, 3.70, 6.69 and 5.70 MiB).  The
        # whole-block draw is measured in this thread: two racing workers
        # would move the peak.
        if whole:
            monkeypatch.setattr(mc_mod, "_draw_step", lambda mc: mc_mod._BLOCK)
        cfg = make_config()
        mc = McConfig(samples=mc_mod._BLOCK, seed=1)
        call(cfg, mc)
        tracemalloc.start()
        try:
            call(cfg, mc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20

    @pytest.mark.parametrize("n", [1, 2, 10, 40])
    def test_sliced_draw_matches_whole_array_bit_for_bit(self, n):
        # A partial block of 10^5 samples: four whole slices and part of a
        # fifth.  The extreme uniforms, and those whose quantile argument
        # p = -expm1(log(u) / n) lies on either side of one of AS241's
        # branch edges, are placed at both ends and across every slice edge.
        special = [0.0, 1.0 - 2.0**-53]
        for edge in (0.075, 0.925, math.exp(-25.0)):
            near = np.exp(n * np.log1p(-edge * (1.0 + np.array([-1e-4, -1e-9, 0.0, 1e-9, 1e-4]))))
            p = -np.expm1(np.log(near) / n)
            assert p.min() < edge < p.max(), edge
            special.extend(near)
        special = np.array(special)

        m = 100_000 - mc_mod._BLOCK
        u = np.random.default_rng(n).random(m)
        k = special.size
        for lo in [0, m - k] + [i - k // 2 for i in range(mc_mod._SLICE, m, mc_mod._SLICE)]:
            u[lo : lo + k] = special
        with np.errstate(divide="ignore"):
            log_u = np.log(u)
        want = whole_array_draw(log_u, n).tobytes()
        # A serial run's slices and a threaded run's whole block, each into
        # a new array and over the uniforms' own buffer.
        for step in (mc_mod._SLICE, mc_mod._BLOCK):
            assert mc_mod._best_draw(log_u, n, step=step).tobytes() == want, step
            over = log_u.copy()
            assert mc_mod._best_draw(over, n, over, step).tobytes() == want, step

    def test_only_a_threaded_run_draws_whole_blocks(self):
        # Slices trade memory for numpy calls, and each call hands the GIL
        # to the other worker threads; a run that uses no pool slices.
        block = mc_mod._BLOCK
        for workers, samples, step in [
            (1, 10 * block, mc_mod._SLICE),
            (2, block, mc_mod._SLICE),
            (2, block + 1, block),
            (7, 10 * block, block),
        ]:
            assert mc_mod._draw_step(McConfig(samples=samples, seed=0, workers=workers)) == step


# Destination counts on both sides of 24/25 and far past the old cap of 1000.
AXIS_NS = (1, 2, 24, 25, 1000, 10**5)
DB = math.log(10.0) / 10.0


def one_count(route, cfg, mc, n):
    """``route`` on ``cfg`` at ``n`` destinations: its result or its error."""
    try:
        return route(replace(cfg, topology=replace(cfg.topology, n_destinations=n)), mc)
    except EvaluationError as exc:
        return exc


def assert_same_entry(got, want, context):
    """An axis entry is the one-count call's result bit for bit, value,
    CI and method, or an error of the same type and text."""
    if isinstance(want, EvaluationError):
        assert type(got) is type(want) and str(got) == str(want), context
    else:
        assert isinstance(got, type(want)), context
        assert (got.value.hex(), got.ci_halfwidth.hex()) == (
            want.value.hex(), want.ci_halfwidth.hex()
        ), context
        assert got == want, context


class TestDestinationAxis:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "scenario",
        [
            {},
            {"pinhole": False, "m_b": -30.0 * DB, "p_b": 0.9, "p_e": 0.0},
            {"s_b": 2 * DB, "p_b": 0.0, "p_e": 0.9},
            {"s_e": 2 * DB, "p_b": 0.1, "p_e": 0.1},
        ],
        ids=["default", "no-pinhole-mb-30", "sb2-se6", "sb6-se2"],
    )
    def test_matches_calls_one_count_at_a_time(self, scenario, workers):
        # 140000 samples span 3 blocks, so two workers share them.
        cfg = make_config(**scenario)
        mc = McConfig(samples=140_000, seed=31, workers=workers)
        for route in (mc_asc, mc_poi):
            axis = route(cfg, mc, destinations=AXIS_NS)
            assert len(axis) == len(AXIS_NS)
            for n, got in zip(AXIS_NS, axis):
                assert_same_entry(got, one_count(route, cfg, mc, n), (route.__name__, n))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_non_finite_sample_at_some_counts_only(self, workers):
        # The destination's log gain sits 7.8 below the overflow of exp: the
        # best of one branch overflows only past 5.63 standard deviations,
        # which 140,000 trials reach with probability 1.2e-3, while the best
        # of 10^5 overflows in about 120 of them.  The best draw does not
        # fall as N grows, so the failing counts are the largest ones.
        cfg = make_config(pinhole=False, m_a=0.0, s_a=1e-9, m_b=702.0, p_b=0.0, p_e=0.0, power=1.0)
        mc = McConfig(samples=140_000, seed=3, workers=workers)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            axis = mc_asc(cfg, mc, destinations=AXIS_NS)
        failed = [isinstance(r, EvaluationError) for r in axis]
        assert failed[0] is False and failed[-1] is True and failed == sorted(failed)
        for n, got in zip(AXIS_NS, axis):
            assert_same_entry(got, one_count(mc_asc, cfg, mc, n), n)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_non_finite_sample_is_named_by_its_trial_in_the_run(self, workers):
        # The scenario above at N = 1000: the first block's 65536 trials
        # all score, so the first non-finite sample lies in the second
        # block, and it is the same trial in a run of 131072 or 140000.
        cfg = make_config(
            pinhole=False, m_a=0.0, s_a=1e-9, m_b=702.0, p_b=0.0, p_e=0.0, power=1.0, n=1000
        )
        block = mc_mod._BLOCK
        assert mc_asc(cfg, McConfig(samples=block, seed=3, workers=workers)).value > 0.0
        for samples in (2 * block, 140_000):
            mc = McConfig(samples=samples, seed=3, workers=workers)
            with pytest.raises(EvaluationError) as exc:
                mc_asc(cfg, mc)
            assert str(exc.value) == "non-finite secrecy sample at trial index 115194"
            (got,) = mc_asc(cfg, mc, destinations=(1000,))
            assert str(got) == str(exc.value)

    def test_any_order_and_repeats(self):
        cfg = make_config()
        mc = McConfig(samples=70_000, seed=5)
        axis = (1000, 2, 2, 1)
        for route in (mc_asc, mc_poi):
            for n, got in zip(axis, route(cfg, mc, destinations=axis)):
                assert_same_entry(got, one_count(route, cfg, mc, n), (route.__name__, n))
            assert route(cfg, mc, destinations=()) == []
        assert mc_asc(cfg, mc, powers=()) == []

    @pytest.mark.parametrize("p", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("pinhole", [True, False], ids=["pinhole", "no-pinhole"])
    def test_bit_identical_across_workers(self, pinhole, p):
        # Two workers draw whole blocks, one worker draws them in slices.  A
        # call at one count forms each side's gain as its draws arrive (over
        # the shared gain's buffer, or over the unused one without a
        # pinhole), an axis in draw order; both must give the same bits.
        cfg = make_config(pinhole=pinhole, p_b=p, p_e=p)
        for route in (mc_asc, mc_poi):
            serial, pooled = (
                route(cfg, McConfig(samples=70_000, seed=8, workers=w), destinations=AXIS_NS)
                for w in (1, 2)
            )
            for n, got, want in zip(AXIS_NS, pooled, serial):
                assert_same_entry(got, want, (route.__name__, n))
                for workers in (1, 2):
                    mc = McConfig(samples=70_000, seed=8, workers=workers)
                    assert_same_entry(one_count(route, cfg, mc, n), want, (route.__name__, workers, n))

    def test_powers_and_destinations_together_raise(self):
        with pytest.raises(ConfigError, match="not both"):
            mc_asc(make_config(), McConfig(samples=10_000, seed=1),
                   powers=(1.0,), destinations=(1,))

    @pytest.mark.parametrize("route", [mc_asc, mc_poi], ids=lambda fn: fn.__name__)
    def test_rejects_bad_counts(self, route):
        with pytest.raises(ConfigError, match="n_destinations must be a positive integer"):
            route(make_config(), McConfig(samples=10_000, seed=1), destinations=(2, 0))


class TestMcPoi:
    def test_symmetric_single_destination(self):
        cfg = make_config(m_b=-5.0, s_b=1.0, m_e=-5.0, s_e=1.0, n=1,
                          p_b=0.0, p_e=0.0, eta_b=0.0, eta_e=0.0)
        est = mc_poi(cfg, McConfig(samples=1_000_000, seed=9))
        sigma = math.sqrt(0.25 / 1_000_000)
        assert abs(est.value - 0.5) < 3.0 * sigma

    def test_transmit_power_never_changes_outcomes(self):
        mc = McConfig(samples=200_000, seed=12)
        lo = mc_poi(make_config(power=1.0), mc)
        hi = mc_poi(make_config(power=1e6), mc)
        assert (lo.value, lo.ci_halfwidth) == (hi.value, hi.ci_halfwidth)

    def test_matches_closed_form_on_reference_point(self):
        cfg = make_config(n=4)
        est = mc_poi(cfg, McConfig(samples=2_000_000, seed=21))
        cf = poi_closed_form(cfg).value
        sigma = math.sqrt(cf * (1 - cf) / 2_000_000)
        assert abs(est.value - cf) < 3.0 * sigma

    def test_bit_identical_across_workers(self):
        cfg = make_config(n=4)
        runs = [
            mc_poi(cfg, McConfig(samples=150_000, seed=3, workers=w)) for w in (1, 4)
        ]
        assert runs[0] == runs[1]


class TestStatisticalContracts:
    def test_ci_coverage_on_known_symmetric_case(self):
        # Nominal 99% intervals around the known value 0.5 must cover it in
        # at least 95% of small-budget repetitions.
        cfg = make_config(m_b=-5.0, s_b=1.0, m_e=-5.0, s_e=1.0, n=1,
                          p_b=0.0, p_e=0.0, eta_b=0.0, eta_e=0.0)
        covered = 0
        reps = 200
        for i in range(reps):
            est = mc_poi(cfg, McConfig(samples=10_000, seed=1000 + i))
            covered += abs(est.value - 0.5) <= est.ci_halfwidth
        assert covered >= 0.95 * reps

    def test_ci_shrinks_like_root_n(self):
        cfg = make_config(n=2)
        small = mc_asc(cfg, McConfig(samples=250_000, seed=6))
        large = mc_asc(cfg, McConfig(samples=1_000_000, seed=6))
        ratio = large.ci_halfwidth / small.ci_halfwidth
        assert ratio == pytest.approx(0.5, abs=0.1)

    def test_poi_estimates_track_quadrature_across_n(self):
        for n in (1, 4):
            cfg = make_config(n=n)
            est = mc_poi(cfg, McConfig(samples=1_000_000, seed=40 + n))
            q = poi_quadrature(cfg).value
            sigma = math.sqrt(max(q * (1 - q), 1e-12) / 1_000_000)
            assert abs(est.value - q) < 4.0 * sigma

    def test_quadrature_tracks_monte_carlo_across_scenario_corners(self):
        # Every shipped scenario family, one mid-grid power point each; the
        # 4-sigma band keeps a fixed-seed check meaningful across 19 corners.
        from plcsec import available_presets, get_preset

        for name in available_presets():
            for spec in get_preset(name):
                if spec.metric != "asc":
                    continue
                cfg = spec.base.system_config(power_db=30.0)
                est = mc_asc(cfg, McConfig(samples=1_000_000, seed=314, workers=2))
                quad = asc_quadrature(cfg).value
                sigma = est.ci_halfwidth / 2.5758293035489004
                assert abs(est.value - quad) < 4.0 * sigma, (name, spec.label)
