"""Fading models, their log rule, and the Jensen-gap operations."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import digamma, gammainccinv, gammaincinv
from scipy import stats
from scipy.stats import ks_2samp, kstest

from ffic import (
    ComplexGainSampler,
    FadingModel,
    InfiniteJensenGapError,
    McConfig,
    NoClosedFormError,
    TabulatedPdf,
    default_xi_grid,
    estimate_expectation,
    expected_log_shifted,
    jensen_gap_closed_form,
    jensen_gap_numeric,
    log_moment_lower_bound,
    substream,
)
from ffic import fading
from ffic.mc import CHUNK

LOG2E = math.log2(math.e)
GAMMA = float(np.euler_gamma)

# Exact gap values, derived from the moment identities of each family:
#   Gamma(k):  log2(k) - digamma(k) * log2(e)      (scale cancels)
#   Weibull(k): log2(Gamma(1+1/k)) + gamma*log2(e)/k  (the bound is tight)
EXACT_GAMMA3_GAP = math.log2(3.0) - float(digamma(3.0)) * LOG2E  # 0.253666...
RAYLEIGH_GAP = GAMMA * LOG2E  # 0.832746...


def triangle_model():
    """f(w) = w/2 on [0, 2]; E[W] = 4/3, E[ln W] = (2 ln 2 - 1)/2."""
    ws = np.linspace(0.0, 2.0, 21)
    return FadingModel.tabulated(ws, ws / 2.0, envelope=(0.5, 2.0))


def weibull_theta(k, mean):
    """The Weibull scale as sample_power forms it: e^(ln mean - lgamma(1 + 1/k))."""
    return math.exp(math.log(mean) - math.lgamma(1.0 + 1.0 / k))


def elog2_mpmath(mp, shape, k, mean, a):
    """E log2(a + W) by mpmath quadrature over t = ln X, from the textbook laws:
    W = (mean / k) X with X ~ Gamma(k, 1), or W = lam X^(1/k) with X ~ Exp(1)
    and lam = mean / Gamma(1 + 1/k).  The panels end at the mode of t,
    multiples of its spread sqrt(psi'(shape)) and the knee W = a."""
    shape_x = k if shape == "gamma" else 1.0
    # the log density cancels terms of size shape_x ln shape_x: carry their digits
    with mp.workdps(22 + max(0, int(math.log10(shape_x)))):
        kx, p = mp.mpf(shape_x), mp.mpf(1.0 if shape == "gamma" else k)
        log_scale = mp.log(mean) - (mp.log(k) if shape == "gamma" else mp.loggamma(1 + 1 / p))
        log_norm = mp.loggamma(kx)

        def f(t):
            return mp.log(a + mp.exp(log_scale + t / p)) * mp.exp(kx * t - mp.exp(t) - log_norm)

        mode, spread = mp.log(kx), mp.sqrt(mp.psi(1, kx))
        pts = [mode - c * spread for c in (60, 20, 5, 1)]
        pts += [mode + c * min(spread, 1) for c in (0, 1, 5)]
        pts.append(mp.log(kx + 10 * mp.sqrt(kx) + 100))
        if a > 0:  # log(a + W) bends where W = a, within a few multiples of p in t
            knee = p * (mp.log(a) - log_scale)
            pts += [knee + c * p for c in (-5, 0, 5) if pts[0] < knee + c * p < pts[-1]]
        return float(mp.quad(f, sorted(pts)) / mp.log(2))


TRIANGLE_GAP = math.log2(4.0 / 3.0) - (2.0 * math.log(2.0) - 1.0) / 2.0 * LOG2E


class TestSamplePower:
    def test_deterministic_is_constant(self):
        model = FadingModel.deterministic(4.0)
        w = model.sample_power(substream(0), 1000)
        assert np.all(w == 4.0)
        assert np.var(w) == 0.0

    def test_rayleigh_mean_power(self):
        model = FadingModel.rayleigh(1.0)
        w = model.sample_power(substream(1), 1_000_000)
        assert abs(w.mean() - 1.0) < 0.003

    def test_gamma_second_moment(self):
        # oracle: E[W^2]/E[W]^2 = k(k+1)theta^2 / (k theta)^2 = (k+1)/k
        model = FadingModel.gamma(2.0, 10.0)
        w = model.sample_power(substream(2), 2_000_000)
        ratio = np.mean(w**2) / np.mean(w) ** 2
        assert abs(ratio - 1.5) < 0.01

    @pytest.mark.parametrize(
        "model",
        [
            FadingModel.rayleigh(3.0),
            FadingModel.gamma(2.0, 0.2),
            FadingModel.weibull(3.0, 7.0),
            FadingModel.deterministic(5.0),
            triangle_model(),
        ],
        ids=lambda m: m.shape,
    )
    def test_mean_converges_and_nonnegative(self, model):
        n = 100_000
        w = model.sample_power(substream(3), n)
        assert np.all(w >= 0.0)
        stderr = np.std(w) / math.sqrt(n)
        assert abs(w.mean() - model.mean_power) <= max(5.0 * stderr, 1e-12)

    def test_tabulated_support(self):
        model = triangle_model()
        w = model.sample_power(substream(4), 50_000)
        assert w.min() >= 0.0 and w.max() <= 2.0


class TestSamplerLaws:
    """``sample_power`` draws each law exactly (KS at 100k draws), and its
    stream layout is the documented one."""

    N = 100_000

    def test_rayleigh_is_exponential(self):
        w = FadingModel.rayleigh(2.5).sample_power(substream(21), self.N)
        assert kstest(w, "expon", args=(0.0, 2.5)).pvalue > 0.01

    # k = 1 and 2 take the Erlang path, 0.5 and 3.5 take rng.standard_gamma
    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.5])
    def test_gamma_law(self, k):
        w = FadingModel.gamma(k, 3.0).sample_power(substream(22, (int(2 * k),)), self.N)
        assert kstest(w, "gamma", args=(k, 0.0, 3.0 / k)).pvalue > 0.01

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
    def test_weibull_law(self, k):
        w = FadingModel.weibull(k, 3.0).sample_power(substream(23, (int(2 * k),)), self.N)
        scale = 3.0 / math.gamma(1.0 + 1.0 / k)
        assert kstest(w, "weibull_min", args=(k, 0.0, scale)).pvalue > 0.01

    def test_rayleigh_is_scaled_standard_exponential_bit_for_bit(self):
        w = FadingModel.rayleigh(2.5).sample_power(substream(24), self.N)
        assert np.array_equal(w, 2.5 * substream(24).standard_exponential(self.N))
        assert np.array_equal(w, substream(24).gamma(1.0, 2.5, self.N))

    def test_gamma2_is_sum_of_two_standard_exponentials(self):
        w = FadingModel.gamma(2.0, 3.0).sample_power(substream(25), self.N)
        rng = substream(25)
        e = rng.standard_exponential(self.N)
        e += rng.standard_exponential(self.N)
        assert np.array_equal(w, e * 1.5)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
    def test_weibull_power_of_exponential_matches_numpy_weibull_to_one_ulp(self, k):
        # rng.weibull(k) is pow(E, 1/k) on the same standard exponentials
        e = substream(26).standard_exponential(self.N)
        e **= 1.0 / k
        np.testing.assert_array_max_ulp(e, substream(26).weibull(k, self.N), maxulp=1)

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0])
    def test_weibull_is_theta_times_power_of_exponential(self, k):
        # theta is 8 up to its rounding; at k = 1 the law is exponential and
        # W = mean * E, as for Rayleigh
        mean = 8.0 * math.gamma(1.0 + 1.0 / k)
        e = substream(26).standard_exponential(self.N)
        e **= 1.0 / k
        theta = mean if k == 1.0 else weibull_theta(k, mean)
        w = FadingModel.weibull(k, mean).sample_power(substream(26), self.N)
        assert np.array_equal(w, theta * e)

    @pytest.mark.parametrize("k", [1.0 / 170.0, 0.05, 2.0])
    def test_weibull_draws_read_the_documented_scale(self, k):
        # theta = e^(ln mean - lgamma(1 + 1/k)) is a normal float down to
        # k = 1/170, and then W = theta * E**(1/k)
        e = substream(27).standard_exponential(1000)
        w = FadingModel.weibull(k, 3.0).sample_power(substream(27), 1000)
        assert np.array_equal(w, weibull_theta(k, 3.0) * e ** (1.0 / k))

    @pytest.mark.parametrize("k", [1.0 / 170.0, 0.05, 2.0])
    def test_weibull_scale_is_mean_over_gamma(self, k):
        mp = pytest.importorskip("mpmath")
        theta = math.exp(FadingModel.weibull(k, 3.0)._gen_gamma()[2])
        assert theta == weibull_theta(k, 3.0)
        with mp.workdps(30):
            assert abs(theta / (mp.mpf(3) / mp.gamma(1 + 1 / mp.mpf(k))) - 1) < 1e-12

    @pytest.mark.parametrize("k, mean", [(1.0 / 171.0, 1.0), (0.005, 100.0), (0.003, 1e300)])
    def test_weibull_tiny_k_draws_in_log_domain(self, k, mean):
        # Gamma(1 + 1/k) overflows a float: log2 W = log2 scale + log2(E) / k
        # wherever W is a normal float, though the scale itself may underflow
        log2_scale = math.log2(mean) - math.lgamma(1.0 + 1.0 / k) * LOG2E
        w = FadingModel.weibull(k, mean).sample_power(substream(28), self.N)
        want = log2_scale + np.log2(substream(28).standard_exponential(self.N)) / k
        normal = (want > -1020.0) & (want < 1020.0)
        assert normal.sum() > 1000
        np.testing.assert_allclose(np.log2(w[normal]), want[normal], rtol=1e-9, atol=1e-9)
        assert np.all(w[want < -1080.0] == 0.0)


class TestCdf:
    """``cdf`` and ``cdf_of_log`` give the law ``sample_power`` draws, exactly,
    and ``log_power_range`` reads its quantiles."""

    FADING = [
        FadingModel.rayleigh(3.0),
        *(FadingModel.gamma(k, 2.0) for k in (0.5, 2.0, 3.0, 5.0, fading._ERLANG_MAX)),
        *(FadingModel.weibull(k, 5.0) for k in (0.5, 2.0)),
        triangle_model(),
    ]
    IDS = ["rayleigh", "gamma-k0.5", "gamma-k2", "gamma-k3", "gamma-k5", "gamma-kmax",
           "weibull-k0.5", "weibull-k2", "tabulated"]

    @pytest.mark.parametrize("model", FADING, ids=IDS)
    def test_cdf_is_the_law_sample_power_draws(self, model):
        w = model.sample_power(substream(31), 100_000)
        assert kstest(w, model.cdf).pvalue > 0.01

    @pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 3.0, 5.0, fading._ERLANG_MAX,
                                   fading._ERLANG_MAX + 1])
    def test_parametric_cdf_matches_scipy(self, k):
        w = np.geomspace(1e-6, 60.0, 200)
        want = stats.gamma.cdf(w, k, scale=3.0 / k)
        np.testing.assert_allclose(FadingModel.gamma(k, 3.0).cdf(w), want, rtol=1e-12,
                                   atol=1e-300)
        want = stats.weibull_min.cdf(w, k, scale=3.0 / math.gamma(1.0 + 1.0 / k))
        np.testing.assert_allclose(FadingModel.weibull(k, 3.0).cdf(w), want, rtol=1e-12,
                                   atol=1e-300)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, fading._ERLANG_MAX])
    def test_erlang_cdf_matches_mpmath(self, n):
        # P(n, x) to 1e-13 relative wherever it is a normal float, across the
        # switch from the Poisson sum to the series, and 0 or subnormal below
        mp = pytest.importorskip("mpmath")
        x = np.concatenate([np.geomspace(1e-300, 1e-3, 40), np.geomspace(1e-3, 2.0 * n + 40.0, 80),
                            [0.0, 800.0, np.inf]])
        got = fading._erlang_cdf(n, x)
        with mp.workdps(30):
            want = np.array([float(mp.gammainc(n, 0, mp.mpf(float(v)), regularized=True))
                             for v in x])
        normal = want >= np.finfo(float).tiny
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-13, atol=0.0)
        assert np.all(got[~normal] < np.finfo(float).tiny)

    def test_tabulated_cdf_and_quantile_are_exact(self):
        # triangle f(w) = w/2 on [0, 2]: F(w) = w^2/4
        model = triangle_model()
        w = np.array([-1.0, 0.0, 0.3, 1.0, 1.75, 2.0, 5.0])
        want = np.clip(w, 0.0, 2.0) ** 2 / 4.0
        np.testing.assert_allclose(model.cdf(w), want, rtol=1e-14, atol=1e-15)
        p = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(model.table.quantile(p), 2.0 * np.sqrt(p), atol=1e-14)

    def test_deterministic_cdf_is_a_step(self):
        model = FadingModel.deterministic(4.0)
        assert model.cdf([3.9, 4.0, 4.1]).tolist() == [0.0, 1.0, 1.0]
        assert model.log_power_range(1e-12) == (math.log(4.0), math.log(4.0))

    RANGE_LAWS = [*zip(FADING, IDS), (FadingModel.gamma(17.5, 2.0), "gamma-k17.5"),
                  (FadingModel.gamma(50.0, 2.0), "gamma-k50"),
                  (FadingModel.weibull(0.005, 100.0), "weibull-k0.005"),
                  (FadingModel.rayleigh(1e300), "rayleigh-1e300")]

    @pytest.mark.parametrize("model, tail", [
        pytest.param(m, tail, id=name if tail == 1e-12 else f"{name}-tail{tail:g}")
        for m, name in RANGE_LAWS for tail in (1e-12, 1e-3, 0.25)])
    def test_log_power_range_holds_all_but_the_tails(self, model, tail):
        # 30-digit mpmath sums the mass beyond each end of a parametric law,
        # from ln W: at Weibull k = 0.005 and a mean of 1e300 the ends are ln W
        # values whose W under- or overflows.  The upper end is bisected on a
        # CDF near 1, whose 1e-16 absolute error is 1e-4 of a 1e-12 tail.
        mp = pytest.importorskip("mpmath")
        lo, hi = model.log_power_range(tail)
        if model.shape == "tabulated":  # its CDF is exact: quadratic in each cell
            below, inside = model.cdf_of_log([lo, hi])
            above = 1.0 - inside
        else:
            kappa, s, log_theta = model._gen_gamma()
            with mp.workdps(30):
                x_lo, x_hi = (mp.exp(s * (mp.mpf(v) - mp.mpf(log_theta))) for v in (lo, hi))
                below = float(mp.gammainc(kappa, 0, x_lo, regularized=True))
                above = float(mp.gammainc(kappa, x_hi, mp.inf, regularized=True))
        assert below == pytest.approx(tail, rel=1e-12, abs=0.0)
        assert above == pytest.approx(tail, rel=1e-3 if tail == 1e-12 else 1e-12, abs=0.0)

    def test_range_of_a_law_below_the_floats_names_it(self):
        with pytest.raises(ValueError, match=re.escape(
                "gamma k=0.01 law of mean power 100: its 1e-12 quantile underflows to 0")):
            FadingModel.gamma(0.01, 100.0).log_power_range(1e-12)
        # refused just where the quantile, e^-744.92 at k = 0.03712, lies below
        # 5e-324 (the bisection's last step does not decide it)
        with pytest.raises(ValueError, match="underflows to 0"):
            FadingModel.gamma(0.03712, 1.0).log_power_range(1e-12)
        assert FadingModel.gamma(0.0372, 1.0).log_power_range(1e-12)[0] > math.log(5e-324)

    @pytest.mark.parametrize("tail", [0.0, -1e-12, 0.5, 0.75, math.nan])
    def test_tail_outside_the_bracket_is_refused(self, tail):
        for model in (FadingModel.rayleigh(), triangle_model(), FadingModel.deterministic(2.0)):
            with pytest.raises(ValueError, match=re.escape("tail must lie in (0, 1/2)")):
                model.log_power_range(tail)


class TestComplexGainSampler:
    EXPONENTIAL = [FadingModel.rayleigh(2.0), FadingModel.gamma(1.0, 3.0),
                   FadingModel.weibull(1.0, 5.0)]
    OTHER = [FadingModel.gamma(2.0, 3.0), FadingModel.weibull(2.0, 5.0)]
    MODELS = EXPONENTIAL + OTHER
    IDS = ["rayleigh", "gamma-k1", "weibull-k1", "gamma-k2", "weibull-k2"]

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_magnitude_law_and_phase_uniform(self, model):
        g = ComplexGainSampler(model).sample(substream(5), 100_000)
        assert kstest(np.abs(g) ** 2, model.cdf).pvalue > 0.01
        phases = np.angle(g) % (2.0 * np.pi)
        assert kstest(phases, "uniform", args=(0.0, 2.0 * np.pi)).pvalue > 0.01

    @pytest.mark.parametrize("model", EXPONENTIAL, ids=IDS[:3])
    def test_exponential_gain_is_one_complex_gaussian(self, model):
        # CN(0, mean) is sqrt(mean/2) times a pair of standard normals: the
        # gains are the substream's first 2N normals, scaled, and no power
        # is drawn
        g = ComplexGainSampler(model).sample(substream(27), 100_000)
        z = substream(27).standard_normal(200_000) * math.sqrt(model.mean_power / 2.0)
        assert g.dtype == np.complex128
        assert np.array_equal(g.view(np.float64), z)

    @pytest.mark.parametrize("model", OTHER, ids=IDS[3:])
    def test_power_drawn_first_and_phasor_unit_modulus(self, model):
        # |g|^2 is the model's own first draw on the substream.  Forming g
        # takes 7 unit roundoffs (|z|^2, W/|z|^2, sqrt, the two products)
        # and abs(g)**2 another 5 (hypot within 1 ulp, the square): 6 eps.
        g = ComplexGainSampler(model).sample(substream(27), 100_000)
        w = model.sample_power(substream(27), 100_000)
        eps = np.finfo(np.float64).eps
        np.testing.assert_allclose(np.abs(g) ** 2, w, rtol=6 * eps, atol=0.0)

    @pytest.mark.parametrize("model", MODELS, ids=IDS)
    def test_phase_uniform_and_independent_of_power(self, model):
        g = ComplexGainSampler(model).sample(substream(28), 100_000)
        phases = np.angle(g) % (2.0 * np.pi)
        assert kstest(phases, "uniform", args=(0.0, 2.0 * np.pi)).pvalue > 0.01
        power = np.abs(g) ** 2
        high = power > np.median(power)
        assert ks_2samp(phases[high], phases[~high]).pvalue > 0.01

    def test_deterministic_model_gives_real_gains(self):
        sampler = ComplexGainSampler(FadingModel.deterministic(9.0))
        g = sampler.sample(substream(6), 10)
        assert np.all(g == 3.0)


class TestExpectedLogShifted:
    def test_deterministic_exact(self):
        est = expected_log_shifted(FadingModel.deterministic(6.0), 2.0)
        assert est.mean == math.log2(8.0)
        assert est.stderr == 0.0

    def test_rayleigh_log_moment(self):
        # oracle: quadrature of ln(w) e^{-w} gives -euler_gamma
        oracle, _ = quad(lambda w: math.log(w) * math.exp(-w), 0.0, 50.0)
        assert abs(oracle + GAMMA) < 1e-9
        est = expected_log_shifted(FadingModel.rayleigh(1.0), 0.0)
        assert abs(est.mean - oracle * LOG2E) < 1e-6
        assert abs(est.mean + 0.8327461772768672) < 1e-6

    def test_gamma_digamma_identity(self):
        # E[ln W] = digamma(k) + ln(theta); k=2, theta=1
        est = expected_log_shifted(FadingModel.gamma(2.0, 2.0), 0.0)
        assert abs(est.mean - (1.0 - GAMMA) * LOG2E) < 1e-6
        assert abs(est.mean - 0.6099488636) < 1e-6

    @pytest.mark.parametrize("k", [1e-3, 1e-2, 2.0])
    def test_weibull_log_moment(self, k):
        # E[ln W] = ln(lambda) - gamma/k; at k = 1e-3 the scale lambda =
        # mean / 1000! underflows, but ln(lambda) does not
        expect = (math.log(5.0) - math.lgamma(1.0 + 1.0 / k) - GAMMA / k) * LOG2E
        est = expected_log_shifted(FadingModel.weibull(k, 5.0), 0.0)
        assert est.mean == pytest.approx(expect, rel=1e-11)

    def test_extreme_mean_powers(self):
        for mean in (1e-2, 1e6):
            model = FadingModel.rayleigh(mean)
            expect = (math.log(mean) - GAMMA) * LOG2E
            assert abs(expected_log_shifted(model, 0.0).mean - expect) < 1e-6

    def test_mc_matches_quadrature(self):
        model = FadingModel.gamma(2.0, 10.0)
        mc = estimate_expectation(lambda w: np.log2(1.0 + w), [model],
                                  McConfig(samples=200_000, seed=8))
        qd = expected_log_shifted(model, 1.0)
        assert abs(mc.mean - qd.mean) <= 3.0 * mc.stderr
        assert mc.stderr > 0.0

    @pytest.mark.parametrize("mean", [0.5, 3.0, 1e6])
    def test_k1_laws_agree_bit_for_bit(self, mean):
        # Rayleigh, Gamma k = 1 and Weibull k = 1 are one exponential law
        laws = [FadingModel.rayleigh(mean), FadingModel.gamma(1.0, mean),
                FadingModel.weibull(1.0, mean)]
        t = np.log(mean) + np.linspace(-30.0, 4.0, 35)
        for a in (0.0, 0.01, 1.0, 30.0):
            assert len({expected_log_shifted(m, a).mean for m in laws}) == 1, a
        cdfs = [m.cdf_of_log(t) for m in laws]
        assert all(np.array_equal(cdfs[0], c) for c in cdfs[1:])
        assert len({m.log_power_range(1e-12) for m in laws}) == 1

    @pytest.mark.parametrize("shape, k", [("gamma", k) for k in (1e-3, 0.05, 0.5, 1.0, 2.0,
                                                                  50.0, 1e6, 1e12)]
                             + [("weibull", k) for k in (1e-3, 0.05, 0.5, 2.0, 3.0)])
    def test_log_rule_matches_mpmath(self, shape, k):
        mp = pytest.importorskip("mpmath")
        # The last input puts the knee W = a far below the mean: a rule graded
        # around the bulk alone can pass the others and miss it by ~1e-6 bits.
        for mean, a in [(3.0, 3.0 * r) for r in (0.0, 1e-3, 1.0, 1e3)] + [(1e15, 1.0)]:
            want = elog2_mpmath(mp, shape, k, mean, a)
            got = expected_log_shifted(FadingModel(shape, mean, k=k), a).mean
            assert abs(got - want) <= max(1e-12, 1e-15 * abs(want)), (mean, a, got, want)

    def test_log_rule_is_built_once_per_law_shape(self):
        # theta only shifts the nodes; the exponential law's rule is the one
        # regions conditions a ratio denominator on: 183 nodes, step <= 0.25
        lnw, weight = FadingModel.gamma(2.0, 1.0).log_rule()
        lnw50, weight50 = FadingModel.gamma(2.0, 50.0).log_rule()
        assert weight50 is weight and not weight.flags.writeable
        np.testing.assert_allclose(lnw50 - lnw, math.log(50.0), rtol=0.0, atol=1e-14)
        assert math.fsum(weight) == pytest.approx(1.0, abs=1e-15)
        u, _ = FadingModel.rayleigh().log_rule()
        assert len(u) == 183 and np.diff(u).max() <= 0.25

    @pytest.mark.parametrize("k", [1.6e-4, 1e-3, 0.5, 1.0, 2.0, 5.0, 50.0, 1e6, 1e12, 1e100])
    def test_log_rule_ends_are_tail_bounds(self, k):
        # beyond each end G ~ Gamma(k) has at most 1e-18 of its mass, and the
        # ends lie at most 6% wider apart than G's exact 1e-18 quantiles
        mp = pytest.importorskip("mpmath")
        lo, hi = fading._gamma_rule_ends(k)
        with mp.workdps(80):
            kk, lo, hi = mp.mpf(k), mp.mpf(lo), mp.mpf(hi)
            if k <= 1e6:
                tails = [mp.gammainc(kk, 0, kk * mp.exp(lo), regularized=True),
                         mp.gammainc(kk, kk * mp.exp(hi), mp.inf, regularized=True)]
                g_lo, g_hi = gammaincinv(k, 1e-18), gammainccinv(k, 1e-18)
                # where the lower quantile underflows, x^k / Gamma(k + 1) = 1e-18 is it
                q_lo = (math.log(g_lo / k) if g_lo > 0.0
                        else (math.log(1e-18) + math.lgamma(k + 1.0)) / k - math.log(k))
                exact = math.log(g_hi / k) - q_lo
            else:  # Temme: Q(k, k e^u) = erfc(eta sqrt(k/2)) / 2 (1 + O(eta)),
                # eta = sign(u) sqrt(2 (expm1(u) - u)) = u (1 + O(u)), |u| < 1e-5
                eta = [mp.sign(v) * mp.sqrt(2 * (mp.expm1(v) - v)) for v in (lo, hi)]
                tails = [mp.erfc(-eta[0] * mp.sqrt(kk / 2)) / 2,
                         mp.erfc(eta[1] * mp.sqrt(kk / 2)) / 2]
                exact = 2 * mp.sqrt(2 / kk) * mp.erfinv(1 - 2 * mp.mpf(1e-18))
            assert max(tails) <= 1e-18, tails
            assert hi - lo <= 1.06 * exact

    @pytest.mark.parametrize("k", [1e-4, 0.5, 1.0, 2.0, 5.5, 1e3, 1e12, 1e300])
    def test_trigamma_matches_mpmath(self, k):
        # psi'(k) sets the log rule's step
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            assert abs(fading._zeta(2.0, k) / mp.psi(1, k) - 1) <= 1e-15

    def test_zeta_matches_mpmath(self):
        # zeta(n), n = 2..41, are the Weibull bound's series coefficients
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for n in range(2, 42):
                want = mp.zeta(n)
                assert abs(fading._zeta(n) - want) <= 2 * math.ulp(float(want)), n

    @pytest.mark.parametrize("model", [FadingModel.gamma(1e-5), FadingModel.weibull(5e-5),
                                       FadingModel.gamma(1e-300), FadingModel.gamma(1e-308),
                                       FadingModel.deterministic(2.0), triangle_model()],
                             ids=["gamma-1e-5", "weibull-5e-5", "gamma-1e-300", "gamma-1e-308",
                                  "deterministic", "tabulated"])
    def test_law_without_a_log_rule_is_refused(self, model):
        # a Gamma or Weibull k this small needs millions of nodes; below
        # k = 5e-307 the upper end's e^u passes the float limit, and the
        # count is inf.  The message stays one short line.
        with pytest.raises(ValueError, match="log rule") as refused:
            model.log_rule()
        assert len(str(refused.value)) < 100

    @pytest.mark.parametrize("k", [3e-307, 1e-308, 5e-324])
    def test_rule_upper_end_is_inf_past_the_float_limit(self, k):
        # Newton starts at ln(2c) <= 709.78, where e^u is finite, or at inf,
        # which it keeps: no end overflows on its way there
        assert fading._gamma_rule_ends(k)[1] == math.inf

    # node counts of the trapezoid in u, every node of which ln W tells apart up to k = 1e15
    RULE_NODES = {1e-3: 165805, 0.05: 3334, 0.5: 349, 1.0: 183, 2.0: 122, 5.0: 98,
                  50.0: 77, 1e3: 74, 1e6: 74, 1e12: 74, 1e15: 74}

    def test_log_rule_merges_nodes_that_ln_w_cannot_tell_apart(self):
        for k, nodes in self.RULE_NODES.items():
            assert len(FadingModel.gamma(k).log_rule()[0]) == nodes, k
        # ln(k) + u rounds 74 nodes to 3 values at k = 1e30 and to one at 1e100
        u, weight = fading._gamma_log_rule(1e30, 1.0)
        assert len(u) == 3 and np.all(np.diff(math.log(1e30) + u) > 0.0)
        assert math.fsum(weight) == pytest.approx(1.0, abs=1e-15)
        lnw, weight = FadingModel.gamma(1e100, 5.0).log_rule()
        assert len(lnw) == 1 and weight[0] == 1.0
        assert lnw[0] == pytest.approx(math.log(5.0), abs=1e-12)


class TestLogLaplace:
    TS = [0.0, 1e-300, 1e-100, 1e-20, 1e-5, 1.0, 1e15, 1e50, 1e100, 1e200, 1e300, 1e308]

    @pytest.mark.parametrize("mean", [1e-3, 1e308])
    @pytest.mark.parametrize("k", [1e-3, 0.5, 1.0, 2.0, 50.0, 1e12])
    def test_gamma_family_matches_mpmath(self, k, mean):  # warnings fail the suite
        # ln E e^(-tW) = -k ln(1 + t mean / k), finite even where t mean / k
        # passes the float limit: at k = 1e-3 and mean 1e308 it is -0.72 at t = 1
        mp = pytest.importorskip("mpmath")
        got = FadingModel.gamma(k, mean).log_laplace(np.array(self.TS))
        with mp.workdps(30):
            for t, g in zip(self.TS, got):
                want = -mp.mpf(k) * mp.log1p(mp.mpf(t) * mp.mpf(mean) / mp.mpf(k))
                assert abs(g - want) <= 1e-15 * abs(want), (t, g, want)
        if k == 1.0:  # Rayleigh and Weibull k = 1 are the same exponential law
            for model in (FadingModel.rayleigh(mean), FadingModel.weibull(1.0, mean)):
                assert np.array_equal(model.log_laplace(np.array(self.TS)), got)

    def test_minus_inf_only_where_the_value_passes_the_float_limit(self):
        assert FadingModel.deterministic(1e308).log_laplace(1e308) == -math.inf
        assert FadingModel.gamma(1e306, 1e308).log_laplace(1e308) == -math.inf
        got = FadingModel.deterministic(2.0).log_laplace(np.array([0.0, 1e-300, 3.0]))
        assert got.tolist() == [0.0, -2e-300, -6.0]

    @pytest.mark.parametrize("model", [FadingModel.weibull(2.0), triangle_model()],
                             ids=["weibull-2", "tabulated"])
    def test_law_without_a_closed_form_is_refused(self, model):
        with pytest.raises(ValueError, match="Laplace transform"):
            model.log_laplace(1.0)

    def test_negative_shift_rejected(self):
        with pytest.raises(ValueError):
            expected_log_shifted(FadingModel.rayleigh(1.0), -0.1)

    def test_tabulated_uses_mc(self):
        est = expected_log_shifted(triangle_model(), 0.0, cfg=McConfig(samples=200_000, seed=9))
        exact = (2.0 * math.log(2.0) - 1.0) / 2.0 * LOG2E
        assert est.stderr > 0.0
        assert abs(est.mean - exact) <= 3.0 * est.stderr


class TestClosedForm:
    # closed forms rounded to two decimals, one row per fading model
    TABLE = [
        (FadingModel.rayleigh(1.0), 0.83),
        (FadingModel.gamma(1.0, 1.0), 0.86),
        (FadingModel.gamma(2.0, 1.0), 0.40),
        (FadingModel.gamma(3.0, 1.0), 0.26),
        (FadingModel.weibull(1.0, 1.0), 0.83),
        (FadingModel.weibull(2.0, 1.0), 0.24),
        (FadingModel.weibull(3.0, 1.0), 0.11),
    ]

    @pytest.mark.parametrize("model,expected", TABLE,
                             ids=[f"{m.shape}-k{m.k}" for m, _ in TABLE])
    def test_table_values(self, model, expected):
        assert round(jensen_gap_closed_form(model), 2) == expected

    def test_rayleigh_takes_the_tighter_bound(self):
        ray = jensen_gap_closed_form(FadingModel.rayleigh(1.0))
        assert ray == pytest.approx(RAYLEIGH_GAP, abs=1e-12)
        assert ray < jensen_gap_closed_form(FadingModel.gamma(1.0, 1.0))

    def test_independent_of_mean_power(self):
        a = jensen_gap_closed_form(FadingModel.gamma(2.0, 1e-3))
        b = jensen_gap_closed_form(FadingModel.gamma(2.0, 1e4))
        assert a == b

    @pytest.mark.parametrize("k", [1e4, 1e8, 1e12, 1e15])
    def test_gamma_bound_does_not_cancel_at_large_k(self, k):
        # log2(e)/k - log2(1 + 1/(2k)) loses 11% at k = 1e15 to cancellation
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            kk = mp.mpf(k)
            want = (1 / kk - mp.log1p(1 / (2 * kk))) / mp.log(2)
            got = jensen_gap_closed_form(FadingModel.gamma(k, 1.0))
            assert abs(got / want - 1) < 1e-15

    @pytest.mark.parametrize("k", [1e3, 1e6, 1e9, 1e12])
    def test_weibull_bound_does_not_cancel_at_large_k(self, k):
        # gamma/k + lgamma(1 + 1/k) cancels: 67x too large at k = 1e9
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            x = 1 / mp.mpf(k)
            want = (mp.euler * x + mp.loggamma(1 + x)) / mp.log(2)
            got = jensen_gap_closed_form(FadingModel.weibull(k, 1.0))
            assert abs(got / want - 1) < 1e-15

    @pytest.mark.parametrize("k", [1.0, 2.0, 3.0])
    def test_weibull_bound_below_four_is_the_closed_form(self, k):
        want = float(np.euler_gamma) * math.log2(math.e) / k + math.log2(math.gamma(1 + 1 / k))
        assert jensen_gap_closed_form(FadingModel.weibull(k, 1.0)) == want

    def test_deterministic_zero(self):
        assert jensen_gap_closed_form(FadingModel.deterministic(7.0)) == 0.0

    def test_tabulated_has_no_closed_form(self):
        with pytest.raises(NoClosedFormError, match="no closed form"):
            jensen_gap_closed_form(triangle_model())


class TestJensenGapNumeric:
    def test_deterministic_gap_and_curve_zero(self):
        res = jensen_gap_numeric(FadingModel.deterministic(4.0))
        assert res.gap_at_zero == 0.0
        assert all(xi == 0.0 for _, xi in res.xi_curve)

    def test_rayleigh_exact_value(self):
        res = jensen_gap_numeric(FadingModel.rayleigh(1.0))
        assert abs(res.gap_at_zero - RAYLEIGH_GAP) < 1e-6
        assert res.gap_at_zero <= 0.8350

    def test_gamma3_psi_value_below_table_bound(self):
        res = jensen_gap_numeric(FadingModel.gamma(3.0, 17.0))
        assert abs(res.gap_at_zero - EXACT_GAMMA3_GAP) < 1e-6
        assert res.gap_at_zero <= 0.26

    @pytest.mark.parametrize("k", [1e-3, 1e-2, 0.05, 0.5, 0.9])
    def test_gamma_small_shape_matches_digamma(self, k):
        # over y = ln G the density e^(k y - e^y) / Gamma(k) stays bounded as
        # k -> 0, but its lower tail e^(k y) reaches about 1/k nats below the mode
        res = jensen_gap_numeric(FadingModel.gamma(k, 1.0))
        exact = (math.log(k) - float(digamma(k))) * LOG2E
        assert abs(res.gap_at_zero - exact) < 1e-9

    @pytest.mark.parametrize("k", [101.0, 1e4, 1e6])
    def test_gamma_large_shape_matches_digamma(self, k):
        # the density of ln G narrows to width k^(-1/2) at ln k; past k = 100
        # its lower tail is cut where it holds under 2e-22 of the mass
        res = jensen_gap_numeric(FadingModel.gamma(k, 1.0))
        exact = (math.log(k) - float(digamma(k))) * LOG2E
        assert abs(res.gap_at_zero - exact) < 1e-11

    @pytest.mark.parametrize("k", [1e7, 1e8, 1e10, 1e12])
    def test_gamma_huge_shape_integrates_cleanly(self, k):
        # around its mode the log density of ln G cancels no terms of size
        # k ln k, so every shift integrates without a warning; the gap
        # log2(k) - digamma(k) log2(e) is (1/(2k) + 1/(12k^2) + O(k^-4)) log2(e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = jensen_gap_numeric(FadingModel.gamma(k, 1.0))
        assert len(res.xi_curve) == 42
        want = (1.0 / (2.0 * k) + 1.0 / (12.0 * k * k)) * LOG2E
        assert res.gap_at_zero == pytest.approx(want, rel=1e-3, abs=0.0)

    @pytest.mark.parametrize("model", [m for m, _ in TestClosedForm.TABLE],
                             ids=[f"{m.shape}-k{m.k}" for m, _ in TestClosedForm.TABLE])
    def test_numeric_below_closed_form(self, model):
        res = jensen_gap_numeric(model)
        assert res.gap_at_zero <= jensen_gap_closed_form(model) + 1e-6

    def test_xi_nonincreasing_and_max_at_zero(self):
        res = jensen_gap_numeric(FadingModel.weibull(2.0, 3.0))
        values = [xi for _, xi in res.xi_curve]
        assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
        assert res.gap_at_zero >= max(values) - 1e-9

    def test_mean_power_invariance(self):
        gaps = [
            jensen_gap_numeric(FadingModel.gamma(2.0, m)).gap_at_zero
            for m in (1e-2, 1.0, 1e2, 1e4)
        ]
        assert max(gaps) - min(gaps) < 1e-6

    def test_tabulated_gap_mc(self):
        res = jensen_gap_numeric(triangle_model(), cfg=McConfig(samples=300_000, seed=10))
        assert abs(res.gap_at_zero - TRIANGLE_GAP) <= 3.0 * res.gap_stderr

    def test_tabulated_gap_draws_powers_not_complex_gains(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex gain was drawn for a power expectation")

        monkeypatch.setattr(ComplexGainSampler, "sample", refuse)
        res = jensen_gap_numeric(triangle_model(), cfg=McConfig(samples=1000, seed=11))
        assert res.gap_stderr > 0.0

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_tabulated_curve_equals_per_shift_estimates(self, threads, monkeypatch):
        # 100k draws are 4 chunks; every shift of the curve shares their draws
        monkeypatch.setenv("FFIC_THREADS", threads)
        model, cfg = triangle_model(), McConfig(samples=100_000, seed=12)
        res = jensen_gap_numeric(model, cfg=cfg)
        assert len(res.xi_curve) == 42
        for (a, xi), se in zip(res.xi_curve, res.xi_stderr):
            est = expected_log_shifted(model, a, cfg=cfg)
            assert (xi, se) == (fading.log2_sum(a, model.mean_power) - est.mean, est.stderr)
            lone = estimate_expectation(lambda w: np.log2(a + w), [model], cfg)
            assert (est.mean, est.stderr) == (lone.mean, lone.stderr)

    def test_tabulated_curve_draws_once_per_chunk(self, monkeypatch):
        sizes, sample = [], TabulatedPdf.sample

        def counting(table, rng, size):
            sizes.append(size)
            return sample(table, rng, size)

        monkeypatch.setattr(TabulatedPdf, "sample", counting)
        jensen_gap_numeric(triangle_model(), cfg=McConfig(samples=100_000, seed=13))
        assert sorted(sizes) == [100_000 - 3 * CHUNK] + [CHUNK] * 3

    def test_tabulated_curve_names_a_non_finite_draw(self, monkeypatch):
        # an infinite first power reaches the curve's first row, a = 0
        sample = TabulatedPdf.sample

        def inf_first(table, rng, size):
            w = sample(table, rng, size)
            w[0] = np.inf
            return w

        monkeypatch.setattr(TabulatedPdf, "sample", inf_first)
        with pytest.raises(ValueError, match=re.escape(
                "in substream (0,), row 0: non-finite value inf at draw 0, link draws (inf,)")):
            jensen_gap_numeric(triangle_model(), cfg=McConfig(samples=1000, seed=14))

    def test_custom_grid_keeps_zero(self):
        res = jensen_gap_numeric(FadingModel.rayleigh(1.0), a_grid=[1.0, 2.0])
        assert res.xi_curve[0][0] == 0.0

    def test_default_grid_shape(self):
        grid = default_xi_grid(10.0)
        assert len(grid) == 42
        assert grid[0] == 0.0
        assert grid[1] == pytest.approx(1e-2) and grid[-1] == pytest.approx(1e4)

    @pytest.mark.parametrize("mean", [1.0, 4.0 / 3.0, 1e300, 1e305])
    def test_default_grid_keeps_its_points_below_the_float_limit(self, mean):
        want = np.geomspace(1e-3 * mean, 1e3 * mean, 41)
        assert np.array_equal(default_xi_grid(mean)[1:], want)

    def test_default_grid_near_the_float_limit(self):
        # a mean of 1e307 put the grid's top past the float limit; under the
        # suite's warnings-as-errors this failed in numpy's geomspace
        grid = default_xi_grid(1e307)
        assert np.all(np.isfinite(grid)) and np.all(np.diff(grid) > 0.0)
        assert grid[1] == pytest.approx(1e304) and grid[-1] == 1e308
        res = jensen_gap_numeric(FadingModel.gamma(0.05, 1e307))
        assert all(math.isfinite(xi) for _, xi in res.xi_curve)

    @pytest.mark.parametrize("mean", [5e-324, 1e-322, 2e-321])
    def test_default_grid_near_the_smallest_float(self, mean):
        # below a mean of about 2.5e-321 the grid's bottom, 1e-3 of the mean,
        # underflowed to 0, which numpy's geomspace refuses; a subnormal mean
        # / k also lost the Gamma scale's precision (0.3936 bits at k = 2
        # and a mean of 2e-321, 0.3901 at a normal mean)
        grid = default_xi_grid(mean)
        assert grid[1] == 5e-324 and np.all(np.diff(grid) >= 0.0)
        for model in (FadingModel.rayleigh, lambda m: FadingModel.gamma(2.0, m),
                      lambda m: FadingModel.weibull(0.5, m)):
            res = jensen_gap_numeric(model(mean))
            assert res.gap_at_zero == pytest.approx(jensen_gap_numeric(model(1.0)).gap_at_zero,
                                                    rel=1e-12, abs=0.0)
            assert all(math.isfinite(xi) for _, xi in res.xi_curve)

    @settings(max_examples=15, deadline=None)
    @given(
        shape_k=st.sampled_from([("gamma", 1.0), ("gamma", 2.5), ("weibull", 1.5)]),
        mean=st.floats(min_value=1e-2, max_value=1e4),
    )
    def test_xi_nonincreasing_property(self, shape_k, mean):
        shape, k = shape_k
        model = FadingModel(shape, mean, k=k)
        res = jensen_gap_numeric(model, a_grid=[0.0, 0.3 * mean, mean, 10.0 * mean])
        values = [xi for _, xi in res.xi_curve]
        assert all(a >= b - 1e-8 for a, b in zip(values, values[1:]))
        assert values[0] >= -1e-9  # Jensen


class TestShapeParameter:
    @pytest.mark.parametrize("shape, k", [
        ("gamma", None), ("gamma", 0.0), ("gamma", -1.0), ("gamma", math.inf),
        ("gamma", math.nan), ("weibull", None), ("weibull", 0.0), ("weibull", math.inf),
        ("rayleigh", 3.0), ("rayleigh", 0.5), ("deterministic", 2.0), ("deterministic", 1.0),
    ])
    def test_unusable_k_is_refused_naming_the_shape(self, shape, k):
        with pytest.raises(ValueError, match=f"^{shape} shape"):
            FadingModel(shape, 2.0, k=k)

    def test_tabulated_takes_no_k(self):
        table = triangle_model().table
        with pytest.raises(ValueError, match="^tabulated shape takes no k"):
            FadingModel("tabulated", table.mean, k=1.0, table=table)

    @pytest.mark.parametrize("k", [None, 1, 1.0])
    def test_rayleigh_is_stored_with_k_one(self, k):
        assert FadingModel("rayleigh", 2.0, k=k).k == 1.0


class TestTabulatedValidation:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError, match="integrate to 1"):
            TabulatedPdf((0.0, 1.0), (1.5, 1.5), envelope=(2.0, 1.0))

    def test_envelope_required_at_zero(self):
        with pytest.raises(InfiniteJensenGapError, match="infinite logarithmic Jensen's gap"):
            FadingModel.tabulated((0.0, 1.0, 2.0), (2.0 / 3.0, 2.0 / 3.0, 0.0))

    def test_point_mass_like_spike_rejected(self):
        # towering density at w=0 cannot fit under a w**(b-1) envelope with b>1
        ws = np.array([0.0, 1e-3, 1.0])
        fs = np.array([900.0, 0.1, 1.0])
        fs /= np.trapezoid(fs, ws)
        with pytest.raises(InfiniteJensenGapError):
            FadingModel.tabulated(ws, fs, envelope=(1.0, 2.0))

    def test_grid_away_from_zero_needs_no_envelope(self):
        model = FadingModel.tabulated((1.0, 2.0, 3.0), (2.0 / 3.0, 2.0 / 3.0, 0.0))
        assert model.mean_power > 1.0

    def test_table_is_normalized_once(self):
        # a table of trapezoid mass 1 + 5e-7 is stored as the unit-mass one,
        # so its mean is not the raw density's 4/3 (1 + 5e-7)
        ws = np.linspace(0.0, 2.0, 21)
        unit = FadingModel.tabulated(ws, ws / 2.0, envelope=(1.0, 2.0))
        heavy = FadingModel.tabulated(ws, ws / 2.0 * (1.0 + 5e-7), envelope=(1.0, 2.0))
        assert heavy.mean_power == pytest.approx(unit.mean_power, rel=1e-15, abs=0.0)
        assert heavy.cdf(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_mean_power_must_match_grid(self):
        table = TabulatedPdf((1.0, 2.0, 3.0), (2.0 / 3.0, 2.0 / 3.0, 0.0))
        with pytest.raises(ValueError, match="mean_power"):
            FadingModel("tabulated", 99.0, table=table)


@pytest.mark.parametrize("build, message", [
    (lambda: TabulatedPdf((1.0,), (1.0,)), "at least 2 points"),
    (lambda: TabulatedPdf((1.0, 2.0, 3.0), (0.5, 0.5)), "at least 2 points"),
    (lambda: TabulatedPdf((-1.0, 1.0), (0.5, 0.5)), "strictly increasing"),
    (lambda: TabulatedPdf((1.0, 1.0, 2.0), (1.0, 1.0, 1.0)), "strictly increasing"),
    (lambda: TabulatedPdf((1.0, 2.0, 3.0), (1.5, -0.5, 1.0)), "pdf values must be nonnegative"),
    (lambda: TabulatedPdf((0.0, 1.0), (1.0, 1.0), envelope=(-1.0, 1.0)), "envelope requires"),
    (lambda: TabulatedPdf((0.0, 1.0), (1.0, 1.0), envelope=(1.0, 0.0)), "envelope requires"),
    (lambda: FadingModel("nakagami", 1.0), "unknown shape 'nakagami'"),
    (lambda: FadingModel("tabulated", 1.0), "tabulated shape requires a TabulatedPdf"),
    (lambda: jensen_gap_numeric(FadingModel.rayleigh(), a_grid=[1.0, -1.0]),
     "a grid must be nonnegative"),
], ids=["one-point", "unmatched", "negative-grid", "flat-grid", "negative-pdf",
        "envelope-a", "envelope-b", "unknown-shape", "no-table", "negative-xi-grid"])
def test_bad_input_is_refused(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


class TestLog2Sum:
    def test_matches_mpmath(self):
        # 1 to 4 parts, log-uniform from 1e-320 to the float limit, some of
        # them 1 or 0, against 400-digit mpmath
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(39)
        ln_lo, ln_hi = math.log(1e-320), math.log(1.7976931348623157e308)
        with mp.workdps(400):
            for _ in range(2000):
                n = int(rng.integers(1, 5))
                parts = [math.exp(u) for u in rng.uniform(ln_lo, ln_hi, n)]
                for i in np.flatnonzero(rng.random(n) < 0.2):
                    parts[i] = float(rng.integers(0, 2))
                if max(parts) == 0.0:
                    parts[0] = 1.0
                want = float(mp.log(mp.fsum(mp.mpf(p) for p in parts), 2))
                got = fading.log2_sum(*parts)
                assert abs(got - want) <= 5e-16 * max(1.0, abs(want)), parts

    def test_exact_cases(self):
        m = 1.7976931348623157e308
        assert fading.log2_sum(0.0, m) == math.log2(m)
        assert fading.log2_sum(1.0, 0.0, 0.0) == 0.0
        assert fading.log2_sum(1.0, 1.0) == 1.0
        assert fading.log2_sum(0.0, 0.0, 0.125) == -3.0


def _ten_thousand_cells():
    ws = np.linspace(0.0, 5.0, 10_001)
    fs = np.exp(-ws) * (1.0 + 0.5 * np.sin(7.0 * ws))
    return TabulatedPdf(tuple(ws), tuple(fs / np.trapezoid(fs, ws)), envelope=(2.0, 1.0))


NEAR_FLAT = TabulatedPdf((1.0, 2.0, 3.0), (0.5 - 1e-9, 0.5, 0.5 + 1e-9))


class TestTabulatedQuantile:
    """``quantile`` inverts the quadratic CDF of a cell to machine precision,
    flat and nearly flat cells included."""

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.7, 0.9])
    def test_near_flat_cell_matches_mpmath(self, p):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            ws, fs = [mp.mpf(w) for w in NEAR_FLAT.ws], [mp.mpf(f) for f in NEAR_FLAT.fs]
            r = mp.mpf(p)
            for w0, w1, f0, f1 in zip(ws, ws[1:], fs, fs[1:]):
                mass = (f0 + f1) * (w1 - w0) / 2
                if r <= mass:
                    break
                r -= mass
            slope = (f1 - f0) / (w1 - w0)
            want = w0 + (mp.sqrt(f0 * f0 + 2 * slope * r) - f0) / slope  # textbook root
            got = float(NEAR_FLAT.quantile(p))
            assert abs(got - want) <= 1e-15 * want

    @pytest.mark.parametrize("table", [
        TabulatedPdf((1.0, 3.0), (0.5, 0.5)),
        TabulatedPdf((0.0, 2.0), (0.0, 1.0), envelope=(0.5, 2.0)),
        TabulatedPdf((1.0, 3.0), (1.0, 0.0)),
        NEAR_FLAT,
        _ten_thousand_cells(),
    ], ids=["flat", "rising", "falling", "near-flat", "1e4-cells"])
    def test_cdf_inverts_quantile(self, table):
        p = np.linspace(0.0, 1.0, 100_001)
        assert np.max(np.abs(table.cdf(table.quantile(p)) - p)) <= 1e-15

    def test_cells_are_read_only_and_not_fields(self):
        # eq and hash read the (ws, fs, envelope) tuples, not the cell arrays
        table = triangle_model().table
        twin = TabulatedPdf(table.ws, table.fs, table.envelope)
        assert table == twin and hash(table) == hash(twin)
        assert not table._cum.flags.writeable


class TestLogMomentLowerBound:
    def test_trivial_point(self):
        assert log_moment_lower_bound(0.0, 1.0, 1.0) == 0.0

    def test_exponential_consistency(self):
        # Exp(1) has CDF 1 - e^{-w} <= w on [0, 1] and E[ln W] = -gamma
        bound = log_moment_lower_bound(1.0, 1.0, 1.0)
        assert bound == pytest.approx(-1.0)
        assert -GAMMA >= bound

    def test_direct_formula_value(self):
        val = log_moment_lower_bound(1.0, 2.0, 0.5)
        expect = math.log(0.5) + 0.25 * math.log(0.5) - 0.125
        assert val == pytest.approx(expect, abs=1e-12)
        assert val == pytest.approx(-0.991434, abs=5e-7)

    def test_tight_for_polynomial_cdf(self):
        # F(w) = w^2 on [0, 1]: E[ln W] = -1/2 meets the bound exactly
        bound = log_moment_lower_bound(1.0, 2.0, 1.0)
        assert bound == pytest.approx(-0.5)
        model = FadingModel.tabulated(np.linspace(0, 1, 41), 2.0 * np.linspace(0, 1, 41),
                                      envelope=(2.0, 2.0))
        w = model.sample_power(substream(11), 400_000)
        emp = np.log(w).mean()
        stderr = np.log(w).std() / math.sqrt(len(w))
        assert emp >= bound - 3.0 * stderr

    @pytest.mark.parametrize("a,b,eps", [(-1.0, 1.0, 1.0), (1.0, 0.0, 1.0),
                                         (1.0, 1.0, 0.0), (1.0, 1.0, 1.5)])
    def test_domain_errors(self, a, b, eps):
        with pytest.raises(ValueError):
            log_moment_lower_bound(a, b, eps)

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.floats(min_value=0.0, max_value=10.0),
        b=st.floats(min_value=1e-3, max_value=10.0),
        eps=st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_bound_is_nonpositive(self, a, b, eps):
        # ln(eps) <= 0 on (0, 1] and both correction terms are <= 0
        assert log_moment_lower_bound(a, b, eps) <= 1e-12
