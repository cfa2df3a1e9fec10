"""n-phase scheme: determinant recursion, asymptotics, cancellation, corners, ISI."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from conftest import exp_e2

from ffic import (
    CancellationReport,
    ChannelSpec,
    ComplexGainSampler,
    EstimateResult,
    FadingModel,
    McConfig,
    PhaseDraw,
    RateConstraint,
    RateRegion,
    cancellation_check,
    estimate_expectation,
    expected_log_shifted,
    isi_achievable_limit,
    isi_achievable_rate,
    isi_bounds,
    khat_plugin_params,
    ky1_conditional_log2det,
    ky1_dets,
    ky1_growth,
    nphase_corner_gap,
    nphase_outer_region,
    r1_rate,
    r2_rate,
    substream,
    tridiag_growth,
)
from ffic import afscheme
from ffic.afscheme import _gth, _log2_det

RAYLEIGH_GAP = float(np.euler_gamma) * math.log2(math.e)


def dense_log2det(draw: PhaseDraw, inr: float, n: int) -> float:
    """Oracle: assemble the full covariance and take a dense determinant.

    Rows are ordered newest phase first; each phase couples only to its
    predecessor through g11*(i-1) g21(i) g12(i-1) / sqrt(1+INR).
    """
    s = math.sqrt(1.0 + inr)
    w11 = np.abs(draw.g11) ** 2
    w21 = np.abs(draw.g21) ** 2
    w12 = np.abs(draw.g12) ** 2
    m = np.zeros((n, n), dtype=complex)
    for r in range(n):
        i = n - r  # phase index of this row
        if i == 1:
            m[r, r] = 1.0 + w11[0] + w21[0]
        else:
            m[r, r] = w11[i - 1] + w21[i - 1] * (w12[i - 2] + 1.0) / (1.0 + inr) + 1.0
            off = np.conj(draw.g11[i - 2]) * draw.g21[i - 1] * draw.g12[i - 2] / s
            m[r, r + 1] = off
            m[r + 1, r] = np.conj(off)
    sign, logdet = np.linalg.slogdet(m)
    assert sign.real > 0.0
    return logdet / math.log(2.0)


def dense_conditional_log2det(draw: PhaseDraw, inr: float) -> float:
    w21 = np.abs(draw.g21) ** 2
    diag = np.concatenate([w21[:0:-1] / (1.0 + inr) + 1.0, [w21[0] + 1.0]])
    return float(np.sum(np.log2(diag)))


def dense_isi_log2det(wd: np.ndarray, wc: np.ndarray) -> float:
    """Oracle: log2 det(I + H H^H) of the 2-tap ISI channel over n symbols.

    H is lower-bidiagonal, g_d(l) on the diagonal and g_c(l) below it for
    l >= 2 (X(0) = 0 drops g_c(1)); ``wd`` holds |g_d(1..n)|^2 and ``wc``
    holds |g_c(2..n)|^2.  Only the powers enter the determinant.
    """
    h = np.diag(np.sqrt(wd)) + np.diag(np.sqrt(wc), -1)
    sign, logdet = np.linalg.slogdet(np.eye(len(wd)) + h @ h.T)
    assert sign > 0.0
    return logdet / math.log(2.0)


@pytest.mark.parametrize("build, message", [
    (lambda: PhaseDraw(*(np.ones(2),) * 3, np.ones(3)), "equal length >= 1"),
    (lambda: PhaseDraw(*(np.ones(0),) * 4), "equal length >= 1"),
    (lambda: r2_rate(ChannelSpec.from_mean_powers(100.0, 10.0, 1.0, 1.0)),
     "defined for symmetric channels"),
    (lambda: cancellation_check(4, 0, 3), "at least one symbol per phase"),
], ids=["unequal-draws", "empty-draws", "asymmetric-r2", "zero-blocks"])
def test_bad_input_is_refused(build, message):
    with pytest.raises(ValueError, match=message):
        build()


class TestKy1Dets:
    def test_single_phase_value(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        draw = PhaseDraw.draw(ch, 1, substream(1, (0,)))
        seq = ky1_dets(draw, 10.0)
        want = 1.0 + abs(draw.g11[0]) ** 2 + abs(draw.g21[0]) ** 2
        assert seq.values[0] == pytest.approx(want, rel=1e-12)

    def test_zero_cross_gains_factorize(self):
        ch = ChannelSpec.from_mean_powers(50.0, 50.0, 1e-30, 1e-30,
                                          shape="deterministic")
        draw = PhaseDraw.draw(ch, 6, substream(2, (0,)))
        seq = ky1_dets(draw, 1e-30)
        w11 = np.abs(draw.g11) ** 2
        want = np.cumsum(np.log2(1.0 + w11))
        assert np.allclose(seq.log2_values, want, rtol=1e-9)

    def test_recursion_matches_dense_oracle(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        rng = substream(3, (0,))
        for trial in range(10):
            n = 1 + int(rng.integers(1, 12))
            draw = PhaseDraw.draw(ch, n, rng)
            seq = ky1_dets(draw, 10.0)
            want = dense_log2det(draw, 10.0, n)
            assert abs(seq.log2_values[-1] - want) <= 1e-9 * abs(want)

    def test_recursion_residual_invariant(self):
        ch = ChannelSpec.symmetric(30.0, 3.0)
        draw = PhaseDraw.draw(ch, 10, substream(4, (0,)))
        seq = ky1_dets(draw, 3.0)
        k = np.concatenate([[1.0], seq.values])  # |K(0)| = 1
        w11 = np.abs(draw.g11) ** 2
        w21 = np.abs(draw.g21) ** 2
        w12 = np.abs(draw.g12) ** 2
        for i in range(2, 11):
            d = w11[i - 1] + w21[i - 1] * (w12[i - 2] + 1.0) / 4.0 + 1.0
            e = w11[i - 2] * w21[i - 1] * w12[i - 2] / 4.0
            resid = abs(k[i] - (d * k[i - 1] - e * k[i - 2]))
            assert resid <= 1e-9 * k[i]

    def test_conditional_diag_product(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        draw = PhaseDraw.draw(ch, 7, substream(5, (0,)))
        got = ky1_conditional_log2det(draw, 10.0)
        assert got == pytest.approx(dense_conditional_log2det(draw, 10.0), rel=1e-12)

    def test_growth_field(self):
        ch = ChannelSpec.symmetric(9.0, 1.0, shape="deterministic")
        draw = PhaseDraw.draw(ch, 4, substream(6, (0,)))
        seq = ky1_dets(draw, 1.0)
        assert seq.growth[0] == pytest.approx(seq.log2_values[0])
        assert seq.growth[3] == pytest.approx(seq.log2_values[3] / 4.0)


# Stream keys of the test-side Monte Carlo kernels below
RECEIVER1_KEY = (40,)
ISI_KEY = (44,)


def kernel_estimate(kernel, cfg, key):
    """The estimate of a kernel's per-draw values: the kernel is the one
    sampler, and the integrand is the identity."""
    return estimate_expectation(lambda v: v, [SimpleNamespace(sample=kernel)], cfg, key)


def allocating_log2det(steps):
    """The two-tap recursion on arrays of draws, a new array for every
    ratio, log2 and partial sum, and a finiteness check at every step."""
    ratio, log2k = np.inf, 0.0
    for d, e in steps:
        ratio = d - e / ratio
        step = np.log2(ratio)
        assert math.isfinite(np.sum(step))
        log2k = log2k + step
    return log2k


def allocating_receiver1(ch: ChannelSpec, n: int, conditional: bool):
    """Per-chunk draw of (1/n) log2 |K(n)| (- log2 |K_cond(n)|), the
    powers drawn per phase in the order |g11(i)|^2, |g21(i)|^2, |g12(i)|^2."""
    s = 1.0 + ch.inr2

    def draw(rng, size):
        cond = 0.0

        def steps():
            nonlocal cond
            w11_prev = w12_prev = None
            for i in range(n):
                w11 = ch.g11.sample_power(rng, size)
                w21 = ch.g21.sample_power(rng, size)
                if conditional:
                    cond = cond + (np.log2(w21 / s + 1.0) if i else np.log2(w21 + 1.0))
                w12 = ch.g12.sample_power(rng, size)
                if i:
                    yield w11 + w21 * (w12_prev + 1.0) / s + 1.0, w11_prev * w21 * w12_prev / s
                else:
                    yield 1.0 + w11 + w21, 0.0
                w11_prev, w12_prev = w11, w12

        return (allocating_log2det(steps()) - cond) / n

    return draw


def allocating_isi(snr: float, inr: float, n: int, shape: str, k):
    """Per-chunk draw of (1/n) log2 |K_Y(n)| of the 2-tap ISI channel; per
    later symbol the draws are |g_d(l)|^2, then |g_c(l)|^2."""
    dmodel, cmodel = FadingModel(shape, snr, k=k), FadingModel(shape, inr, k=k)

    def draw(rng, size):
        def steps():
            wd_prev = dmodel.sample_power(rng, size)
            yield 1.0 + wd_prev, 0.0
            for _ in range(1, n):
                wd = dmodel.sample_power(rng, size)
                wc = cmodel.sample_power(rng, size)
                yield 1.0 + wd + wc, wc * wd_prev
                wd_prev = wd

        return allocating_log2det(steps()) / n

    return draw


class TestMonteCarloKernelAgainstDenseOracle:
    """The test-side Monte Carlo kernels, which judge density evolution,
    are judged here: at samples=1 an estimate is exactly its one draw's
    value.  The draw's powers are rebuilt from the same substream, in the
    kernel's draw order, and judged by a dense determinant."""

    SNR, INR = 100.0, 10.0
    CFG = McConfig(samples=1, seed=21)
    SHAPES = pytest.mark.parametrize("shape, k", [
        ("rayleigh", None), ("gamma", 2.0), ("gamma", 0.5), ("weibull", 2.0),
        ("deterministic", None),
    ])
    PHASES = pytest.mark.parametrize("n", [1, 2, 5, 12])

    @SHAPES
    @PHASES
    @pytest.mark.parametrize("conditional", [True, False], ids=["r1", "ky1"])
    def test_receiver1(self, conditional, shape, k, n):
        ch = ChannelSpec.symmetric(self.SNR, self.INR, shape=shape, k=k)
        rng = substream(self.CFG.seed, RECEIVER1_KEY + (0,))
        # per phase: |g11|^2, |g21|^2, |g12|^2
        w = np.array([[m.sample_power(rng, 1)[0] for m in (ch.g11, ch.g21, ch.g12)]
                      for _ in range(n)])
        g = np.sqrt(w).astype(complex)
        draw = PhaseDraw(g11=g[:, 0], g21=g[:, 1], g22=g[:, 0], g12=g[:, 2])
        want = dense_log2det(draw, self.INR, n)
        if conditional:
            want -= dense_conditional_log2det(draw, self.INR)
        kernel = allocating_receiver1(ch, n, conditional)
        got = kernel_estimate(kernel, self.CFG, RECEIVER1_KEY).mean * n
        assert abs(got - want) <= 1e-9 * abs(want)

    @SHAPES
    @PHASES
    def test_isi(self, shape, k, n):
        dmodel = FadingModel(shape, self.SNR, k=k)
        cmodel = FadingModel(shape, self.INR, k=k)
        rng = substream(self.CFG.seed, ISI_KEY + (0,))
        wd, wc = [dmodel.sample_power(rng, 1)[0]], []
        for _ in range(1, n):  # per later symbol: |g_d|^2, then |g_c|^2
            wd.append(dmodel.sample_power(rng, 1)[0])
            wc.append(cmodel.sample_power(rng, 1)[0])
        want = dense_isi_log2det(np.array(wd), np.array(wc))
        kernel = allocating_isi(self.SNR, self.INR, n, shape, k)
        got = kernel_estimate(kernel, self.CFG, ISI_KEY).mean * n
        assert abs(got - want) <= 1e-9 * abs(want)


FADING_SHAPES = [("rayleigh", None), ("gamma", 0.5), ("gamma", 2.0), ("gamma", 5.0),
                 ("weibull", 0.5), ("weibull", 2.0)]
SHAPE_IDS = ["rayleigh", "gamma-k0.5", "gamma-k2", "gamma-k5", "weibull-k0.5", "weibull-k2"]


def triangle_link(mean: float) -> FadingModel:
    """The triangle pdf f(w) = 2w / L^2 on [0, L], scaled to mean 2L/3."""
    top = 1.5 * mean
    ws = np.linspace(0.0, top, 21)
    return FadingModel.tabulated(ws, 2.0 * ws / top**2, envelope=(2.0 / top**2, 2.0))


RECEIVER1_RATES = pytest.mark.parametrize("rate, conditional", [
    (r1_rate, True), (ky1_growth, False),
], ids=["r1_rate", "ky1_growth"])


class TestDensityEvolution:
    """The three rates against the Monte Carlo kernels above (within 4
    sigma of the Monte Carlo plus the reported bound), closed forms, and
    a grid four times finer."""

    SNR, INR = 100.0, 10.0
    MC = McConfig(samples=20_000, seed=33)
    SHAPES = pytest.mark.parametrize("shape, k", FADING_SHAPES, ids=SHAPE_IDS)
    PHASES = pytest.mark.parametrize("n", [1, 2, 8, 64])

    @staticmethod
    def assert_agrees(de, mc):
        # the bound is widest, 3e-3 bits, on the k = 0.5 laws' long ln W tails
        assert de.samples == 0 and 0.0 < de.stderr < 5e-3
        assert abs(de.mean - mc.mean) <= 4.0 * mc.stderr + de.stderr

    @pytest.mark.parametrize("shape, k", FADING_SHAPES + [("tabulated", None)],
                             ids=SHAPE_IDS + ["tabulated"])
    @PHASES
    @RECEIVER1_RATES
    def test_receiver1_agrees_with_monte_carlo(self, rate, conditional, shape, k, n):
        if shape == "tabulated":
            # density evolution reads the tables' CDFs, and r1_rate's
            # conditional part their per-cell rule (``TabulatedPdf.expect``)
            direct, cross = triangle_link(self.SNR), triangle_link(self.INR)
            ch = ChannelSpec(g11=direct, g21=cross, g22=direct, g12=cross)
        else:
            ch = ChannelSpec.symmetric(self.SNR, self.INR, shape=shape, k=k)
        mc = kernel_estimate(allocating_receiver1(ch, n, conditional), self.MC, RECEIVER1_KEY)
        self.assert_agrees(rate(ch, n), mc)

    @SHAPES
    @PHASES
    def test_isi_agrees_with_monte_carlo(self, shape, k, n):
        mc = kernel_estimate(allocating_isi(self.SNR, self.INR, n, shape, k), self.MC, ISI_KEY)
        self.assert_agrees(isi_achievable_rate(self.SNR, self.INR, n, shape=shape, k=k), mc)

    def test_mixed_static_and_fading_links_agree_with_monte_carlo(self):
        # a deterministic link's CDF is a step; the chain takes it as any other
        fading, static = FadingModel.rayleigh(self.SNR), FadingModel.deterministic(self.INR)
        ch = ChannelSpec(g11=fading, g21=static, g22=fading, g12=static)
        mc = kernel_estimate(allocating_receiver1(ch, 8, False), self.MC, RECEIVER1_KEY)
        self.assert_agrees(ky1_growth(ch, 8), mc)

    @SHAPES
    def test_first_isi_symbol_is_the_quadrature(self, shape, k):
        # n = 1: E log2(1 + W_d), from fading's log rule
        est = isi_achievable_rate(self.SNR, self.INR, 1, shape=shape, k=k)
        want = expected_log_shifted(FadingModel(shape, self.SNR, k=k), 1.0).mean
        assert abs(est.mean - want) <= est.stderr + 1e-6

    @pytest.mark.parametrize("shape, k", [("rayleigh", None), ("gamma", 0.5),
                                          ("weibull", 0.5)], ids=["rayleigh", "gamma-k0.5",
                                                                  "weibull-k0.5"])
    @pytest.mark.parametrize("rate", [
        lambda ch, n: r1_rate(ch, n),
        lambda ch, n: ky1_growth(ch, n),
        lambda ch, n: isi_achievable_rate(ch.snr1, ch.inr1, n, shape=ch.g11.shape, k=ch.g11.k),
        lambda ch, n: isi_achievable_limit(ch.snr1, ch.inr1, shape=ch.g11.shape, k=ch.g11.k),
    ], ids=["r1_rate", "ky1_growth", "isi_achievable_rate", "isi_achievable_limit"])
    def test_bound_holds_against_a_grid_four_times_finer(self, rate, shape, k, monkeypatch):
        ch = ChannelSpec.symmetric(self.SNR, self.INR, shape=shape, k=k)
        est = rate(ch, 64)
        monkeypatch.setattr(afscheme, "DE_CELLS", tuple(4 * c for c in afscheme.DE_CELLS))
        fine = rate(ch, 64)
        assert abs(est.mean - fine.mean) <= est.stderr
        assert fine.stderr < est.stderr

    @pytest.mark.parametrize("shape, k", [("rayleigh", None), ("gamma", 2.0)])
    def test_isi_limit_is_the_rate_as_n_grows(self, shape, k):
        limit = isi_achievable_limit(self.SNR, self.INR, shape=shape, k=k)
        far = isi_achievable_rate(self.SNR, self.INR, 10**6, shape=shape, k=k)
        assert abs(far.mean - limit.mean) <= limit.stderr + far.stderr
        # the first symbols see less interference, so the rate climbs to its limit
        near = isi_achievable_rate(self.SNR, self.INR, 16, shape=shape, k=k)
        assert near.mean < far.mean

    def test_isi_limit_is_solved_not_iterated(self):
        # at SNR = INR = 1e300 ln q drifts so slowly that no few thousand
        # steps reach the stationary law; solving for it does not need them
        limit = isi_achievable_limit(1e300, 1e300)
        assert limit.stderr < 1.0
        low, high = isi_bounds(1e300, 1e300, RAYLEIGH_GAP)
        assert low <= limit.mean <= high

    def test_gth_matches_a_dense_solve(self):
        # the reference: p (T - I) = 0 with one balance row replaced by sum p = 1
        rng = np.random.default_rng(7)
        t = rng.random((40, 40)) ** 8  # uneven rows, some entries near zero
        t /= t.sum(axis=1, keepdims=True)
        system = t.T - np.eye(40)
        system[-1] = 1.0
        want = np.linalg.solve(system, np.eye(40)[-1])
        got = _gth(t)
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.allclose(got @ t, got, rtol=1e-12, atol=0.0)

    def test_isi_limit_reads_the_same_bytes_on_any_blas_thread_count(self):
        code = ("from ffic import isi_achievable_limit\n"
                "print(repr(isi_achievable_limit(1e300, 1e300)))\n")
        out = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(Path(afscheme.__file__).parents[1]), env.get("PYTHONPATH", "")])
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                  text=True, timeout=120, check=True)
            out.append(proc.stdout)
        assert out[0] == out[1]

    def test_static_isi_limit_is_the_toeplitz_closed_form(self):
        limit = isi_achievable_limit(self.SNR, self.INR, shape="deterministic")
        rate = isi_achievable_rate(self.SNR, self.INR, 4096, shape="deterministic")
        assert limit.stderr == rate.stderr == 0.0
        assert abs(rate.mean - limit.mean) < 1e-3

    @pytest.mark.parametrize("rate", [
        lambda: r1_rate(ChannelSpec.symmetric(100.0, 10.0), 8, McConfig(samples=1000, seed=14)),
        lambda: ky1_growth(ChannelSpec.symmetric(100.0, 10.0), 8),
        lambda: isi_achievable_rate(100.0, 10.0, 8, shape="gamma", k=2.0),
        lambda: isi_achievable_limit(100.0, 10.0, shape="weibull", k=2.0),
    ], ids=["r1_rate", "ky1_growth", "isi_achievable_rate", "isi_achievable_limit"])
    def test_draws_nothing_and_is_deterministic(self, rate, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("density evolution drew a random number")

        monkeypatch.setattr(ComplexGainSampler, "sample", refuse)
        monkeypatch.setattr(FadingModel, "sample_power", refuse)
        est = rate()
        assert est.samples == 0 and 0.0 < est.stderr < 1e-3
        assert rate() == est


class TestExtremeInputs:
    """Density evolution runs in ln W: powers of 1e300 and a Weibull k of
    0.005, whose scale underflows, give finite values with their bounds.  A
    law with mass below the smallest float is one ValueError naming it."""

    RATES = pytest.mark.parametrize("rate", [
        lambda snr, inr, shape, k: r1_rate(ChannelSpec.symmetric(snr, inr, shape, k), 4),
        lambda snr, inr, shape, k: ky1_growth(ChannelSpec.symmetric(snr, inr, shape, k), 4),
        lambda snr, inr, shape, k: isi_achievable_rate(snr, inr, 4, shape=shape, k=k),
    ], ids=["r1_rate", "ky1_growth", "isi_achievable_rate"])

    @RATES
    @pytest.mark.parametrize("snr, inr, shape, k", [
        (1e300, 1e300, "rayleigh", None), (100.0, 10.0, "weibull", 0.005),
    ], ids=["powers-1e300", "weibull-k0.005"])
    def test_finite_with_a_bound(self, rate, snr, inr, shape, k):
        est = rate(snr, inr, shape, k)
        assert math.isfinite(est.mean) and 0.0 < est.stderr < 1.0

    def test_powers_of_1e300_read_their_size(self):
        # log2(1 + 2e300) = 997 bits, less the Jensen gap of a symbol at most
        est = isi_achievable_rate(1e300, 1e300, 64)
        assert 995.0 < est.mean < 998.0

    @RATES
    def test_law_below_the_floats_is_one_error(self, rate):
        with pytest.raises(ValueError, match=(
                r"gamma k=0\.01 law of mean power 10+: its 1e-12 quantile underflows to 0")):
            rate(100.0, 10.0, "gamma", 0.01)

    def test_static_powers_that_overflow_raise(self):
        # the exact recursion's d = 1 + SNR + INR = 1 + 2e308 overflows
        with pytest.raises(ValueError, match="the powers overflow"):
            isi_achievable_rate(1e308, 1e308, 4, shape="deterministic")

    def test_static_powers_of_1e300_read_their_size(self):
        # e = SNR * INR = 1e600 is never formed: each step takes INR (SNR / r)
        est = isi_achievable_rate(1e300, 1e300, 64, shape="deterministic")
        assert 996.0 < est.mean < 998.0
        # nor is (SNR - INR)^2 = 1e616 in the limit, whose larger root is ~SNR
        limit = isi_achievable_limit(1e308, 1e300, shape="deterministic")
        assert limit.mean == pytest.approx(math.log2(1e308), rel=1e-15)

    @pytest.mark.parametrize("power", [1e16, 1e300, 1e308, 1.7e308])
    def test_static_limit_at_equal_powers_matches_mpmath(self, power):
        # log2(a + sqrt(a^2 - 4 b^2)) - 1, a = 1 + 2 SNR, b = SNR: a rounds to
        # 2b at 1e16, and a overflows at 1e308
        mp = pytest.importorskip("mpmath")
        limit = isi_achievable_limit(power, power, shape="deterministic")
        with mp.workdps(800):
            a, b = 1 + 2 * mp.mpf(power), mp.mpf(power)
            want = float(mp.log(a + mp.sqrt(a * a - 4 * b * b), 2) - 1)
        assert limit.stderr == 0.0
        assert abs(limit.mean - want) <= 1e-15 * want


class TestLog2Det:
    def test_a_bad_step_raises(self):
        # step 2's ratio is 1 - 2 (1/1) = -1
        with pytest.raises(ValueError, match="non-positive, infinite or NaN"):
            _log2_det([(1.0, 0.0, 0.0), (1.0, 2.0, 1.0), (5.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="non-positive, infinite or NaN"):
            _log2_det([(math.inf, 0.0, 0.0)])

    def test_scalar_steps_fill_out(self):
        out = np.empty(3)
        got = _log2_det([(2.0, 0.0, 0.0), (3.0, 1.0, 2.0), (3.0, 2.0, 1.0)], out=out)
        # e = c u = 2: |K| = 2, 3*2 - 2 = 4, 3*4 - 2*2 = 8
        assert out.tolist() == [1.0, 2.0, 3.0]
        assert got == 3.0

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize("rate", [
        lambda n: r1_rate(ChannelSpec.symmetric(100.0, 10.0), n),
        lambda n: ky1_growth(ChannelSpec.symmetric(100.0, 10.0), n),
        lambda n: isi_achievable_rate(100.0, 10.0, n),
    ], ids=["r1_rate", "ky1_growth", "isi_achievable_rate"])
    def test_fewer_than_one_phase_rejected(self, rate, n):
        with pytest.raises(ValueError, match=re.escape("n must be >= 1")):
            rate(n)


class TestTridiagGrowth:
    def test_diagonal_case(self):
        g = tridiag_growth(2.0, 0.0, 8)
        assert np.allclose(g.dets.values, 2.0 ** np.arange(1, 9))
        assert g.limit_closed_form == pytest.approx(1.0)
        assert g.limit_estimate == pytest.approx(1.0)

    def test_golden_recursion(self):
        g = tridiag_growth(3.0, 1.0, 200)
        assert np.allclose(g.dets.values[:4], [3.0, 8.0, 21.0, 55.0])
        assert g.limit_closed_form == pytest.approx(math.log2(3.0 + math.sqrt(5.0)) - 1.0)
        assert abs(g.limit_estimate - g.limit_closed_form) < 0.01

    def test_lower_bound_every_step(self):
        g = tridiag_growth(3.0, 1.0, 200)
        assert np.all(g.dets.growth >= math.log2(3.0) - 1.0 - 1e-12)

    def test_channel_plug_in(self):
        a, b = khat_plugin_params(100.0, 10.0)
        assert a == 111.0
        assert b == pytest.approx(10.0 * 10.0 / math.sqrt(11.0))
        g = tridiag_growth(a, b, 300)
        assert g.limit_estimate >= math.log2(111.0) - 1.0

    @pytest.mark.parametrize("a, b", [(1.7e308, 8e307), (1e155, -1e154), (2.0, 1.0 - 1e-16)])
    def test_closed_form_matches_mpmath(self, a, b):
        # a^2 overflows, b is negative, and a - 2b = 2.2e-16 is exact
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            want = mp.log(a + mp.sqrt(mp.mpf(a) ** 2 - 4 * mp.mpf(b) ** 2), 2) - 1
            got = tridiag_growth(a, b, 4).limit_closed_form
            assert abs(got - want) <= 1e-15 * abs(want)

    def test_domain_rejected(self):
        with pytest.raises(ValueError):
            tridiag_growth(2.0, 1.5, 10)
        with pytest.raises(ValueError):
            tridiag_growth(2.0, 1.0, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(min_value=0.5, max_value=1e4),
        ratio=st.floats(min_value=0.0, max_value=0.49),
        n=st.integers(min_value=1, max_value=120),
    )
    def test_growth_lower_bound_property(self, a, ratio, n):
        b = a * ratio  # guarantees a^2 > 4 b^2
        g = tridiag_growth(a, b, n)
        assert np.all(g.dets.growth >= math.log2(a) - 1.0 - 1e-9)


class TestRates:
    def test_r1_deterministic_interference_free(self):
        ch = ChannelSpec.from_mean_powers(100.0, 100.0, 1e-30, 1e-30,
                                          shape="deterministic")
        est = r1_rate(ch, 16, McConfig(samples=2, seed=7))
        assert est.mean == pytest.approx(math.log2(101.0), rel=1e-9)
        assert est.stderr == 0.0

    def test_r1_rayleigh_above_scheme_bound(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        est = r1_rate(ch, 64, McConfig(samples=30_000, seed=8))
        bound = math.log2(111.0) - 3.0 * RAYLEIGH_GAP - 2.0
        assert est.mean >= bound - 3.0 * est.stderr

    def test_growth_matches_toeplitz_closed_form_when_static(self):
        ch = ChannelSpec.symmetric(100.0, 10.0, shape="deterministic")
        a, b = khat_plugin_params(100.0, 10.0)
        closed = math.log2(a + math.sqrt(a * a - 4.0 * b * b)) - 1.0
        est = ky1_growth(ch, 128, McConfig(samples=2, seed=9))
        assert abs(est.mean - closed) < 0.05

    def test_growth_dominates_plug_in_minus_gap(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        a, b = khat_plugin_params(100.0, 10.0)
        for n in (8, 32):
            est = ky1_growth(ch, n, McConfig(samples=20_000, seed=10))
            khat = tridiag_growth(a, b, n).limit_estimate
            assert est.mean >= khat - 3.0 * RAYLEIGH_GAP - 3.0 * est.stderr

    def test_asymmetric_spec_rejected(self):
        ch = ChannelSpec.from_mean_powers(100.0, 50.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="symmetric"):
            r1_rate(ch, 4, McConfig(samples=2, seed=0))

    def test_r2_deterministic_exact(self):
        snr = 4.0 * (1.0 + 10.0)
        ch = ChannelSpec.symmetric(snr, 10.0, shape="deterministic")
        est = r2_rate(ch, McConfig(samples=4, seed=11))
        assert est.mean == 2.0
        assert est.stderr == 0.0

    def test_r2_clamps_to_zero(self):
        ch = ChannelSpec.symmetric(5.0, 10.0, shape="deterministic")  # 5 < 1+INR
        est = r2_rate(ch, McConfig(samples=4, seed=12))
        assert est.mean == 0.0

    def test_r2_rayleigh_matches_quadrature(self):
        snr, inr = 100.0, 10.0
        edges = (1.0 + inr, snr, 10.0 * snr, 80.0 * snr)
        oracle = sum(quad(lambda w: np.log2(w / (1.0 + inr)) * np.exp(-w / snr) / snr,
                          a, b, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                     for a, b in zip(edges, edges[1:]))
        ch = ChannelSpec.symmetric(snr, inr)
        est = r2_rate(ch, McConfig(samples=400_000, seed=13))
        assert est.stderr == 0.0  # exact on an exponential link: nothing is drawn
        assert abs(est.mean - oracle) <= 1e-10

    @pytest.mark.parametrize("shape, k", [("rayleigh", None), ("gamma", 1.0), ("weibull", 1.0)])
    def test_r2_exponential_is_e1_of_s_over_mean_bit_for_bit(self, shape, k):
        # at k = 1 the Weibull scale is the mean itself, so every exponential
        # law reads E1(s / SNR) / ln 2 to the last bit
        ch = ChannelSpec.symmetric(100.0, 10.0, shape=shape, k=k)
        assert r2_rate(ch).mean == float(exp1(11.0 / 100.0)) / math.log(2.0)

    # (k, mean, s, E log2+(W/s) in 40-digit mpmath, rounded); the last rows
    # under- and overflow (s/theta)^k, or theta itself (Gamma(1001) = 1000!)
    R2_WEIBULL = [
        (2.0, 100.0, 11.0, 2.9491423600379),
        (0.5, 1e6, 1001.0, 7.4265231281719),
        (50.0, 1e300, 2.0, 995.577958401585),
        (1e-3, 100.0, 11.0, 2.99896581189086e-160),
        (3.0, 1e308, 1e308, None),
        (0.01, 1.7e308, 2.0, None),
        (10.0, 1e-300, 1e300, None),
        (1e-3, 1e308, 1.5, None),
    ]

    @pytest.mark.parametrize("k, mean, s, value", R2_WEIBULL)
    def test_r2_weibull_matches_mpmath(self, k, mean, s, value):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            km = mp.mpf(k)
            x = (mp.mpf(s) * mp.gamma(1 + 1 / km) / mp.mpf(mean)) ** km
            want = float(mp.e1(x) / (km * mp.log(2)))
        ch = ChannelSpec.symmetric(mean, s - 1.0, shape="weibull", k=k)
        est = r2_rate(ch)
        assert est.stderr == 0.0 and est.samples == 0
        assert est.mean == pytest.approx(want, rel=1e-12, abs=0.0)
        if value is not None:
            assert est.mean == pytest.approx(value, rel=1e-13, abs=0.0)

    def test_e1_is_scipys_exp1_bit_for_bit(self):
        x = np.concatenate([np.geomspace(1e-300, 700.0, 2000), [0.11, 1.0, np.nextafter(1.0, 2.0)]])
        assert [afscheme._e1(float(v)) for v in x] == [float(exp1(v)) for v in x]

    def test_e1_matches_mpmath(self):
        mp = pytest.importorskip("mpmath")
        x = np.concatenate([np.geomspace(1e-300, 700.0, 40), [0.5, 1.0, 1.5, 3.0, 10.0]])
        with mp.workdps(30):
            want = [float(mp.e1(mp.mpf(float(v)))) for v in x]
        np.testing.assert_allclose([afscheme._e1(float(v)) for v in x], want, rtol=2e-15, atol=0.0)

    @pytest.mark.parametrize("k", [0.5, 2.0, 3.0])
    def test_r2_weibull_matches_monte_carlo(self, k):
        s = 11.0
        mc = estimate_expectation(lambda w: np.log2(np.maximum(w / s, 1.0)),
                                  [FadingModel.weibull(k, 100.0)],
                                  McConfig(samples=2_000_000, seed=20))
        est = r2_rate(ChannelSpec.symmetric(100.0, s - 1.0, shape="weibull", k=k))
        assert abs(est.mean - mc.mean) <= 4.0 * mc.stderr


class TestCancellation:
    def test_noise_free_two_phase_telescope(self):
        rep = cancellation_check(2, 1, seed=1, zero_noise=True)
        assert rep.max_residual <= 1e-15

    def test_random_draws(self):
        rep = cancellation_check(8, 16, seed=2)
        assert isinstance(rep, CancellationReport)
        assert rep.max_residual < 1e-10

    def test_identity_is_inr_independent(self):
        rep = cancellation_check(8, 16, seed=3, inr=1e8)
        assert rep.max_residual < 1e-10

    def test_json_fields(self):
        rep = cancellation_check(4, 8, seed=4)
        assert rep.to_json() == {
            "n": 4, "N": 8, "seed": 4, "max_residual": rep.max_residual,
        }

    def test_needs_two_phases(self):
        with pytest.raises(ValueError):
            cancellation_check(1, 4, seed=0)


class TestCornerGap:
    def test_rayleigh_corner_gap(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        res = nphase_corner_gap(ch, RAYLEIGH_GAP, McConfig(samples=200_000, seed=14))
        assert res.per_user_gap <= 2.0 + 3.0 * RAYLEIGH_GAP + 3.0 * res.stderr
        assert res.outer_corners[0] == res.outer_corners[1][::-1]

    @pytest.mark.parametrize("shape, k", [("rayleigh", None), ("gamma", 2.0)])
    def test_r2_and_corner_terms_draw_powers_not_complex_gains(self, shape, k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex gain was drawn where only |g|^2 is read")

        monkeypatch.setattr(ComplexGainSampler, "sample", refuse)
        ch = ChannelSpec.symmetric(100.0, 10.0, shape=shape, k=k)
        res = nphase_corner_gap(ch, RAYLEIGH_GAP, McConfig(samples=1000, seed=17))
        assert res.stderr > 0.0

    def test_corner_stderr_counts_the_full_power_term_once(self):
        ch = ChannelSpec.symmetric(100.0, 10.0, shape="gamma", k=2.0)
        cfg = McConfig(samples=20_000, seed=18)
        res = nphase_corner_gap(ch, 0.0, cfg)
        total = nphase_outer_region(ch, cfg).constraint("nphase_outer_sym3")
        assert res.stderr == math.hypot(total.bound_stderr, r2_rate(ch, cfg).stderr)

    def test_deterministic_corner_gap_is_two(self):
        ch = ChannelSpec.symmetric(100.0, 10.0, shape="deterministic")
        res = nphase_corner_gap(ch, 0.0, McConfig(samples=2, seed=15))
        assert res.gap_r1 == pytest.approx(2.0, abs=1e-9)
        assert res.per_user_gap <= 2.0 + 1e-9

    def test_outer_corner_against_quadrature(self):
        snr, inr = 100.0, 10.0
        ch = ChannelSpec.symmetric(snr, inr)
        res = nphase_corner_gap(ch, RAYLEIGH_GAP, McConfig(samples=400_000, seed=16))
        want_r1 = exp_e2(lambda d, c: np.log2(1 + d + c), snr, inr)
        assert res.outer_corners[0][0] == pytest.approx(want_r1, abs=0.01)

    def test_achieved_rate_past_the_float_limit_is_finite(self, monkeypatch):
        # the pentagon's own terms overflow at these powers, so its bounds
        # and r2 are stubbed: only the scheme's log2(1 + SNR + INR) is read
        ch = ChannelSpec.symmetric(1e308, 1e308, shape="deterministic")
        pentagon = RateRegion("nphase_outer_sym", (
            RateConstraint(1, 0, 1023.0, 0.0, "nphase_outer_sym1"),
            RateConstraint(1, 1, 2046.0, 0.0, "nphase_outer_sym3"),
        ))
        monkeypatch.setattr(afscheme, "nphase_outer_region", lambda ch, cfg: pentagon)
        monkeypatch.setattr(afscheme, "r2_rate", lambda ch, cfg: EstimateResult(1.0, 0.0))
        res = nphase_corner_gap(ch, 0.5, McConfig(samples=2, seed=15))
        want = 1.0 + math.log2(1e308) - 2.0 - 1.5
        assert res.achieved_corners[0][0] == pytest.approx(want, rel=1e-15)
        assert res.gap_r1 == pytest.approx(1023.0 - want, rel=1e-13)

    def test_log_one_plus_vs_clamped_log(self):
        x = np.geomspace(1e-6, 1e6, 2001)
        diff = np.log2(1.0 + x) - np.maximum(np.log2(x), 0.0)
        assert np.all(diff <= 1.0 + 1e-12)

    def test_pentagon_region_corner_consistency(self):
        # vertex (R1max, sum - R1max) of the pentagon is the corner the gap
        # analysis uses: both read the same estimates, so they agree up to the
        # rounding of sum - R1max
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=150_000, seed=19)
        region = nphase_outer_region(ch, cfg)
        res = nphase_corner_gap(ch, RAYLEIGH_GAP, cfg)
        r1max = region.constraint("nphase_outer_sym1").bound
        sumbound = region.constraint("nphase_outer_sym3").bound
        corner = res.outer_corners[0]
        assert r1max == corner[0]
        assert sumbound - r1max == pytest.approx(corner[1], rel=0.0, abs=4.0 * math.ulp(sumbound))
        assert any(
            abs(v[0] - r1max) < 1e-9 and abs(v[1] - (sumbound - r1max)) < 1e-9
            for v in region.vertices()
        )


class TestIsi:
    def test_degenerate_bounds(self):
        assert isi_bounds(0.0, 0.0, 0.0) == (-1.0, 1.0)

    def test_rayleigh_point(self):
        lower, upper = isi_bounds(100.0, 10.0, 0.83)
        assert lower == pytest.approx(math.log2(111.0) - 3.49)
        assert upper == pytest.approx(math.log2(111.0) + 1.0)
        assert upper - lower == pytest.approx(2.0 + 3.0 * 0.83, abs=1e-12)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            isi_bounds(-1.0, 0.0, 0.0)

    @pytest.mark.parametrize("snr, inr, c_jg", [
        (math.nan, 1.0, 0.0), (math.inf, 1.0, 0.0), (1.0, math.inf, 0.0),
        (1.0, 1.0, math.nan), (1.0, 1.0, -math.inf),
    ])
    def test_non_finite_input_rejected(self, snr, inr, c_jg):
        with pytest.raises(ValueError, match="must be finite"):
            isi_bounds(snr, inr, c_jg)

    @pytest.mark.parametrize("snr, inr", [(1e308, 1e308), (1.7e308, 1.7e308), (1e308, 0.0)])
    def test_sum_past_the_float_limit(self, snr, inr):
        # log2(1 + SNR + INR) in logs where the sum overflows: 1 is lost
        # beside SNR, and log2(SNR + INR) = log2(SNR) + log2(1 + INR / SNR)
        lower, upper = isi_bounds(snr, inr, 0.5)
        base = math.log2(snr) + math.log2(1.0 + inr / snr)
        assert upper == pytest.approx(base + 1.0, rel=1e-15)
        assert lower == pytest.approx(base - 2.5, rel=1e-15)

    def test_achievable_inside_sandwich(self):
        lower, upper = isi_bounds(100.0, 10.0, RAYLEIGH_GAP)
        est = isi_achievable_rate(100.0, 10.0, 128, McConfig(samples=20_000, seed=17))
        assert lower - 3.0 * est.stderr <= est.mean <= upper + 3.0 * est.stderr

    def test_achievable_deterministic_matches_toeplitz(self):
        # static 2-tap channel: growth approaches the same Toeplitz limit
        est = isi_achievable_rate(100.0, 10.0, 256, McConfig(samples=2, seed=18),
                                  shape="deterministic")
        a = 111.0
        b2 = 100.0 * 10.0
        closed = math.log2(a + math.sqrt(a * a - 4.0 * b2)) - 1.0
        assert abs(est.mean - closed) < 0.05
