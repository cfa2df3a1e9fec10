"""Seeded expectation engine: reproducibility, accuracy, error handling."""

import platform
import re
import resource
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from ffic import (
    ChannelSpec,
    ComplexGainSampler,
    EstimateResult,
    FadingModel,
    McConfig,
    estimate_expectation,
    expected_log_shifted,
    jensen_gap_numeric,
    nofb_outer,
    r2_rate,
    substream,
)
from ffic.afscheme import _log2_det
from ffic.mc import CHUNK, estimate_draws, parallel_map


def rayleigh_sampler(mean):
    return ComplexGainSampler(FadingModel.rayleigh(mean))


def power(g):
    return g.real**2 + g.imag**2


def chunk_draws(sampler, seed, samples, key=()):
    """Oracle layout: the draws of every chunk, concatenated in chunk order."""
    return np.concatenate([
        sampler.sample(substream(seed, key + (c,)), min(CHUNK, samples - c * CHUNK))
        for c in range(-(-samples // CHUNK))
    ])


class TestEstimateExpectation:
    def test_constant_integrand(self):
        est = estimate_expectation(
            lambda g: np.full(g.shape, 7.0), [rayleigh_sampler(5.0)],
            McConfig(samples=10_000, seed=0),
        )
        assert est.mean == 7.0
        assert est.stderr == 0.0
        assert est.samples == 10_000

    def test_constant_integrand_exact_at_any_sample_count(self):
        # an awkward constant at a non-power-of-two count must not leave
        # rounding residue in the mean or the standard error
        value = np.log2(1.0 + 1015.7312)
        est = estimate_expectation(
            lambda g: np.full(g.shape, value), [rayleigh_sampler(5.0)],
            McConfig(samples=2 * CHUNK + 999, seed=0),
        )
        assert est.mean == value
        assert est.stderr == 0.0

    def test_mean_power(self):
        est = estimate_expectation(
            power, [rayleigh_sampler(5.0)], McConfig(samples=1_000_000, seed=1)
        )
        assert abs(est.mean - 5.0) <= 0.02
        assert abs(est.mean - 5.0) <= 3.0 * est.stderr

    def test_log_rate_against_quadrature(self):
        # oracle: integral of log2(1+w) e^{-w/10}/10
        oracle, _ = quad(lambda w: np.log2(1 + w) * np.exp(-w / 10.0) / 10.0, 0, 400)
        est = estimate_expectation(
            lambda g: np.log2(1.0 + power(g)), [rayleigh_sampler(10.0)],
            McConfig(samples=500_000, seed=2),
        )
        assert abs(est.mean - oracle) <= 3.0 * est.stderr

    def test_two_gain_integrand(self):
        est = estimate_expectation(
            lambda a, b: power(a) + power(b),
            [rayleigh_sampler(2.0), rayleigh_sampler(3.0)],
            McConfig(samples=200_000, seed=3),
        )
        assert abs(est.mean - 5.0) <= 3.0 * est.stderr

    def test_sampler_count_limits(self):
        cfg = McConfig(samples=10, seed=0)
        with pytest.raises(ValueError):
            estimate_expectation(lambda: np.zeros(10), [], cfg)
        with pytest.raises(ValueError):
            estimate_expectation(
                lambda *g: np.zeros(10), [rayleigh_sampler(1.0)] * 5, cfg
            )

    def test_nonfinite_abort_reports_draw(self):
        cfg = McConfig(samples=10_000, seed=4)
        with np.errstate(invalid="ignore"), pytest.raises(
            ValueError, match=r"non-finite value nan at draw \d+, link draws \(\(.*j\),\)$"
        ):
            estimate_expectation(
                lambda g: np.log2(power(g) - 5.0), [rayleigh_sampler(1.0)], cfg
            )

    def test_stderr_stable_under_large_offset(self):
        # 1e8 + 1e-3 W: a one-pass sum of squares cancels catastrophically
        cfg = McConfig(samples=100_000, seed=7)
        sampler = rayleigh_sampler(1.0)
        est = estimate_expectation(lambda g: 1e8 + 1e-3 * power(g), [sampler], cfg)
        w = power(chunk_draws(sampler, 7, cfg.samples))
        want = np.std(1e-3 * w, ddof=1) / np.sqrt(cfg.samples)  # about 3.17e-6
        assert est.stderr == pytest.approx(want, rel=1e-6)

    def test_chunk_merge_matches_pooled_variance(self):
        cfg = McConfig(samples=3 * CHUNK + 17, seed=8)
        sampler = rayleigh_sampler(3.0)
        est = estimate_expectation(lambda g: 1e6 + power(g), [sampler], cfg)
        w = power(chunk_draws(sampler, 8, cfg.samples))
        want = np.std(w, ddof=1) / np.sqrt(cfg.samples)
        assert est.stderr == pytest.approx(want, rel=1e-9)
        assert est.mean == pytest.approx(1e6 + w.mean(), rel=1e-13)

    @pytest.mark.parametrize("samples", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_chunk_boundaries(self, samples):
        sampler = rayleigh_sampler(2.0)
        est = estimate_expectation(power, [sampler], McConfig(samples=samples, seed=9),
                                   stream_key=(3,))
        w = power(chunk_draws(sampler, 9, samples, key=(3,)))
        assert w.size == est.samples == samples
        assert est.mean == pytest.approx(w.mean(), rel=1e-13)
        want = np.std(w, ddof=1) / np.sqrt(samples) if samples > 1 else 0.0
        assert est.stderr == pytest.approx(want, rel=1e-9)

    def test_bad_output_shape(self):
        cfg = McConfig(samples=16, seed=5)
        with pytest.raises(ValueError, match="per draw"):
            estimate_expectation(lambda g: np.zeros(3), [rayleigh_sampler(1.0)], cfg)


class TestReproducibility:
    def test_bit_identical_reruns(self):
        cfg = McConfig(samples=100_000, seed=123)
        runs = [
            estimate_expectation(power, [rayleigh_sampler(2.0)], cfg)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("estimate", [
        lambda cfg: estimate_expectation(power, [rayleigh_sampler(2.0)], cfg, stream_key=(1,)),
        lambda cfg: estimate_expectation(np.log2, [FadingModel.weibull(2.0, 100.0)], cfg),
        lambda cfg: r2_rate(ChannelSpec.symmetric(100.0, 10.0, shape="gamma", k=2.0), cfg),
    ], ids=["estimate_expectation", "weibull-k2-powers", "r2_rate-gamma-k2"])
    def test_thread_count_does_not_change_result(self, estimate, monkeypatch):
        cfg = McConfig(samples=4 * CHUNK + 123, seed=6)
        results = []
        for threads in ("1", "2", "4"):  # 4 threads: more workers than most CI cores
            monkeypatch.setenv("FFIC_THREADS", threads)
            results.append(estimate(cfg))
        assert results[0] == results[1] == results[2]
        assert results[0].samples == cfg.samples and results[0].stderr > 0.0

    def test_stream_keys_are_independent(self):
        cfg = McConfig(samples=1000, seed=7)
        a = estimate_expectation(power, [rayleigh_sampler(1.0)], cfg, stream_key=(1,))
        b = estimate_expectation(power, [rayleigh_sampler(1.0)], cfg, stream_key=(2,))
        assert a.mean != b.mean

    def test_substream_deterministic(self):
        x = substream(99, (1, 2)).standard_normal(8)
        y = substream(99, (1, 2)).standard_normal(8)
        assert np.array_equal(x, y)

    def test_substream_is_sfc64_seeded_by_seed_sequence(self):
        # pins the stream layout: changing the generator changes every estimate
        ref = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy=99, spawn_key=(1, 2))))
        rng = substream(99, (1, 2))
        assert isinstance(rng.bit_generator, np.random.SFC64)
        assert np.array_equal(rng.bit_generator.random_raw(16),
                              ref.bit_generator.random_raw(16))

    def test_result_records_seed_and_samples(self):
        cfg = McConfig(samples=256, seed=11)
        est = estimate_expectation(power, [rayleigh_sampler(1.0)], cfg)
        assert est == EstimateResult(est.mean, est.stderr, 256, 11)


class TestChunkThreads:
    """Chunks that run on pool threads: errors and memory."""

    @pytest.fixture(autouse=True)
    def two_threads(self, monkeypatch):
        monkeypatch.setenv("FFIC_THREADS", "2")

    def test_nonfinite_on_worker_names_chunk_substream(self):
        # only the short last chunk, chunk 2, is non-finite
        threads = set()

        def f(w):
            threads.add(threading.get_ident())
            return np.where(w.size < CHUNK, np.nan, w)

        cfg = McConfig(samples=2 * CHUNK + 5, seed=4)
        with pytest.raises(ValueError, match=re.escape("in substream (5, 2): non-finite")):
            estimate_expectation(f, [FadingModel.rayleigh(1.0)], cfg, stream_key=(5,))
        assert threading.get_ident() not in threads

    def test_det_ratio_failure_on_worker_names_chunk_substream(self):
        threads = set()

        def draw(rng, n):
            threads.add(threading.get_ident())
            e = 2.0 if n < CHUNK else 0.0  # the ratio turns negative in chunk 2 only
            return np.full(n, _log2_det([(1.0, 0.0, 0.0), (1.0, e, 1.0)]))

        with pytest.raises(ValueError, match=re.escape("in substream (44, 2): non-positive")):
            estimate_draws(draw, McConfig(samples=2 * CHUNK + 7, seed=3), (44,))
        assert threading.get_ident() not in threads

    @pytest.mark.parametrize("bad, message", [
        (np.inf, "non-finite value inf at draw 3"),
        (np.nan, "non-finite value nan at draw 3"),
        (1e308, "non-finite sum of finite values"),
    ])
    def test_nonfinite_chunk_sum_names_substream(self, bad, message):
        # covers every estimator, not only estimate_expectation: chunk 1 of
        # CHUNK + 5 draws is the short one
        def draw(rng, n):
            out = rng.random(n)
            if n < CHUNK:
                out[3:] = bad
            return out

        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match=re.escape(f"in substream (45, 1): {message}")
        ):
            estimate_draws(draw, McConfig(samples=CHUNK + 5, seed=3), (45,))

    @pytest.mark.parametrize("samples", [1, CHUNK + 1, 2 * CHUNK - 1])
    def test_fewer_than_two_full_chunks_run_inline(self, samples):
        threads = set()

        def draw(rng, n):
            threads.add(threading.get_ident())
            return rng.random(n)

        estimate_draws(draw, McConfig(samples=samples, seed=1))
        assert threads == {threading.get_ident()}

    def test_pool_threads_run_their_chunks_inline(self):
        def item(seed):
            threads = set()

            def draw(rng, n):
                threads.add(threading.get_ident())
                return rng.random(n)

            estimate_draws(draw, McConfig(samples=4 * CHUNK, seed=seed))
            return threads, threading.get_ident()

        for threads, worker in parallel_map(item, [1, 2]):
            assert threads == {worker} != {threading.get_ident()}

    def test_peak_memory_does_not_grow_with_samples(self):
        def peak(samples):
            # Both threads hold a chunk at once in every run, so the two
            # peaks are taken at the same overlap; left to the scheduler,
            # the 4 chunks of the small run sometimes never overlap.
            barrier = threading.Barrier(2, timeout=30)

            def f(a, b):
                barrier.wait()
                return np.log2(1.0 + a + b)

            tracemalloc.start()
            try:
                estimate_expectation(f, [FadingModel.rayleigh(1.0)] * 2,
                                     McConfig(samples=samples, seed=2))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(2**22) <= 2.0 * peak(2**17)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's malloc thresholds")
def test_repeated_estimate_takes_almost_no_page_faults():
    # 8 chunks of complex gains and powers.  With glibc's dynamic mmap and
    # trim thresholds each such estimate faulted in about 1,800 fresh pages
    # on one thread; with the thresholds pinned at import, a warm heap
    # serves every chunk array.
    def f(g, w):
        return np.log2(1.0 + g.real**2 + g.imag**2 + w + 2.0 * np.sqrt(w) * g.real)

    samplers = [rayleigh_sampler(3.0), FadingModel.rayleigh(2.0)]
    cfg = McConfig(samples=8 * CHUNK, seed=5)
    estimate_expectation(f, samplers, cfg)  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        estimate_expectation(f, samplers, cfg)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class TestRows:
    """Several rows of per-draw values reduced from one draw."""

    @staticmethod
    def rows():
        return [lambda u: np.sqrt(u), lambda u: np.full(u.size, 2.5), lambda u: (u * u, (u,))]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_row_equals_its_lone_estimate(self, threads, monkeypatch):
        monkeypatch.setenv("FFIC_THREADS", threads)
        cfg, calls = McConfig(samples=3 * CHUNK + 11, seed=6), []

        def draw(rng, n):
            calls.append(n)
            return rng.random(n)

        got = estimate_draws(draw, cfg, (47,), rows=self.rows())
        assert sorted(calls) == [11, CHUNK, CHUNK, CHUNK]
        for row, est in zip(self.rows(), got, strict=True):
            assert est == estimate_draws(lambda rng, n: row(rng.random(n)), cfg, (47,))

    def test_constant_row_has_zero_stderr(self):
        # 2 * CHUNK + 7 draws: a summed mean would carry rounding residue
        root, const, square = estimate_draws(lambda rng, n: rng.random(n),
                                             McConfig(samples=2 * CHUNK + 7, seed=7),
                                             rows=self.rows())
        assert (const.mean, const.stderr) == (2.5, 0.0)
        assert root.stderr > 0.0 and square.stderr > 0.0

    def test_nonfinite_row_names_substream_and_row(self):
        # only row 2 of the short chunk, chunk 1, is non-finite
        rows = self.rows()[:2] + [lambda u: (np.where(u.size < CHUNK, np.inf, u), (u,))]
        with pytest.raises(ValueError, match=re.escape(
                "in substream (48, 1), row 2: non-finite value inf at draw 0, link draws (")):
            estimate_draws(lambda rng, n: rng.random(n),
                           McConfig(samples=CHUNK + 5, seed=8), (48,), rows=rows)


class TestIntegrandRows:
    """Several integrands over one set of samplers: one draw per chunk."""

    SAMPLERS = [rayleigh_sampler(3.0), FadingModel.gamma(2.0, 5.0)]

    @staticmethod
    def integrands():
        return [lambda g, w: np.log2(1.0 + power(g) + w), lambda g, w: np.full(w.size, 0.5),
                lambda g, w: np.sqrt(w) * g.real]

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_each_integrand_equals_its_lone_estimate(self, threads, monkeypatch):
        monkeypatch.setenv("FFIC_THREADS", threads)
        cfg, calls = McConfig(samples=2 * CHUNK + 9, seed=11), []
        real = ComplexGainSampler.sample

        def count(sampler, rng, size):
            calls.append(size)
            return real(sampler, rng, size)

        monkeypatch.setattr(ComplexGainSampler, "sample", count)
        got = estimate_expectation(self.integrands(), self.SAMPLERS, cfg, stream_key=(49,))
        assert sorted(calls) == [9, CHUNK, CHUNK]  # one draw per chunk for all three
        for f, est in zip(self.integrands(), got, strict=True):
            assert est == estimate_expectation(f, self.SAMPLERS, cfg, stream_key=(49,))
        assert (got[1].mean, got[1].stderr) == (0.5, 0.0)

    def test_nonfinite_integrand_names_its_row_and_draw(self):
        fs = self.integrands()[:1] + [lambda g, w: np.where(w.size < CHUNK, np.inf, w)]
        with pytest.raises(ValueError, match=re.escape(
                "in substream (50, 1), row 1: non-finite value inf at draw 0, link draws (")):
            estimate_expectation(fs, self.SAMPLERS, McConfig(samples=CHUNK + 5, seed=12),
                                 stream_key=(50,))

    def test_wrong_shape_names_its_row(self):
        fs = [lambda g, w: w, lambda g, w: np.zeros(3)]
        with pytest.raises(ValueError, match=r"row 1: integrand must return one real value"):
            estimate_expectation(fs, self.SAMPLERS, McConfig(samples=100, seed=13))


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0)
        with pytest.raises(ValueError):
            McConfig(seed=-1)


# A triangle pdf f(w) = w/2 on [0, 2]: a law that is drawn.
TRIANGLE = FadingModel.tabulated(np.linspace(0.0, 2.0, 21), np.linspace(0.0, 1.0, 21),
                                 envelope=(0.5, 2.0))
DEFAULT_BUDGET_CALLS = {
    "region": lambda **cfg: nofb_outer(
        ChannelSpec.symmetric(1e3, 30.0, shape="weibull", k=2.0), **cfg),
    "r2_rate": lambda **cfg: r2_rate(ChannelSpec.symmetric(100.0, 10.0, shape="gamma", k=2.0),
                                     **cfg),
    "expected_log_shifted": lambda **cfg: expected_log_shifted(TRIANGLE, 0.5, **cfg),
    "jensen_gap_numeric": lambda **cfg: jensen_gap_numeric(TRIANGLE, [0.0, 1.0], **cfg),
}


class TestDefaultBudget:
    """``estimate_draws`` alone turns ``cfg=None`` into ``McConfig()``, so an
    estimator reads the same with ``cfg`` omitted, ``None`` or the default."""

    @pytest.mark.parametrize("call", list(DEFAULT_BUDGET_CALLS))
    def test_omitted_none_and_default_read_the_same(self, call):
        fn = DEFAULT_BUDGET_CALLS[call]
        assert repr(fn()) == repr(fn(cfg=None)) == repr(fn(cfg=McConfig()))

    def test_default_is_decided_in_estimate_draws(self):
        est = estimate_draws(lambda rng, n: rng.random(n))
        assert (est.samples, est.seed) == (McConfig.samples, McConfig.seed)
        assert est == estimate_draws(lambda rng, n: rng.random(n), McConfig())

    def test_drew_nothing_is_the_default(self):
        assert EstimateResult(1.5, 0.25) == EstimateResult(1.5, 0.25, 0, 0)
        assert repr(EstimateResult(1.5, 0.25)) == (
            "EstimateResult(mean=1.5, stderr=0.25, samples=0, seed=0)")
