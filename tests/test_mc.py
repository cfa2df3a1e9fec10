"""Seeded expectation engine: reproducibility, accuracy, error handling."""

import numpy as np
import pytest
from scipy.integrate import quad

from ffic import (
    ComplexGainSampler,
    EstimateResult,
    FadingModel,
    McConfig,
    estimate_expectation,
    substream,
)


def rayleigh_sampler(mean):
    return ComplexGainSampler(FadingModel.rayleigh(mean))


def power(g):
    return g.real**2 + g.imag**2


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
            McConfig(samples=999, seed=0, partitions=3),
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
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            estimate_expectation(
                lambda g: np.log2(power(g) - 5.0), [rayleigh_sampler(1.0)], cfg
            )

    def test_stderr_stable_under_large_offset(self):
        # 1e8 + 1e-3 W: a one-pass sum of squares cancels catastrophically
        cfg = McConfig(samples=100_000, seed=7)
        sampler = rayleigh_sampler(1.0)
        est = estimate_expectation(lambda g: 1e8 + 1e-3 * power(g), [sampler], cfg)
        w = power(sampler.sample(substream(7, (0,)), cfg.samples))
        want = np.std(1e-3 * w, ddof=1) / np.sqrt(cfg.samples)  # about 3.17e-6
        assert est.stderr == pytest.approx(want, rel=1e-6)

    def test_partition_merge_matches_pooled_variance(self):
        cfg = McConfig(samples=10_001, seed=8, partitions=7)
        sampler = rayleigh_sampler(3.0)
        est = estimate_expectation(lambda g: 1e6 + power(g), [sampler], cfg)
        base, extra = divmod(cfg.samples, cfg.partitions)
        w = np.concatenate([
            power(sampler.sample(substream(8, (p,)), base + (p < extra)))
            for p in range(cfg.partitions)
        ])
        want = np.std(w, ddof=1) / np.sqrt(cfg.samples)
        assert est.stderr == pytest.approx(want, rel=1e-9)
        assert est.mean == pytest.approx(1e6 + w.mean(), rel=1e-13)

    def test_bad_output_shape(self):
        cfg = McConfig(samples=16, seed=5)
        with pytest.raises(ValueError, match="per draw"):
            estimate_expectation(lambda g: np.zeros(3), [rayleigh_sampler(1.0)], cfg)


class TestReproducibility:
    def test_bit_identical_reruns(self):
        cfg = McConfig(samples=100_000, seed=123, partitions=4)
        runs = [
            estimate_expectation(power, [rayleigh_sampler(2.0)], cfg)
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_partition_count_changes_layout_not_distribution(self):
        e1 = estimate_expectation(
            power, [rayleigh_sampler(2.0)], McConfig(samples=400_000, seed=6, partitions=1)
        )
        e4 = estimate_expectation(
            power, [rayleigh_sampler(2.0)], McConfig(samples=400_000, seed=6, partitions=4)
        )
        assert e1 != e4  # different sampling layout
        assert abs(e1.mean - e4.mean) <= 3.0 * (e1.stderr + e4.stderr)

    def test_stream_keys_are_independent(self):
        cfg = McConfig(samples=1000, seed=7)
        a = estimate_expectation(power, [rayleigh_sampler(1.0)], cfg, stream_key=(1,))
        b = estimate_expectation(power, [rayleigh_sampler(1.0)], cfg, stream_key=(2,))
        assert a.mean != b.mean

    def test_substream_deterministic(self):
        x = substream(99, (1, 2)).standard_normal(8)
        y = substream(99, (1, 2)).standard_normal(8)
        assert np.array_equal(x, y)

    def test_result_records_seed_and_samples(self):
        cfg = McConfig(samples=256, seed=11)
        est = estimate_expectation(power, [rayleigh_sampler(1.0)], cfg)
        assert est == EstimateResult(est.mean, est.stderr, 256, 11)


class TestMcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McConfig(samples=0)
        with pytest.raises(ValueError):
            McConfig(samples=10, partitions=11)
        with pytest.raises(ValueError):
            McConfig(seed=-1)

    def test_with_samples(self):
        cfg = McConfig(samples=100, seed=1, partitions=8).with_samples(4)
        assert cfg.samples == 4 and cfg.partitions == 4
