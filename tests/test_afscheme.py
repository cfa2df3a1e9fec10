"""n-phase scheme: determinant recursion, asymptotics, cancellation, corners, ISI."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import exp_e2

from ffic import (
    CancellationReport,
    ChannelSpec,
    ComplexGainSampler,
    McConfig,
    PhaseDraw,
    cancellation_check,
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

    @pytest.mark.parametrize("rate", [
        lambda cfg: r1_rate(ChannelSpec.symmetric(100.0, 10.0), 8, cfg),
        lambda cfg: ky1_growth(ChannelSpec.symmetric(100.0, 10.0), 8, cfg),
        lambda cfg: isi_achievable_rate(100.0, 10.0, 8, cfg, shape="gamma", k=2.0),
    ], ids=["r1_rate", "ky1_growth", "isi_achievable_rate"])
    def test_recursions_never_draw_complex_gains(self, rate, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex gain was drawn for a determinant recursion")

        monkeypatch.setattr(ComplexGainSampler, "sample", refuse)
        assert rate(McConfig(samples=1000, seed=14)).stderr > 0.0

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
        oracle, _ = quad(
            lambda w: np.log2(w / (1.0 + inr)) * np.exp(-w / snr) / snr,
            1.0 + inr, 60.0 * snr,
        )
        ch = ChannelSpec.symmetric(snr, inr)
        est = r2_rate(ch, McConfig(samples=400_000, seed=13))
        assert abs(est.mean - oracle) <= 3.0 * est.stderr


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

    def test_log_one_plus_vs_clamped_log(self):
        x = np.geomspace(1e-6, 1e6, 2001)
        diff = np.log2(1.0 + x) - np.maximum(np.log2(x), 0.0)
        assert np.all(diff <= 1.0 + 1e-12)

    def test_pentagon_region_corner_consistency(self):
        # vertex (R1max, sum - R1max) of the pentagon equals the corner the
        # gap analysis uses, up to Monte Carlo noise
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=150_000, seed=19)
        region = nphase_outer_region(ch, cfg)
        res = nphase_corner_gap(ch, RAYLEIGH_GAP, cfg)
        r1max = region.constraint("nphase_outer_sym1").bound
        sumbound = region.constraint("nphase_outer_sym3").bound
        corner = res.outer_corners[0]
        assert r1max == pytest.approx(corner[0], abs=0.02)
        assert sumbound - r1max == pytest.approx(corner[1], abs=0.02)
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
