"""Rate-region construction, geometry, and gap certification."""

import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from conftest import cos_avg_e1, cos_avg_e2, exp_e1, exp_e2, exp_e3

from ffic import (
    ChannelSpec,
    ComplexGainSampler,
    EstimateResult,
    FadingModel,
    McConfig,
    RateConstraint,
    RateRegion,
    SplitParams,
    expected_log_shifted,
    fb_inner,
    fb_outer,
    imac_regions,
    nofb_achievable,
    nofb_inner,
    nofb_outer,
    nphase_corner_gap,
    nphase_outer_region,
    region_gap,
    static_equivalent,
    substream,
    symmetric_sweep,
)
from ffic.mc import CHUNK, estimate_expectation
from ffic.regions import (
    _coh, _Draw, _exact_term, _gain, _laplace, _law, _log, _log_arg, _plan, _r, _shift_to_enter,
    _w,
)

L2 = np.log2
RAYLEIGH_GAP = float(np.euler_gamma) * math.log2(math.e)


def estimate_term(law, cfg, stream_key):
    """(mean, stderr) of the expectation with law ``law``, estimated alone on
    substream ``stream_key``, as a region build estimates it."""
    plan = _plan(law, _exact_term)
    if not isinstance(plan, _Draw):
        return plan, 0.0
    (est,) = estimate_expectation([plan.f], plan.samplers, cfg, stream_key=stream_key)
    return (est.mean if plan.base is None else plan.base + est.mean), est.stderr


def det_spec(snr, inr, snr2=None, inr2=None):
    return ChannelSpec.from_mean_powers(
        snr, snr if snr2 is None else snr2, inr, inr if inr2 is None else inr2,
        shape="deterministic",
    )


def tiny_cfg(seed=0):
    return McConfig(samples=4, seed=seed)


def unit(kappa):
    """The unit-scale law of G ~ Gamma(kappa, 1), for ``_laplace``'s pairs."""
    return FadingModel.gamma(kappa, kappa)


class TestChannelSpec:
    def test_symmetric_mean_powers(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        assert (ch.snr1, ch.snr2, ch.inr1, ch.inr2) == (100.0, 100.0, 10.0, 10.0)
        assert ch.is_symmetric()

    def test_asymmetric(self):
        ch = ChannelSpec.from_mean_powers(10.0, 20.0, 1.0, 2.0)
        assert (ch.snr1, ch.snr2, ch.inr1, ch.inr2) == (10.0, 20.0, 1.0, 2.0)
        assert (ch.g11, ch.g21, ch.g22, ch.g12) == tuple(
            FadingModel.rayleigh(p) for p in (10.0, 2.0, 20.0, 1.0))
        assert not ch.is_symmetric()

    def test_positive_powers_required(self):
        with pytest.raises(ValueError):
            ChannelSpec.symmetric(0.0, 1.0)


class TestSplitParams:
    def test_no_feedback_saturation(self):
        ch = ChannelSpec.symmetric(15.0, 0.5, shape="deterministic")
        sp = SplitParams.no_feedback(ch)
        assert sp.lambda_p1 == 1.0 == sp.lambda_p2

    def test_no_feedback_inverse_inr(self):
        ch = ChannelSpec.symmetric(100.0, 8.0)
        sp = SplitParams.no_feedback(ch)
        assert sp.lambda_p1 == 0.125

    def test_feedback_split(self):
        ch = ChannelSpec.symmetric(100.0, 2.0)
        sp = fb_inner(ch, cmath.rect(0.9, 1.0), tiny_cfg()).params
        assert sp.lambda_p1 == pytest.approx(1.0 - 0.81)


class TestStreamFamilies:
    def test_kind_stream_families_are_pinned(self):
        # Each region kind owns one substream family; renumbering one
        # changes that kind's random stream, so it must be deliberate.
        from ffic.regions import _KIND_STREAM

        assert _KIND_STREAM == {
            "nofb_inner": 16, "nofb_outer": 17, "nofb_achievable": 18,
            "fb_inner": 19, "fb_outer": 20, "imac_inner": 21, "imac_outer": 22,
            "static_inner": 23, "nphase_outer_sym": 24,
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown region kind"):
            RateRegion(kind="static_outer", constraints=())


WEIGHT = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
COORD = st.floats(0.0, 10.0)


def clamped_path_shift(v, region):
    """Oracle: the smallest t >= 0 with clamp(v - t*(1, 1)) in the region by
    ``RateRegion.contains``, bisected; at t = max(v) the point is the
    origin, which every clamped bound admits."""
    def inside(t):
        return region.contains(max(v[0] - t, 0.0), max(v[1] - t, 0.0))

    if inside(0.0):
        return 0.0
    lo, hi = 0.0, max(v)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if inside(mid) else (mid, hi)
    return hi


class TestRegionGeometry:
    def region(self, bounds):
        cons = tuple(
            RateConstraint(c1, c2, b, 0.0, f"outer_nofb{i+1}")
            for i, (c1, c2, b) in enumerate(bounds)
        )
        return RateRegion(kind="nofb_outer", constraints=cons)

    def test_vertices_of_pentagon(self):
        reg = self.region([(1, 0, 2.0), (0, 1, 2.0), (1, 1, 3.0)])
        assert sorted(reg.vertices()) == [
            (0.0, 0.0), (0.0, 2.0), (1.0, 2.0), (2.0, 0.0), (2.0, 1.0),
        ]
        assert reg.symmetric_rate() == 1.5

    def test_negative_bounds_clamp_to_origin(self):
        reg = self.region([(1, 0, -1.0), (0, 1, -2.0), (1, 1, -0.5)])
        assert reg.vertices() == [(0.0, 0.0)]
        assert reg.symmetric_rate() == 0.0

    def test_contains(self):
        reg = self.region([(1, 0, 2.0), (0, 1, 2.0), (1, 1, 3.0)])
        assert reg.contains(1.0, 1.9)
        assert not reg.contains(1.5, 1.9)

    def test_contains_scales_tolerance_like_vertices(self):
        # Bounds near 100 bits, as at SNR 1e15: the slack is 1e-9 of the
        # largest bound, for contains() as for vertices().
        reg = self.region([(1, 0, 100.0), (0, 1, 100.0), (1, 1, 150.0)])
        assert reg.contains(50.0 + 5e-8, 100.0)
        assert not reg.contains(50.0 + 1e-6, 100.0)

    def test_every_vertex_contained_at_snr_1e15(self):
        ch = ChannelSpec.symmetric(1e15, 1e15)
        for reg in (nofb_outer(ch), nofb_inner(ch), *imac_regions(ch)):
            assert max(c.bound for c in reg.constraints) > 95.0
            assert all(reg.contains(*v) for v in reg.vertices()), reg.kind

    def test_duplicate_labels_rejected(self):
        cons = (RateConstraint(1, 0, 1.0, 0.0, "outer_nofb1"),) * 2
        with pytest.raises(ValueError, match="unique"):
            RateRegion(kind="nofb_outer", constraints=cons)

    def test_hand_computed_vertex_gap(self):
        outer = self.region([(1, 0, 3.0), (0, 1, 0.5)])
        inner = RateRegion(
            kind="nofb_inner",
            constraints=(
                RateConstraint(1, 0, 1.0, 0.0, "inner_nofb1"),
                RateConstraint(0, 1, 0.4, 0.0, "inner_nofb2"),
            ),
        )
        gap = region_gap(outer, inner)
        # vertex (3, 0.5): R1 needs a shift of 2; R2 is satisfied once clamped
        assert gap.delta_vertex == pytest.approx(2.0)

    def test_identical_regions_have_zero_gap(self):
        outer = self.region([(1, 0, 2.0), (0, 1, 2.0), (1, 1, 3.0)])
        inner = RateRegion(
            kind="nofb_inner",
            constraints=tuple(
                RateConstraint(c.c1, c.c2, c.bound, 0.0, c.label.replace("outer", "inner"))
                for c in outer.constraints
            ),
        )
        gap = region_gap(outer, inner)
        assert gap.delta_vertex == 0.0
        assert all(d == 0.0 for _, d, _ in gap.per_constraint)

    def test_mismatched_kinds_rejected(self):
        outer = self.region([(1, 0, 2.0)])
        bad = RateRegion(
            kind="fb_inner",
            constraints=(RateConstraint(1, 0, 1.0, 0.0, "inner_fb1"),),
        )
        with pytest.raises(ValueError, match="mismatched"):
            region_gap(outer, bad)

    @pytest.mark.parametrize("c1, c2", [(0, 0), (-1, 1), (1, -0.5), (math.nan, 1),
                                        (1, math.inf), (0.0, -0.0)])
    def test_rate_weights_must_be_finite_nonnegative_and_not_both_zero(self, c1, c2):
        with pytest.raises(ValueError, match="rate weights"):
            RateConstraint(c1, c2, 1.0, 0.0, "c")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(WEIGHT, WEIGHT, st.floats(-1.0, 10.0))
                    .filter(lambda c: c[0] + c[1] > 0), min_size=1, max_size=7),
           st.one_of(st.tuples(COORD, COORD), COORD.map(lambda x: (x, x))))
    # the weight on the smaller coordinate only, its bound clamped to 0:
    # (1.5 * 2.9607) / 1.5 rounds above 2.9607, and the shift divided 0 by 0
    @example([(0.0, 1.5, 0.0)], (4.0, 2.9607))
    @example([(0.0, 1.5, -0.5)], (2.9607, 2.9607))
    def test_vertex_shift_matches_a_bisection_along_the_clamped_path(self, rows, v):
        region = RateRegion(kind="nofb_inner", constraints=tuple(
            RateConstraint(c1, c2, b, 0.0, f"c{i}") for i, (c1, c2, b) in enumerate(rows)))
        got = max(_shift_to_enter(v, c) for c in region.constraints)
        want = clamped_path_shift(v, region)
        # contains() admits 1e-9 of the largest bound, which moves the
        # shift by at most that over the smallest non-zero weight, 1e-3
        slack = 1e-9 * max([1.0] + [c.clamped_bound for c in region.constraints]) / 1e-3
        assert want - 1e-12 <= got <= want + slack


class TestNofbRegions:
    def test_deterministic_inner_closed_form(self):
        # SNR = 15, INR = 1 saturates lambda_p2 at 1: R1 <= log2(17) - 1
        reg = nofb_inner(det_spec(15.0, 1.0), tiny_cfg())
        c = reg.constraint("inner_nofb1")
        assert (c.c1, c.c2) == (1, 0)
        assert c.bound == pytest.approx(math.log2(17.0) - 1.0, abs=1e-12)
        assert c.bound_stderr == 0.0

    def test_degenerate_powers_clamp_to_origin(self):
        reg = nofb_inner(det_spec(1e-9, 1e-9), tiny_cfg())
        assert all(c.bound < 0.0 for c in reg.constraints)
        assert reg.vertices() == [(0.0, 0.0)]

    def test_interference_free_outer(self):
        reg = nofb_outer(det_spec(4.0, 1e-12), tiny_cfg())
        assert reg.constraint("outer_nofb1").bound == pytest.approx(math.log2(5.0))
        assert reg.constraint("outer_nofb3").bound == pytest.approx(2.0 * math.log2(5.0))

    def test_rayleigh_constraints_match_quadrature(self):
        snr, inr = 1e3, 10.0**1.5
        lam = 1.0 / inr
        ch = ChannelSpec.symmetric(snr, inr)
        reg = nofb_inner(ch, McConfig(samples=400_000, seed=31))
        oracle = {
            "inner_nofb1": exp_e2(lambda d, c: L2(1 + d + lam * c), snr, inr) - 1,
            "inner_nofb3": exp_e2(lambda d, c: L2(1 + d + c), snr, inr)
            + exp_e2(lambda d, c: L2(1 + lam * d + lam * c), snr, inr) - 2,
            "inner_nofb5": 2 * exp_e2(lambda d, c: L2(1 + lam * d + c), snr, inr) - 2,
            "inner_nofb6": exp_e2(lambda d, c: L2(1 + d + c), snr, inr)
            + exp_e2(lambda d, c: L2(1 + lam * d + c), snr, inr)
            + exp_e2(lambda d, c: L2(1 + lam * d + lam * c), snr, inr) - 3,
        }
        for label, want in oracle.items():
            c = reg.constraint(label)
            assert abs(c.bound - want) <= 3.0 * c.bound_stderr + 1e-9, label

    def test_rayleigh_outer_matches_quadrature(self):
        snr, inr = 1e3, 10.0**1.5
        ch = ChannelSpec.symmetric(snr, inr)
        reg = nofb_outer(ch, McConfig(samples=400_000, seed=32))
        oracle = {
            "outer_nofb1": exp_e1(lambda d: L2(1 + d), snr),
            "outer_nofb3": exp_e2(lambda d, c: L2(1 + d + c), snr, inr)
            + exp_e2(lambda d, c: L2(1 + d / (1 + c)), snr, inr),
            "outer_nofb5": 2 * exp_e3(
                lambda c2, d, c1: L2(1 + c2 + d / (1 + c1)), inr, snr, inr
            ),
        }
        for label, want in oracle.items():
            c = reg.constraint(label)
            assert abs(c.bound - want) <= 3.0 * c.bound_stderr + 1e-9, label

    def test_outer_contains_inner_random_specs(self):
        rng = substream(77, (0,))
        cfg = McConfig(samples=30_000, seed=33)
        for _ in range(5):
            snr = 10.0 ** rng.uniform(0.5, 5.0)
            inr = 10.0 ** rng.uniform(0.0, 4.0)
            ch = ChannelSpec.symmetric(snr, inr)
            inner = nofb_inner(ch, cfg)
            outer = nofb_outer(ch, cfg)
            for v in inner.vertices():
                assert outer.contains(v[0], v[1], stderr_mult=3.0), (snr, inr)

    def test_achievable_contains_worst_cased_inner(self):
        ch = ChannelSpec.symmetric(300.0, 20.0)
        cfg = McConfig(samples=100_000, seed=34)
        tight = nofb_achievable(ch, cfg)
        loose = nofb_inner(ch, cfg)
        for ct, cl in zip(tight.constraints, loose.constraints):
            slack = 3.0 * math.hypot(ct.bound_stderr, cl.bound_stderr)
            assert ct.bound >= cl.bound - slack

    def test_monotone_in_mean_power_when_saturated(self):
        # deterministic, INR <= 1 keeps lambda = 1 in both specs
        lo = nofb_inner(det_spec(10.0, 0.5), tiny_cfg())
        hi_snr = nofb_inner(det_spec(20.0, 0.5), tiny_cfg())
        hi_inr = nofb_inner(det_spec(10.0, 0.9), tiny_cfg())
        for a, b, c in zip(lo.constraints, hi_snr.constraints, hi_inr.constraints):
            assert b.bound >= a.bound - 1e-12
            assert c.bound >= a.bound - 1e-12

    def test_nofb_gap_certificate_one_point(self):
        ch = ChannelSpec.symmetric(1e3, 10.0**1.5)
        cfg = McConfig(samples=150_000, seed=35)
        gap = region_gap(nofb_outer(ch, cfg), nofb_inner(ch, cfg))
        assert gap.delta_vertex <= RAYLEIGH_GAP + 1.0 + 3.0 * gap.delta_vertex_stderr
        assert gap.delta_vertex <= gap.max_weighted_delta + 1e-12


class TestFbRegions:
    def test_rho_zero_collapse(self, monkeypatch):
        # at rho = 0 the drawn phase difference is exactly 0, so inner_fb1 is
        # the exact phase-free term less its constant, bit for bit
        ch = ChannelSpec.symmetric(100.0, 10.0)
        calls, sample = [], ComplexGainSampler.sample

        def spy(sampler, rng, size):
            calls.append(size)
            return sample(sampler, rng, size)

        monkeypatch.setattr(ComplexGainSampler, "sample", spy)
        c = fb_inner(ch, 0.0, McConfig(samples=50_000, seed=36)).constraint("inner_fb1")
        assert c.bound == _exact_term(_law(_log(_w("g11"), _w("g21")), ch)) - 1.0
        assert c.bound_stderr == 0.0
        # The gains are still drawn: the benchmark's traced gate requires the
        # sampler's span until its layers are declared by role (ROADMAP item 1).
        assert sum(calls) == 50_000

    def test_theta_invariant_at_rho_zero(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=20_000, seed=37)
        a = fb_inner(ch, 0.0, cfg)
        b = fb_inner(ch, cmath.rect(0.0, 5.0), cfg)
        for ca, cb in zip(a.constraints, b.constraints):
            assert ca.bound == cb.bound

    def test_deterministic_real_gain_plug_in(self):
        # SNR=9, INR=4, rho=1, theta=0: log2(9 + 4 + 2*6 + 1) - 1
        ch = det_spec(9.0, 4.0)
        reg = fb_inner(ch, 1.0, tiny_cfg())
        assert reg.constraint("inner_fb1").bound == pytest.approx(
            math.log2(26.0) - 1.0, abs=1e-12
        )

    def test_outer_rho_zero_collapse(self):
        snr, inr = 100.0, 10.0
        ch = ChannelSpec.symmetric(snr, inr)
        reg = fb_outer(ch, 0.0, McConfig(samples=400_000, seed=38))
        want = exp_e1(lambda c: L2(1 + c), inr) + exp_e2(
            lambda d, c: L2(1 + d / (1 + c)), snr, inr
        )
        c = reg.constraint("outer_fb2")
        assert abs(c.bound - want) <= 3.0 * c.bound_stderr + 1e-9

    def test_outer_full_correlation_kills_r1(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        reg = fb_outer(ch, 1.0, McConfig(samples=10_000, seed=39))
        assert reg.constraint("outer_fb2").bound == 0.0

    def test_outer_rho_magnitude_limit(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        with pytest.raises(ValueError, match="rho"):
            fb_outer(ch, 1.5, tiny_cfg())

    def test_constraints_match_phase_averaged_quadrature(self):
        snr, inr, rho = 100.0, 10.0, 0.5
        ch = ChannelSpec.symmetric(snr, inr)
        cfg = McConfig(samples=400_000, seed=40)
        inner = fb_inner(ch, complex(rho), cfg)
        outer = fb_outer(ch, complex(rho), cfg)
        l1, l2 = inner.params.lambda_p1, inner.params.lambda_p2
        com = 1 - rho**2
        priv = exp_e2(lambda d, c: L2(1 + l1 * d + l2 * c), snr, inr)
        coh_in = cos_avg_e2(lambda d, c: (1 + d + c, 2 * rho**2 * np.sqrt(d * c)), snr, inr)
        coh_out = cos_avg_e2(lambda d, c: (1 + d + c, 2 * rho * np.sqrt(d * c)), snr, inr)
        ratio = exp_e2(lambda d, c: L2(1 + com * d / (1 + com * c)), snr, inr)
        oracle_inner = {
            "inner_fb1": coh_in - 1,
            "inner_fb2": exp_e1(lambda c: L2(1 + com * c), inr) + priv - 2,
            "inner_fb5": coh_in + priv - 2,
        }
        oracle_outer = {
            "outer_fb1": coh_out,
            "outer_fb2": exp_e1(lambda c: L2(1 + com * c), inr) + ratio,
            "outer_fb5": coh_out + ratio,
        }
        for reg, oracle in ((inner, oracle_inner), (outer, oracle_outer)):
            for label, want in oracle.items():
                c = reg.constraint(label)
                assert abs(c.bound - want) <= 3.0 * c.bound_stderr + 1e-9, label

    def test_matched_pair_required(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=5_000, seed=41)
        outer = fb_outer(ch, 0.5, cfg)
        inner = fb_inner(ch, 0.3, cfg)
        with pytest.raises(ValueError, match="matched"):
            region_gap(outer, inner)

    def test_fb_gap_certificate_one_point(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=150_000, seed=42)
        rho = 0.7
        outer = fb_outer(ch, complex(rho), cfg)
        inner = fb_inner(ch, complex(rho), cfg)
        gap = region_gap(outer, inner)
        assert gap.delta_vertex <= RAYLEIGH_GAP + 2.0 + 3.0 * gap.delta_vertex_stderr


class TestImacRegions:
    def test_lambda_saturation_full_power_form(self):
        # INR1 <= 1: lambda_p1 = 1, so the split term carries full power
        ch = det_spec(15.0, 0.5)
        inner, _ = imac_regions(ch, tiny_cfg())
        c = inner.constraint("inner_IMA5")
        want = math.log2(1 + 15.0 + 0.5) + math.log2(1 + 15.0) - 1.0
        assert c.bound == pytest.approx(want, abs=1e-12)

    def test_single_user_bound_matches_quadrature(self):
        snr, inr = 1e3, 10.0**1.5
        ch = ChannelSpec.symmetric(snr, inr)
        inner, _ = imac_regions(ch, McConfig(samples=400_000, seed=43))
        c = inner.constraint("inner_IMA1")
        want = exp_e1(lambda d: L2(1 + d), snr)
        assert abs(c.bound - want) <= 3.0 * c.bound_stderr + 1e-9

    def test_imac_gap_certificate_one_point(self):
        ch = ChannelSpec.symmetric(1e3, 10.0**1.5)
        inner, outer = imac_regions(ch, McConfig(samples=150_000, seed=44))
        gap = region_gap(outer, inner)
        bound = 1.0 + RAYLEIGH_GAP / 2.0
        assert gap.delta_vertex <= bound + 3.0 * gap.delta_vertex_stderr


class TestStaticEquivalent:
    def test_deterministic_channel_is_its_own_static(self):
        ch = det_spec(50.0, 5.0)
        static = static_equivalent(ch)
        fading = nofb_inner(ch, tiny_cfg())
        assert static.kind == "static_inner"
        for sc, fc in zip(static.constraints, fading.constraints):
            assert sc.bound == fc.bound
            assert sc.label == fc.label

    def test_nofb_within_twice_gap_per_rate(self):
        ch = ChannelSpec.symmetric(1e3, 10.0**1.5)
        cfg = McConfig(samples=200_000, seed=45)
        fading = nofb_inner(ch, cfg)
        static = static_equivalent(ch)
        for fc, sc in zip(fading.constraints, static.constraints):
            d = (sc.bound - fc.bound) / fc.weight
            slack = 3.0 * fc.bound_stderr / fc.weight
            assert -slack <= d <= 2.0 * RAYLEIGH_GAP + slack, fc.label

    def test_single_log_constraints_within_raw_bracket(self):
        # constraints with one log term obey the raw two-application bound
        ch = ChannelSpec.symmetric(1e3, 10.0**1.5)
        cfg = McConfig(samples=200_000, seed=46)
        fading = nofb_inner(ch, cfg)
        static = static_equivalent(ch)
        for label in ("inner_nofb1", "inner_nofb2"):
            fc, sc = fading.constraint(label), static.constraint(label)
            slack = 3.0 * fc.bound_stderr
            assert sc.bound - 2.0 * RAYLEIGH_GAP - slack <= fc.bound <= sc.bound + slack

    def test_fb_constraint_within_thrice_gap(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=200_000, seed=47)
        rho = 0.5
        fading = fb_inner(ch, complex(rho), cfg)
        static = static_equivalent(ch, complex(rho))
        fc, sc = fading.constraint("inner_fb2"), static.constraint("inner_fb2")
        slack = 3.0 * fc.bound_stderr
        assert abs(sc.bound - fc.bound) <= 3.0 * RAYLEIGH_GAP + slack

    @pytest.mark.parametrize("rho", [None, cmath.rect(0.5, 1.0)], ids=["nofb", "fb"])
    def test_region_gap_reads_static_pair_per_constraint(self, rho):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=5_000, seed=48)
        fading = nofb_inner(ch, cfg) if rho is None else fb_inner(ch, rho, cfg)
        static = static_equivalent(ch, rho)
        gap = region_gap(static, fading)
        for (label, d, se), sc, fc in zip(gap.per_constraint, static.constraints,
                                          fading.constraints, strict=True):
            assert label == sc.label == fc.label
            assert d == (sc.bound - fc.bound) / fc.weight
            assert se == fc.bound_stderr / fc.weight

    def test_region_gap_rejects_uncertified_pairs(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=2_000, seed=49)
        pairs = [
            (static_equivalent(ch), imac_regions(ch, cfg)[0]),
            (nofb_outer(ch, cfg), fb_inner(ch, 0.5, cfg)),
            (nofb_outer(ch, cfg), nofb_outer(ch, cfg)),
        ]
        for upper, lower in pairs:
            with pytest.raises(ValueError, match="mismatched region kinds"):
                region_gap(upper, lower)
        with pytest.raises(ValueError, match="matched pair"):  # rho 0.5 against 0.3
            region_gap(static_equivalent(ch, 0.5), fb_inner(ch, 0.3, cfg))

    def test_deterministic_terms_never_reach_monte_carlo(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a deterministic term was sampled")

        monkeypatch.setattr("ffic.regions.estimate_expectation", refuse)
        monkeypatch.setattr("ffic.afscheme.estimate_expectation", refuse)
        ch = det_spec(50.0, 5.0)
        cfg = McConfig(samples=1000, seed=50)
        regions = [
            nofb_inner(ch, cfg),
            nofb_outer(ch, cfg),
            nofb_achievable(ch, cfg),
            fb_inner(ch, cmath.rect(0.5, 1.0), cfg),
            fb_outer(ch, cmath.rect(0.5, 1.0), cfg),
            *imac_regions(ch, cfg),
            nphase_outer_region(ch, cfg),
            static_equivalent(ch),
            static_equivalent(ch, cmath.rect(0.5, 1.0)),
        ]
        for reg in regions:
            assert all(c.bound_stderr == 0.0 for c in reg.constraints)
        assert nphase_corner_gap(ch, 0.0, cfg).stderr == 0.0


# Powers from 1e-300 to the float limit, where a float sum of a static term's parts
# would overflow.
POWERS = (1e-300, 1e-5, 0.5, 1.0, 3.0, 1e3, 1e16, 1e17, 1e100, 1e300, 1e304, 1e306,
          1e308, float(np.finfo(float).max))


def static_bits(term, wx, wy):
    """The plug-in value of ``term`` with W11 = W22 = wx and W21 = W12 = wy."""
    return _plan(_law(term, det_spec(wx, wy)), _exact_term)


class TestStaticTerm:
    """Each term shape on static links against mpmath, from tiny powers to the
    float limit: one form per shape serves them all."""

    @staticmethod
    def check(term, arg, pairs=tuple((x, y) for x in POWERS for y in POWERS)):
        """``term``'s plug-in value at each pair of powers, within 1e-12
        relative of log2 ``arg(wx, wy)``, which mpmath takes with every digit of
        1 + W at W = 1e308."""
        mp = pytest.importorskip("mpmath")
        for wx, wy in pairs:
            with mp.workdps(400):
                want = float(mp.log(arg(mp.mpf(wx), mp.mpf(wy)), 2))
            got = static_bits(term, wx, wy)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (wx, wy)

    def test_sum(self):
        self.check(_log(_w("g11"), _w("g21"), _w("g12", 0.5)), lambda x, y: 1 + x + 1.5 * y)

    def test_ratio(self):
        self.check(_log(_r("g11", "g21")), lambda x, y: 1 + x / (1 + y))
        self.check(_log(_w("g21"), _r("g11", "g12", 0.5)), lambda x, y: 1 + y + x / (2 + y))

    def test_gain(self):
        self.check(_gain("g11", "g21"), lambda x, y: 1 + 2 * (x * y).sqrt() / (1 + x + y))

    @pytest.mark.parametrize("c", [-1.0, -0.7, 0.0, 0.7, 1.0])
    def test_coherent(self, c):
        self.check(_coh("g11", "g21", c), lambda x, y: 1 + x + y + 2 * c * (x * y).sqrt())

    @pytest.mark.parametrize("w", [1e16, 1e17, 1e100, 1e300])
    def test_coherent_at_c_minus_one_and_equal_powers_is_zero(self, w):
        # 1 + W + W - 2W = 1.  At 1e17 and 1e300 g = sqrt(W) squares to another
        # float than W, so a sum of W and g g less 2 g g would leave an ulp of W
        assert static_bits(_coh("g11", "g21", -1.0), w, w) == 0.0


RHO = cmath.rect(0.5, 1.0)
BUILDERS = {
    "nofb_inner": nofb_inner,
    "nofb_outer": nofb_outer,
    "nofb_achievable": nofb_achievable,
    "fb_inner": lambda ch, cfg=None: fb_inner(ch, RHO, cfg),
    "fb_outer": lambda ch, cfg=None: fb_outer(ch, RHO, cfg),
    "imac": imac_regions,
}


# The pairs of constraints that mirror each other (receivers 1 and 2 swapped).
MIRRORS = {
    "nofb_inner": [("inner_nofb1", "inner_nofb2"), ("inner_nofb3", "inner_nofb4"),
                   ("inner_nofb6", "inner_nofb7")],
    "nofb_outer": [("outer_nofb1", "outer_nofb2"), ("outer_nofb3", "outer_nofb4"),
                   ("outer_nofb6", "outer_nofb7")],
    "fb_inner": [("inner_fb1", "inner_fb3"), ("inner_fb2", "inner_fb4"),
                 ("inner_fb5", "inner_fb6")],
    "fb_outer": [("outer_fb1", "outer_fb3"), ("outer_fb2", "outer_fb4"),
                 ("outer_fb5", "outer_fb6")],
    "imac": [("outer_IMA1", "outer_IMA2")],  # only transmitter 1 splits its power
}
MIRRORS["nofb_achievable"] = MIRRORS["nofb_inner"]


def declared_and_estimated(build, ch, monkeypatch):
    """The law of each distinct term, signs dropped, that the regions of
    ``build(ch)`` declare, and the laws it hands to ``_plan``, in order.
    Two distinct terms that share a law stay two declared laws, so a build
    that merges them hands over one law fewer."""
    from ffic import regions

    declared, estimated = [], []
    real_build, real_plan = regions._build_region, regions._plan

    def build_spy(kind, ch, variants, cfg):
        terms = dict.fromkeys(t._replace(sign=1.0) for defs, _, _ in variants
                              for _, _, _, ts, _ in defs for t in ts)
        declared.extend(_law(t, ch) for t in terms)
        return real_build(kind, ch, variants, cfg)

    def plan_spy(law, exact):
        estimated.append(law)
        return real_plan(law, exact)

    with monkeypatch.context() as m:
        m.setattr(regions, "_build_region", build_spy)
        m.setattr(regions, "_plan", plan_spy)
        build(ch)
    return declared, estimated


class TestTermEvaluation:
    """Power-domain draws and once-per-build estimation of repeated terms.

    On Weibull k = 2 links, where every fading term is drawn: on Gamma
    links only the coherent ones are (``TestRayleighExact``).  On the
    asymmetric channel no two terms share a law; on the symmetric one each
    receiver-2 term shares its receiver-1 mirror's.
    """

    ch = ChannelSpec.symmetric(1e3, 10.0**1.5, shape="weibull", k=2.0)
    asym = ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0, shape="weibull", k=2.0)

    @pytest.mark.parametrize("kind", ["nofb_inner", "nofb_outer", "nofb_achievable", "imac"])
    def test_phase_free_regions_never_draw_complex_gains(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex gain was drawn for a phase-free term")

        monkeypatch.setattr(ComplexGainSampler, "sample", refuse)
        BUILDERS[kind](self.ch, McConfig(samples=1000, seed=51))

    @staticmethod
    def count_estimates(ch, monkeypatch) -> dict[str, int]:
        from ffic import regions

        keys = []
        real = regions.estimate_expectation

        def spy(*args, **kwargs):
            keys.append(kwargs["stream_key"])
            return real(*args, **kwargs)

        monkeypatch.setattr("ffic.regions.estimate_expectation", spy)
        counts = {}
        for kind, build in BUILDERS.items():
            keys.clear()
            build(ch, McConfig(samples=1000, seed=52))
            assert len(set(keys)) == len(keys), kind
            counts[kind] = len(keys)
        return counts

    def test_one_estimate_per_distinct_term(self, monkeypatch):
        assert self.count_estimates(self.asym, monkeypatch) == {
            "nofb_inner": 8, "nofb_outer": 8, "nofb_achievable": 10,
            "fb_inner": 6, "fb_outer": 6, "imac": 14}

    def test_one_estimate_per_law_on_a_symmetric_channel(self, monkeypatch):
        # every receiver-2 term is its receiver-1 mirror's expectation; imac
        # shares log2(1 + W11), the full-power logs and nothing else
        assert self.count_estimates(self.ch, monkeypatch) == {
            "nofb_inner": 4, "nofb_outer": 4, "nofb_achievable": 5,
            "fb_inner": 3, "fb_outer": 3, "imac": 11}

    def test_each_declared_term_law_is_resolved_once(self, monkeypatch):
        from ffic import regions

        declared, resolved = [], []
        real_build, real_law = regions._build_region, regions._law

        def build_spy(kind, ch, variants, cfg):
            declared.extend(t for defs, _, _ in variants for *_, ts, _ in defs for t in ts)
            return real_build(kind, ch, variants, cfg)

        def law_spy(term, ch):
            resolved.append(term)
            return real_law(term, ch)

        monkeypatch.setattr(regions, "_build_region", build_spy)
        monkeypatch.setattr(regions, "_law", law_spy)
        cfg = McConfig(samples=500, seed=55)
        for build in [*BUILDERS.values(), lambda ch, cfg: fb_outer(ch, RHO_LIST, cfg)]:
            declared.clear()
            resolved.clear()
            build(self.asym, cfg)
            assert resolved == declared

    @staticmethod
    def unit_stderr_nofb6(ch, monkeypatch) -> float:
        def unit_stderr(fs, samplers, cfg, stream_key=()):
            return [EstimateResult(0.0, 1.0, cfg.samples, cfg.seed) for _ in fs]

        monkeypatch.setattr("ffic.regions.estimate_expectation", unit_stderr)
        reg = nofb_achievable(ch, McConfig(samples=1000, seed=53))
        return reg.constraint("inner_nofb6").bound_stderr

    def test_repeated_penalty_is_perfectly_correlated(self, monkeypatch):
        # three single terms, pen1 twice (4 sigma^2) and pen2 once
        assert self.unit_stderr_nofb6(self.asym, monkeypatch) == math.sqrt(8.0)

    def test_mirrored_penalties_are_one_estimate(self, monkeypatch):
        # three single terms, and pen1 twice with pen2 once: coefficient -3
        assert self.unit_stderr_nofb6(self.ch, monkeypatch) == math.sqrt(12.0)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_symmetric_channel_gives_mirror_symmetric_region(self, kind):
        cfg = McConfig(samples=2000, seed=58)
        regions = BUILDERS[kind](self.ch, cfg)
        for reg in regions if kind == "imac" else (regions,):
            for a, b in MIRRORS[kind]:
                if a not in {c.label for c in reg.constraints}:
                    continue
                ca, cb = reg.constraint(a), reg.constraint(b)
                assert ca.bound_stderr > 0.0, a
                assert (ca.bound, ca.bound_stderr) == (cb.bound, cb.bound_stderr), (a, b)

    @pytest.mark.parametrize("ch", [
        ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0, shape="gamma", k=2.0),
        ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0),
        # equal mean powers, but receiver 1's links are Rayleigh and receiver 2's Gamma k = 2
        ChannelSpec(g11=FadingModel.rayleigh(1e3), g21=FadingModel.rayleigh(10.0**1.5),
                    g22=FadingModel.gamma(2.0, 1e3), g12=FadingModel.gamma(2.0, 10.0**1.5)),
    ], ids=["asymmetric-gamma2", "asymmetric-rayleigh", "rayleigh-vs-gamma2"])
    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_no_terms_merge_across_laws(self, ch, kind, monkeypatch):
        declared, estimated = declared_and_estimated(
            lambda ch: BUILDERS[kind](ch, McConfig(samples=500)), ch, monkeypatch)
        assert estimated == declared

    @pytest.mark.parametrize("ch", [
        ChannelSpec.symmetric(100.0, 10.0, shape="gamma", k=2.0),
        ChannelSpec(g11=FadingModel.deterministic(100.0), g21=FadingModel.rayleigh(10.0),
                    g22=FadingModel.rayleigh(100.0), g12=FadingModel.deterministic(10.0)),
    ], ids=["gamma2", "deterministic-rayleigh"])
    def test_coherent_term_depends_on_the_coefficient_magnitude(self, ch):
        # the oracle draws both complex gains and keeps the phase of c
        c = cmath.rect(0.8, 1.0)
        cfg = McConfig(samples=200_000, seed=59)
        for x, y in (("g11", "g21"), ("g22", "g12")):  # deterministic-rayleigh: x static, then y
            mean, stderr = estimate_term(_law(_coh(x, y, c), ch), cfg, (0,))
            gains = [ComplexGainSampler(getattr(ch, n)) for n in (x, y)]
            for i, cc in enumerate((c, c.conjugate(), c * cmath.exp(2.5j))):
                est = estimate_expectation(
                    lambda gx, gy, cc=cc: L2(1 + abs(gx) ** 2 + abs(gy) ** 2
                                             + 2 * np.real(cc * gx * np.conj(gy))),
                    gains, cfg, stream_key=(1, i))
                assert abs(mean - est.mean) <= 4.0 * math.hypot(stderr, est.stderr), (x, cc)

    def test_coherent_term_with_one_deterministic_link(self):
        det, ray = FadingModel.deterministic(100.0), FadingModel.rayleigh(10.0)
        # the first link of outer_fb1 is static, the second of outer_fb3
        ch = ChannelSpec(g11=det, g21=ray, g22=ray, g12=det)
        rho = 0.8
        reg = fb_outer(ch, complex(rho), McConfig(samples=200_000, seed=54))
        want = cos_avg_e1(lambda w: (1 + 100.0 + w, 2 * rho * np.sqrt(100.0 * w)), 10.0)
        for label in ("outer_fb1", "outer_fb3"):
            c = reg.constraint(label)
            assert c.bound_stderr > 0.0
            assert abs(c.bound - want) <= 4.0 * c.bound_stderr, label


# 0, a repeated rho, and two rho of equal |rho| but different phase
RHO_LIST = [0.0, 0.3, 0.3, cmath.rect(0.7, 0.0), cmath.rect(0.7, 2.0), 0.95]


class TestRhoList:
    """A feedback bound over a list of rho: one build, whose regions are each
    bit-identical to its lone build, and which draws as often as one rho."""

    CHANNELS = {
        "rayleigh": ChannelSpec.symmetric(1e3, 10.0**1.5),
        "asymmetric-gamma2": ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0,
                                                          shape="gamma", k=2.0),
        "weibull2": ChannelSpec.symmetric(1e3, 10.0**1.5, shape="weibull", k=2.0),
        "deterministic-rayleigh": ChannelSpec(
            g11=FadingModel.deterministic(100.0), g21=FadingModel.rayleigh(10.0),
            g22=FadingModel.rayleigh(100.0), g12=FadingModel.deterministic(10.0)),
    }

    @pytest.mark.parametrize("name", sorted(CHANNELS))
    @pytest.mark.parametrize("build", [fb_inner, fb_outer], ids=["fb_inner", "fb_outer"])
    def test_each_region_equals_its_lone_build(self, build, name, monkeypatch):
        from ffic import regions

        ch, cfg = self.CHANNELS[name], McConfig(samples=CHUNK + 7, seed=62)
        calls = []
        real = regions.estimate_expectation

        def spy(*args, **kwargs):
            calls.append(kwargs["stream_key"])
            return real(*args, **kwargs)

        monkeypatch.setattr(regions, "estimate_expectation", spy)
        got = build(ch, RHO_LIST, cfg)
        drawn = len(calls)
        want = []
        for rho in RHO_LIST:
            calls.clear()
            want.append(build(ch, rho, cfg))
            assert len(calls) == drawn, rho
        assert repr(got) == repr(want)
        assert [reg.rho for reg in got] == [complex(rho) for rho in RHO_LIST]
        assert any(c.bound_stderr > 0.0 for reg in got for c in reg.constraints)

    def test_one_rho_in_a_list_is_a_list(self):
        ch, cfg = self.CHANNELS["rayleigh"], McConfig(samples=500, seed=63)
        assert fb_outer(ch, [0.5], cfg) == [fb_outer(ch, 0.5, cfg)]
        assert fb_inner(ch, np.array([0.5, 0.2]), cfg) == [fb_inner(ch, 0.5, cfg),
                                                           fb_inner(ch, 0.2, cfg)]
        assert fb_inner(ch, [], cfg) == []


def _adaptive_e1(g, mean):
    """E[g(W)] for W ~ Exp(mean), by adaptive quad in u = ln(W / mean)."""
    def h(u):
        x = math.exp(u)
        return g(mean * x) * math.exp(u - x)

    edges = (-50.0, -8.0, 0.0, 5.0)
    return sum(quad(h, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


def _eigen_pair_log2(px, py, c):
    """E log2(1 + W_x + W_y + 2 Re(c g_x conj g_y)) on Rayleigh links, in 40-digit mpmath.

    The argument is 1 + lam1 E1 + lam2 E2 with E1, E2 independent Exp(1)
    and lam1 >= lam2 the eigenvalues of [[P_x, |c| sqrt(P_x P_y)],
    [|c| sqrt(P_x P_y), P_y]].  With h(lam) = lam e^(1/lam) E_1(1/lam), so
    that E ln(1 + lam E) = h(lam) / lam, the sum's mean is
    (h(lam1) - h(lam2)) / (lam1 - lam2), and h(0) = 0 is the |c| = 1 limit.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        px, py, c = mp.mpf(px), mp.mpf(py), mp.mpf(abs(c))
        lam1 = (px + py + mp.sqrt((px - py) ** 2 + 4 * c * c * px * py)) / 2
        lam2 = px * py * (1 - c * c) / lam1

        def h(lam):
            return lam * mp.exp(1 / lam) * mp.e1(1 / lam) if lam else mp.mpf(0)

        return float((h(lam1) - h(lam2)) / ((lam1 - lam2) * mp.log(2)))


class TestOracle:
    """The conftest rule against nested adaptive quadrature and mpmath."""

    def test_circular_and_sum_rules_match_mpmath(self):
        # The points of test_constraints_match_phase_averaged_quadrature,
        # whose tolerance is 3 sigma + 1e-9 with sigma about 1e-6: the rule
        # must be far sharper than that.
        snr, inr, rho = 100.0, 10.0, 0.5
        for c in (rho**2, rho):
            got = cos_avg_e2(lambda d, x: (1 + d + x, 2 * c * np.sqrt(d * x)), snr, inr)
            assert abs(got - _eigen_pair_log2(snr, inr, c)) <= 1e-13, c
        for a1, a2 in ((1.0, 1.0), (0.1, 0.1)):
            got = exp_e2(lambda d, x: L2(1 + a1 * d + a2 * x), snr, inr)
            assert abs(got - _eigen_pair_log2(a1 * snr, a2 * inr, 0.0)) <= 1e-13, (a1, a2)

    @pytest.mark.parametrize("snr", [1e3, 1e9, 1e15])
    def test_log_domain_rule_matches_adaptive_quad(self, snr):
        inr = snr**0.65
        f = lambda d, c: L2(1 + c + d / (1 + c))  # noqa: E731
        want = _adaptive_e1(lambda d: _adaptive_e1(lambda c: f(d, c), inr), snr)
        assert abs(exp_e2(f, snr, inr) - want) <= 1e-12
        assert abs(exp_e1(lambda d: L2(1 + d), snr) - _adaptive_e1(
            lambda d: math.log2(1 + d), snr)) <= 1e-12


def declared_terms(build, ch, monkeypatch):
    """The distinct terms, signs dropped, that ``build(ch)`` declares; no
    region is built."""
    from ffic import regions

    terms = []

    def spy(kind, ch, variants, cfg):
        terms.extend(t._replace(sign=1.0) for defs, _, _ in variants
                     for _, _, _, ts, _ in defs for t in ts)
        return [None] * len(variants)

    with monkeypatch.context() as m:
        m.setattr(regions, "_build_region", spy)
        build(ch)
    return list(dict.fromkeys(terms))


def _plain_coherent(mx, my, c, cfg, stream_key):
    """The coherent term as drawn before its phase was averaged: one value
    log2(1 + |g_x|^2 + W_y + 2 c sqrt(W_y) Re(g_x)) per draw."""
    return estimate_expectation(
        lambda g, w: L2(g.real**2 + g.imag**2 + w + 2.0 * c * np.sqrt(w) * g.real + 1.0),
        [ComplexGainSampler(mx), my], cfg, stream_key=stream_key)


class TestCoherentTerm:
    """The phase-averaged coherent term against independent oracles."""

    @pytest.mark.parametrize("px, py", [
        (10.0, 10.0), (1e3, 10.0**1.5), (1e6, 1e3), (1e6, 1e6), (1e15, 1e15),
    ])
    @pytest.mark.parametrize("c", [0.09, 0.49, 0.9025, 0.95, 1.0])
    def test_rayleigh_matches_the_eigenvalue_pair(self, px, py, c):
        ch = ChannelSpec.from_mean_powers(px, px, py, py)
        mean, stderr = estimate_term(
            _law(_coh("g11", "g21", c), ch), McConfig(samples=200_000, seed=60), (0,))
        assert stderr > 0.0
        assert abs(mean - _eigen_pair_log2(px, py, c)) <= 4.0 * stderr

    @pytest.mark.parametrize("px, py, c", [(1e6, 1e3, 0.95), (1e6, 1e6, 0.9025)])
    @pytest.mark.parametrize("shape, k", [("gamma", 0.5), ("gamma", 2.0), ("weibull", 2.0)])
    def test_matches_plain_monte_carlo(self, shape, k, px, py, c):
        ch = ChannelSpec.from_mean_powers(px, px, py, py, shape=shape, k=k)
        cfg = McConfig(samples=2_000_000, seed=61)
        plain = _plain_coherent(ch.g11, ch.g21, c, cfg, (1,))
        mean, stderr = estimate_term(_law(_coh("g11", "g21", c), ch), cfg, (0,))
        assert abs(mean - plain.mean) <= 4.0 * math.hypot(stderr, plain.stderr)
        if shape == "gamma":  # the phase-free part is exact: its variance is gone
            assert 5.0 * stderr <= plain.stderr


# Laws whose phase-free terms are exact: Rayleigh, and Gamma on either side of it.
GAMMA_LAWS = pytest.mark.parametrize("shape, k", [
    ("rayleigh", None), ("gamma", 0.5), ("gamma", 2.0), ("gamma", 5.0),
])


class TestRayleighExact:
    """Exact terms on Gamma links, Rayleigh's among them: coverage, call
    counts and numerics."""

    @pytest.mark.parametrize("kind, draws", [
        ("nofb_inner", 0), ("nofb_outer", 0), ("nofb_achievable", 0), ("imac", 0),
        ("static", 0), ("fb_inner", 2), ("fb_outer", 2),
    ])
    @GAMMA_LAWS
    def test_only_coherent_terms_are_drawn(self, kind, draws, shape, k, monkeypatch):
        ch = ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0, shape=shape, k=k)
        self.assert_draws(kind, ch, draws, monkeypatch)

    @pytest.mark.parametrize("kind, draws", [
        ("nofb_inner", 0), ("nofb_outer", 0), ("nofb_achievable", 0), ("imac", 0),
        ("static", 0), ("fb_inner", 1), ("fb_outer", 1),
    ])
    @GAMMA_LAWS
    def test_mirrored_coherent_terms_are_drawn_once(self, kind, draws, shape, k, monkeypatch):
        ch = ChannelSpec.symmetric(1e3, 10.0**1.5, shape=shape, k=k)
        self.assert_draws(kind, ch, draws, monkeypatch)

    @staticmethod
    def assert_draws(kind, ch, draws, monkeypatch):
        from ffic import regions

        calls = {"estimate": 0, "power": 0}
        estimate, power = regions.estimate_expectation, FadingModel.sample_power

        def count_estimate(*args, **kwargs):
            calls["estimate"] += 1
            return estimate(*args, **kwargs)

        def count_power(model, rng, size):
            calls["power"] += 1
            return power(model, rng, size)

        monkeypatch.setattr(regions, "estimate_expectation", count_estimate)
        monkeypatch.setattr(FadingModel, "sample_power", count_power)
        if kind == "static":
            static_equivalent(ch)
            static_equivalent(ch, RHO)
        else:
            BUILDERS[kind](ch, McConfig(samples=1000, seed=56))
        assert calls["estimate"] == draws
        if draws == 0:
            assert calls["power"] == 0

    @pytest.mark.parametrize("snr1, snr2, inr1, inr2", [
        (10.0, 10.0, 0.5, 0.5), (1e3, 300.0, 10.0**1.5, 20.0), (1e15, 1e15, 1e9, 1e15),
    ])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    @GAMMA_LAWS
    def test_backend_covers_every_declared_term(self, snr1, snr2, inr1, inr2, rho,
                                                shape, k, monkeypatch):
        ch = ChannelSpec.from_mean_powers(snr1, snr2, inr1, inr2, shape=shape, k=k)
        builders = dict(BUILDERS, fb_inner=lambda ch: fb_inner(ch, rho),
                        fb_outer=lambda ch: fb_outer(ch, rho))
        for kind, build in builders.items():
            terms = declared_terms(build, ch, monkeypatch)
            phase_free = [t for t in terms if t.coh is None]
            assert phase_free, kind
            for t in phase_free:
                # what _exact_term conditions on: at most one ratio
                # denominator, and never one that is also a numerator
                dens = {den for _, _, den in t.parts if den}
                assert len(dens) <= 1, (kind, t)
                assert not dens & {num for _, num, _ in t.parts}, (kind, t)
                assert math.isfinite(_exact_term(_law(t, ch))), (kind, t)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    @GAMMA_LAWS
    def test_exact_terms_match_monte_carlo(self, kind, shape, k, monkeypatch):
        ch = ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0, shape=shape, k=k)
        cfg = McConfig(samples=100_000, seed=55)
        terms = [t for t in declared_terms(BUILDERS[kind], ch, monkeypatch) if t.coh is None]
        for i, t in enumerate(terms):
            law = _law(t, ch)
            est = estimate_expectation(
                lambda *d, law=law: L2(_log_arg(law, d)), law.models, cfg, stream_key=(i,))
            assert abs(_exact_term(law) - est.mean) <= 4.0 * est.stderr, (kind, t)

    @pytest.mark.parametrize("shape", ["gamma", "weibull"])
    def test_exponential_laws_take_the_closed_forms(self, shape):
        # Gamma and Weibull with k = 1 have Rayleigh fading's exponential law
        cfg = McConfig(samples=1000, seed=57)
        rayleigh = ChannelSpec.symmetric(1e3, 10.0**1.5)
        ch = ChannelSpec.symmetric(1e3, 10.0**1.5, shape=shape, k=1.0)
        for kind in ("nofb_inner", "nofb_outer", "imac"):
            got = BUILDERS[kind](ch, cfg)
            assert got == BUILDERS[kind](rayleigh, cfg), kind
            for region in got if kind == "imac" else (got,):
                assert region.max_stderr() == 0.0, kind

    def test_nofb_off_grid_gap_is_exact(self):
        # The failing points of ROADMAP item 2 (see test_acceptance.py).
        deltas = {}
        for snr in (1e9, 1e12):
            for alpha in (0.6, 0.65, 0.7):
                ch = ChannelSpec.symmetric(snr, snr**alpha)
                gap = region_gap(nofb_outer(ch), nofb_inner(ch))
                assert gap.delta_vertex_stderr == 0.0
                deltas[snr, alpha] = gap.delta_vertex
        assert 1.8638 <= min(deltas.values()) and max(deltas.values()) <= 1.9136 + 1e-4
        assert deltas[1e9, 0.65] == pytest.approx(1.8967, abs=1e-4)

    @staticmethod
    def hypoexponential(*lam):
        """E ln(1 + sum_j lam_j E_j) at 30 digits, from the law of the sum.

        With f(l) = e^(1/l) E1(1/l) = E ln(1 + l E), distinct rates give
        sum_j f(l_j) prod_(k != j) l_j / (l_j - l_k); two equal rates give
        the derivative of l f(l), which is f - f/l + 1.
        """
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            lam = [mp.mpf(x) for x in lam]
            f = [mp.exp(1 / x) * mp.e1(1 / x) for x in lam]
            if len(lam) == 2 and lam[0] == lam[1]:
                return float(f[0] - f[0] / lam[0] + 1)
            return float(sum(fj * mp.fprod(lj / (lj - lk) for lk in lam if lk is not lj)
                             for lj, fj in zip(lam, f)))

    @pytest.mark.parametrize("lam", [1e-6, 0.02, 0.03, 1.0, 1e3, 1e9, 1e15, 1e18])
    def test_laplace_near_equal_rates_matches_mpmath(self, lam):
        gaps = (0.0, 1e-12, 1e-8, 1e-5, 1e-4, 1e-3, 1.001e-3, 1e-2, 1e-1)
        pairs = [(unit(1.0), np.array([lam * (1.0 - r) for r in gaps])), (unit(1.0), lam)]
        got = _laplace(pairs) * math.log2(math.e)
        for r, g in zip(gaps, got):
            want = self.hypoexponential(lam, lam * (1.0 - r)) * math.log2(math.e)
            assert abs(g - want) <= 1e-12, r
            if lam <= 1e15:  # the conftest rule, an independent second route
                assert abs(g - exp_e2(lambda a, b: L2(1 + a + b), lam, lam * (1.0 - r))) <= 1e-10

    def test_laplace_single_and_three_rates_match_mpmath(self):
        rates = [1e-6, 1e-3, 1.0 / 709.0, 1.0 / 800.0, 0.5, 1.0, 1e3, 1e9, 1e15, 1e18]
        got = _laplace([(unit(1.0), np.array(rates))]) * math.log2(math.e)
        for x, g in zip(rates, got):
            assert abs(g - self.hypoexponential(x) * math.log2(math.e)) <= 1e-12, x
        for lam in [(1e-6, 1e3, 1e18), (0.5, 2.0, 7.0), (1e3, 1e9, 30.0)]:
            want = self.hypoexponential(*lam) * math.log2(math.e)
            got = _laplace([(unit(1.0), x) for x in lam]) * math.log2(math.e)
            assert abs(got - want) <= 1e-12, lam

    def test_laplace_at_zero_tiny_and_float_limit_rates(self):  # warnings fail the suite
        big = np.finfo(float).max
        got = _laplace([(unit(1.0), np.array([0.0, 1e-300, 1e308, big]))])
        assert got[0] == 0.0
        # E ln(1 + l E) = l - 2 l^2 + ...
        assert got[1] == pytest.approx(1e-300, rel=1e-12, abs=0.0)
        # e^x E1(x) = -gamma - ln x + O(x ln x) as x = 1/l -> 0
        for lam, g in zip((1e308, big), got[2:]):
            assert abs(g - (math.log(lam) - np.euler_gamma)) * math.log2(math.e) <= 1e-10
        # two links: ln l + E ln(E1 + E2) = ln l + psi(2) = ln l + 1 - gamma
        pair = _laplace([(unit(1.0), np.array([0.0, big]))] * 2)
        assert pair[0] == 0.0
        assert abs(pair[1] - (math.log(big) + 1.0 - np.euler_gamma)) <= 1e-10
        assert _laplace([(unit(1.0), 0.0), (unit(3.0), 0.0)]) == 0.0
        # kappa lam at the float limit: mean powers of 1.8e308 on Gamma k = 3
        ch = ChannelSpec.symmetric(big, big, shape="gamma", k=3.0)
        assert math.isfinite(_exact_term(_law(_log(_w("g11"), _w("g21")), ch)))
        # |rho| = 1 zeroes every rate of fb_inner's common and private terms
        region = fb_inner(ChannelSpec.symmetric(1e3, 1e2), 1.0, tiny_cfg())
        assert region.constraint("inner_fb2").bound == -2.0

    @staticmethod
    def gamma_elog(kappa, lam):
        """E ln(1 + lam G), G ~ Gamma(kappa, 1), at 30 digits from G's density
        in u = ln G, on a range whose ends carry below 1e-30."""
        mp = pytest.importorskip("mpmath")
        with mp.workdps(30):
            k, lam = mp.mpf(kappa), mp.mpf(lam)
            lo, hi = -(75 + max(mp.log(lam), 0)) / k, mp.log(k + 120)
            cuts = sorted(x for x in {lo, -mp.log(lam), mp.log(k), hi} if lo <= x <= hi)
            f = lambda u: mp.log1p(lam * mp.exp(u)) * mp.exp(k * u - mp.exp(u))  # noqa: E731
            return float(mp.quad(f, cuts) / mp.gamma(k))

    def test_laplace_gamma_exponents_match_mpmath(self):
        rates = [1e-3, 1.0, 1e3, 1e15]
        for kappa in (0.05, 0.5, 5.0, 50.0):
            got = _laplace([(unit(kappa), np.array(rates))]) * math.log2(math.e)
            for x, g in zip(rates, got):
                assert abs(g - self.gamma_elog(kappa, x) * math.log2(math.e)) <= 1e-12, (kappa, x)
        # links at one rate add their exponents: Gamma(2) + Exp is Gamma(3), and
        # two Gamma(1/2) make an exponential (the hypoexponential oracle)
        for lam in (1e-3, 1.0, 1e9):
            got = _laplace([(unit(2.0), lam), (unit(1.0), lam)]) - self.gamma_elog(3.0, lam)
            assert abs(got) * math.log2(math.e) <= 1e-12, lam
            got = _laplace([(unit(0.5), lam), (unit(0.5), lam)]) - self.hypoexponential(lam)
            assert abs(got) * math.log2(math.e) <= 1e-12, lam

    def test_sums_over_deterministic_and_rayleigh_links_are_exact(self):
        # deterministic g11, g12 and Rayleigh g21, g22: E ln(1 + c + W) over W ~
        # Exp(m) is ln(1 + c) + e^x E1(x), x = (1 + c) / m
        mp = pytest.importorskip("mpmath")
        d, m = 100.0, 10.0
        det, ray = FadingModel.deterministic(d), FadingModel.rayleigh(m)
        ch = ChannelSpec(g11=det, g21=ray, g22=ray, g12=det)
        cfg = McConfig(samples=100_000, seed=58)

        def want(c):
            with mp.workdps(30):
                c = mp.mpf(c)
                x = (1 + c) / m
                return float((mp.log1p(c) + mp.exp(x) * mp.e1(x)) / mp.log(2))

        mean, stderr = estimate_term(_law(_log(_w("g11"), _w("g21")), ch), cfg, (0,))
        assert stderr == 0.0 and abs(mean - want(d)) <= 1e-12
        # a deterministic denominator has no log rule, so its ratio term is drawn
        ratio = _law(_log(_w("g21"), _r("g11", "g12")), ch)
        assert _exact_term(ratio) is None
        mean, stderr = estimate_term(ratio, cfg, (1,))
        assert stderr > 0.0 and abs(mean - want(d / (1.0 + d))) <= 4.0 * stderr
        region = nofb_outer(ch, cfg)  # full1 and the Rayleigh ratio; then the drawn term
        assert region.constraint("outer_nofb4").bound_stderr == 0.0
        assert region.constraint("outer_nofb5").bound_stderr > 0.0

    def test_gamma_terms_where_mean_over_k_passes_the_float_limit(self):
        # theta = mean / k is 2e308 at k = 0.05 and mean 1e307: E log2(1 + W) is
        # log2 theta + psi(k) / ln 2 (W < 1 has mass below 1e-14), and the ratio
        # term is scale free, as at mean 1e300
        mp = pytest.importorskip("mpmath")
        ratio = _log(_r("g11", "g12"))
        ch, ch300 = (ChannelSpec.symmetric(m, m, shape="gamma", k=0.05) for m in (1e307, 1e300))
        with mp.workdps(30):
            want = float(mp.log(mp.mpf(1e307) / mp.mpf(0.05), 2) + mp.digamma(0.05) / mp.log(2))
        assert abs(_exact_term(_law(_log(_w("g11")), ch)) - want) <= 1e-12
        assert abs(_exact_term(_law(ratio, ch)) - _exact_term(_law(ratio, ch300))) <= 1e-12

    @pytest.mark.parametrize("k", [0.05, 0.5, 2.0, 50.0, 1e6, 1e12])
    def test_single_link_terms_match_the_log_rule(self, k):
        # E log2(1 + a W) = log2 a + E log2(1/a + W), the second from
        # fading's log rule, which shares no code with _laplace
        for mean in (1e-3, 1.0, 1e3, 1e15):
            ch = ChannelSpec.symmetric(mean, 1.0, shape="gamma", k=k)
            for a in (1.0, 0.3):
                want = math.log2(a) + expected_log_shifted(ch.g11, 1.0 / a).mean
                assert abs(_exact_term(_law(_log(_w("g11", a)), ch)) - want) <= 1e-12, (mean, a)

    @pytest.mark.parametrize("snr", [1e3, 1e9, 1e15])
    def test_ratio_rule_on_gamma2_links_matches_adaptive_quad(self, snr):
        # W = (mean / 2)(E1 + E2), so given W_12 = w the term is the equal-rate
        # hypoexponential f - f/l + 1 at l = a snr / (2 (1 + a w)), in nats
        inr, a = snr**0.65, 0.3
        ch = ChannelSpec.symmetric(snr, inr, shape="gamma", k=2.0)

        def cond(w):
            lam = a * snr / (2.0 * (1.0 + a * w))
            f = math.exp(1.0 / lam) * exp1(1.0 / lam)
            return (f - f / lam + 1.0) * math.log2(math.e)

        def h(u):  # W_12 = (inr / 2) e^u, with density e^(2u - e^u) in u
            return cond(inr / 2.0 * math.exp(u)) * math.exp(2.0 * u - math.exp(u))

        edges = (-30.0, -8.0, 0.0, 1.0, 5.0)
        want = sum(quad(h, lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
                   for lo, hi in zip(edges, edges[1:]))
        assert abs(_exact_term(_law(_log(_r("g11", "g12", a)), ch)) - want) <= 1e-10

    @pytest.mark.parametrize("snr", [1e3, 1e9, 1e15])
    @pytest.mark.parametrize("alpha", [0.65, 1.0])
    def test_ratio_rule_matches_adaptive_quad(self, snr, alpha):
        inr = snr**alpha
        ch = ChannelSpec.symmetric(snr, inr)
        a = 0.3

        def single(lam):  # E log2(1 + lam E) = e^x E1(x) / ln 2 at x = 1/lam
            return math.exp(1.0 / lam) * exp1(1.0 / lam) * math.log2(math.e)

        def pair(l1, l2):  # the divided difference of lam f(lam): hypoexponential
            if abs(l1 - l2) <= 1e-6 * l1:  # its derivative f - f/m + 1 at the midpoint m
                m = (l1 + l2) / 2.0
                return single(m) - single(m) / m + math.log2(math.e)
            return (l1 * single(l1) - l2 * single(l2)) / (l1 - l2)

        conditional = {  # each term given W_12 = w
            _log(_r("g11", "g12", a)): lambda w: single(a * snr / (1 + a * w)),
            _log(_w("g21"), _r("g11", "g12")): lambda w: pair(inr, snr / (1 + w)),
        }
        for term, cond in conditional.items():
            want = _adaptive_e1(cond, inr)
            assert abs(_exact_term(_law(term, ch)) - want) <= 1e-10, term

    def test_three_link_form_matches_quadrature(self):
        # no builder declares one; the integral takes any number of links
        ch = ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0)
        term = _log(_w("g11"), _w("g21"), _w("g12", 0.5))
        want = exp_e3(lambda x, y, z: L2(1 + x + y + z), 1e3, 20.0, 0.5 * 10.0**1.5)
        assert abs(_exact_term(_law(term, ch)) - want) <= 1e-10


class TestNphasePentagon:
    """The symmetric feedback outer bound relaxed to a pentagon."""

    def test_full_power_bound_is_exact_on_rayleigh_links(self):
        snr, inr = 100.0, 10.0
        reg = nphase_outer_region(ChannelSpec.symmetric(snr, inr), McConfig(samples=1000, seed=58))
        want = exp_e2(lambda d, c: L2(1 + d + c), snr, inr)
        for label in ("nphase_outer_sym1", "nphase_outer_sym2"):
            c = reg.constraint(label)
            assert c.bound_stderr == 0.0
            assert abs(c.bound - want) <= 1e-9, label

    def test_deterministic_sum_bound_aligns_the_phases(self):
        snr, inr = 100.0, 10.0
        reg = nphase_outer_region(det_spec(snr, inr), tiny_cfg())
        want = L2(1 + (math.sqrt(snr) + math.sqrt(inr)) ** 2) + L2(1 + snr / (1 + inr))
        c = reg.constraint("nphase_outer_sym3")
        assert c.bound_stderr == 0.0
        assert abs(c.bound - want) <= 1e-12

    def test_gain_term_draws_on_its_declared_substream(self):
        from ffic.regions import _KIND_STREAM

        ch = ChannelSpec.symmetric(100.0, 10.0, shape="weibull", k=2.0)
        cfg = McConfig(samples=20_000, seed=59)
        reg = nphase_outer_region(ch, cfg)
        family = _KIND_STREAM["nphase_outer_sym"]
        links = [ch.g11, ch.g21]
        # term j of constraint i draws on (family, i, j) at its first occurrence
        ratio = estimate_expectation(lambda d, c: L2(1.0 + d / (1.0 + c)), links, cfg,
                                     stream_key=(family, 2, 1))
        gain = estimate_expectation(
            lambda d, c: L2(1.0 + 2.0 * np.sqrt(d * c) / (1.0 + d + c)), links, cfg,
            stream_key=(family, 2, 2))
        full = reg.constraint("nphase_outer_sym1").bound
        total = reg.constraint("nphase_outer_sym3")
        assert total.bound == full + ratio.mean + gain.mean
        assert gain.stderr > 0.0
        assert total.bound_stderr > gain.stderr

    def test_gain_term_is_finite_past_the_square_root_of_the_float_limit(self):
        # W11 W21 overflows above about 1e154 per link; the argument stays below 2
        reg = nphase_outer_region(ChannelSpec.symmetric(1e200, 1e200), tiny_cfg())
        for c in reg.constraints:  # warnings fail the suite
            assert math.isfinite(c.bound) and math.isfinite(c.bound_stderr), c.label

    def test_asymmetric_channel_rejected(self):
        ch = ChannelSpec.from_mean_powers(100.0, 50.0, 10.0, 10.0)
        with pytest.raises(ValueError, match="symmetric"):
            nphase_outer_region(ch)


class TestSweep:
    def test_inr_follows_alpha(self):
        rows = symmetric_sweep(0.5, [20.0], shape="deterministic",
                               cfg=McConfig(samples=4, seed=48))
        row = rows[0]
        assert row.snr_db == 20.0 and row.alpha == 0.5
        # deterministic SNR=100, INR=10: both rates are exact closed forms
        assert row.gap == pytest.approx(row.sym_outer - row.sym_inner)

    def test_deterministic_high_snr_gap_below_one(self):
        rows = symmetric_sweep(0.5, [60.0], shape="deterministic",
                               cfg=McConfig(samples=4, seed=49))
        assert rows[0].gap <= 1.0 + 1e-9

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError):
            symmetric_sweep(-1.0, [10.0])


def _one_region(kind, c1, c2):
    return RateRegion(kind, (RateConstraint(c1, c2, 1.0, 0.0, "sum"),))


@pytest.mark.parametrize("build, error, message", [
    (lambda: SplitParams(1.5, 0.5), ValueError, "must lie in [0, 1], got 1.5"),
    (lambda: SplitParams(0.5, -0.0001), ValueError, "must lie in [0, 1], got -0.0001"),
    (lambda: RateConstraint(1.0, 1.0, 2.0, -1.0, "sum"), ValueError,
     "bound_stderr must be nonnegative"),
    (lambda: _one_region("nofb_outer", 1.0, 1.0).constraint("none"), KeyError, "none"),
    (lambda: region_gap(_one_region("nofb_outer", 1.0, 1.0), _one_region("nofb_inner", 1.0, 2.0)),
     ValueError, "paired constraints disagree on rate weights: sum"),
], ids=["split-above-1", "split-below-0", "negative-stderr", "unknown-label", "weights"])
def test_bad_input_is_refused(build, error, message):
    with pytest.raises(error, match=re.escape(message)):
        build()


class TestSerialization:
    def test_region_json_schema(self):
        reg = nofb_inner(det_spec(15.0, 1.0), tiny_cfg())
        obj = reg.to_json()
        assert obj["kind"] == "nofb_inner"
        assert set(obj["params"]) == {"lambda_p1", "lambda_p2"}
        first = obj["constraints"][0]
        assert set(first) == {"c1", "c2", "bound", "stderr", "label"}
        labels = [c["label"] for c in obj["constraints"]]
        assert labels[0] == "inner_nofb1" and labels[-1] == "inner_nofb7"
        weights = [(c["c1"], c["c2"]) for c in obj["constraints"]]
        assert weights == [(1, 0), (0, 1), (1, 1), (1, 1), (1, 1), (2, 1), (1, 2)]

    def test_fb_outer_records_rho(self):
        ch = det_spec(9.0, 4.0)
        reg = fb_outer(ch, cmath.rect(0.5, 1.0), tiny_cfg())
        obj = reg.to_json()
        assert obj["rho"]["re"] == pytest.approx(0.5 * math.cos(1.0))

    def test_fb_inner_records_rho_like_fb_outer(self):
        ch = det_spec(9.0, 4.0)
        rho = cmath.rect(0.5, 1.0)
        inner, outer = fb_inner(ch, rho, tiny_cfg()), fb_outer(ch, rho, tiny_cfg())
        assert inner.to_json()["rho"] == outer.to_json()["rho"]
        assert set(inner.to_json()["params"]) == {"lambda_p1", "lambda_p2"}
