"""Rate-region construction, geometry, and gap certification."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

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
    fb_inner,
    fb_outer,
    imac_regions,
    nofb_achievable,
    nofb_inner,
    nofb_outer,
    region_gap,
    static_equivalent,
    substream,
    symmetric_sweep,
)
from ffic.mc import estimate_expectation
from ffic.regions import _f, _hypo, _log, _log_arg, _r, _rayleigh_term, _w

L2 = np.log2
RAYLEIGH_GAP = float(np.euler_gamma) * math.log2(math.e)


def det_spec(snr, inr, snr2=None, inr2=None):
    return ChannelSpec.from_mean_powers(
        snr, snr if snr2 is None else snr2, inr, inr if inr2 is None else inr2,
        shape="deterministic",
    )


def tiny_cfg(seed=0):
    return McConfig(samples=4, seed=seed)


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
    def test_rho_zero_collapse(self):
        ch = ChannelSpec.symmetric(100.0, 10.0)
        cfg = McConfig(samples=50_000, seed=36)
        reg = fb_inner(ch, 0.0, cfg)
        # same stream family, same draws: the rho term adds exactly zero
        from ffic.mc import estimate_expectation
        from ffic.regions import _KIND_STREAM

        # the sampler's gain g11 and the power W21, summed as production sums them
        direct = estimate_expectation(
            lambda g, w: L2(g.real**2 + g.imag**2 + w + 1.0),
            [ComplexGainSampler(ch.g11), ch.g21], cfg,
            stream_key=(_KIND_STREAM["fb_inner"], 0, 0),
        )
        assert reg.constraint("inner_fb1").bound == direct.mean - 1.0

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
        ch = det_spec(50.0, 5.0)
        cfg = McConfig(samples=1000, seed=50)
        regions = [
            nofb_inner(ch, cfg),
            fb_inner(ch, cmath.rect(0.5, 1.0), cfg),
            fb_outer(ch, cmath.rect(0.5, 1.0), cfg),
            static_equivalent(ch),
            static_equivalent(ch, cmath.rect(0.5, 1.0)),
        ]
        for reg in regions:
            assert all(c.bound_stderr == 0.0 for c in reg.constraints)


RHO = cmath.rect(0.5, 1.0)
BUILDERS = {
    "nofb_inner": nofb_inner,
    "nofb_outer": nofb_outer,
    "nofb_achievable": nofb_achievable,
    "fb_inner": lambda ch, cfg=None: fb_inner(ch, RHO, cfg),
    "fb_outer": lambda ch, cfg=None: fb_outer(ch, RHO, cfg),
    "imac": imac_regions,
}


class TestTermEvaluation:
    """Power-domain draws and once-per-build estimation of repeated terms.

    On Gamma k = 2 links, where every fading term is drawn: on Rayleigh
    links only the coherent ones are (``TestRayleighExact``).
    """

    ch = ChannelSpec.symmetric(1e3, 10.0**1.5, shape="gamma", k=2.0)

    @pytest.mark.parametrize("kind", ["nofb_inner", "nofb_outer", "nofb_achievable", "imac"])
    def test_phase_free_regions_never_draw_complex_gains(self, kind, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a complex gain was drawn for a phase-free term")

        monkeypatch.setattr(ComplexGainSampler, "sample", refuse)
        BUILDERS[kind](self.ch, McConfig(samples=1000, seed=51))

    def test_one_estimate_per_distinct_term(self, monkeypatch):
        from ffic import regions

        keys = []
        real = regions.estimate_expectation

        def spy(*args, **kwargs):
            keys.append(kwargs["stream_key"])
            return real(*args, **kwargs)

        monkeypatch.setattr("ffic.regions.estimate_expectation", spy)
        want = {"nofb_inner": 8, "nofb_outer": 8, "nofb_achievable": 10,
                "fb_inner": 6, "fb_outer": 6, "imac": 14}
        for kind, build in BUILDERS.items():
            keys.clear()
            build(self.ch, McConfig(samples=1000, seed=52))
            assert len(keys) == want[kind], kind
            assert len(set(keys)) == len(keys), kind

    def test_repeated_penalty_is_perfectly_correlated(self, monkeypatch):
        def unit_stderr(f, samplers, cfg, stream_key=()):
            return EstimateResult(0.0, 1.0, cfg.samples, cfg.seed)

        monkeypatch.setattr("ffic.regions.estimate_expectation", unit_stderr)
        reg = nofb_achievable(self.ch, McConfig(samples=1000, seed=53))
        # three single terms, pen1 twice (4 sigma^2) and pen2 once
        assert reg.constraint("inner_nofb6").bound_stderr == math.sqrt(8.0)

    def test_coherent_term_with_one_deterministic_link(self):
        det, ray = FadingModel.deterministic(100.0), FadingModel.rayleigh(10.0)
        # g11 is deterministic (the links swap), g12 is deterministic (no swap)
        ch = ChannelSpec(g11=det, g21=ray, g22=ray, g12=det)
        rho = 0.8
        reg = fb_outer(ch, complex(rho), McConfig(samples=200_000, seed=54))
        want = cos_avg_e1(lambda w: (1 + 100.0 + w, 2 * rho * np.sqrt(100.0 * w)), 10.0)
        for label in ("outer_fb1", "outer_fb3"):
            c = reg.constraint(label)
            assert c.bound_stderr > 0.0
            assert abs(c.bound - want) <= 4.0 * c.bound_stderr, label


def _adaptive_e1(g, mean):
    """E[g(W)] for W ~ Exp(mean), by adaptive quad in u = ln(W / mean)."""
    def h(u):
        x = math.exp(u)
        return g(mean * x) * math.exp(u - x)

    edges = (-50.0, -8.0, 0.0, 5.0)
    return sum(quad(h, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)[0]
               for a, b in zip(edges, edges[1:]))


class TestOracle:
    """The conftest rule against nested adaptive quadrature."""

    @pytest.mark.parametrize("snr", [1e3, 1e9, 1e15])
    def test_log_domain_rule_matches_adaptive_quad(self, snr):
        inr = snr**0.65
        f = lambda d, c: L2(1 + c + d / (1 + c))  # noqa: E731
        want = _adaptive_e1(lambda d: _adaptive_e1(lambda c: f(d, c), inr), snr)
        assert abs(exp_e2(f, snr, inr) - want) <= 1e-12
        assert abs(exp_e1(lambda d: L2(1 + d), snr) - _adaptive_e1(
            lambda d: math.log2(1 + d), snr)) <= 1e-12


def declared_terms(build, ch, monkeypatch):
    """The distinct terms, signs dropped, that ``build(ch)`` declares."""
    from ffic import regions

    terms = []
    real = regions._build_region

    def spy(kind, ch, defs, cfg, **kwargs):
        terms.extend(t._replace(sign=1.0) for _, _, _, ts, _ in defs for t in ts)
        return real(kind, ch, defs, cfg, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(regions, "_build_region", spy)
        build(ch)
    return list(dict.fromkeys(terms))


class TestRayleighExact:
    """Closed-form Rayleigh terms: coverage, call counts and numerics."""

    @pytest.mark.parametrize("kind, draws", [
        ("nofb_inner", 0), ("nofb_outer", 0), ("nofb_achievable", 0), ("imac", 0),
        ("static", 0), ("fb_inner", 2), ("fb_outer", 2),
    ])
    def test_only_coherent_terms_are_drawn(self, kind, draws, monkeypatch):
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
        ch = ChannelSpec.symmetric(1e3, 10.0**1.5)
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
    def test_backend_covers_every_declared_term(self, snr1, snr2, inr1, inr2, rho,
                                                monkeypatch):
        ch = ChannelSpec.from_mean_powers(snr1, snr2, inr1, inr2)
        builders = dict(BUILDERS, fb_inner=lambda ch: fb_inner(ch, rho),
                        fb_outer=lambda ch: fb_outer(ch, rho))
        for kind, build in builders.items():
            terms = declared_terms(build, ch, monkeypatch)
            phase_free = [t for t in terms if t.coh is None]
            assert phase_free, kind
            for t in phase_free:
                assert _rayleigh_term(t, ch) is not None, (kind, t)

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_exact_terms_match_monte_carlo(self, kind, monkeypatch):
        ch = ChannelSpec.from_mean_powers(1e3, 300.0, 10.0**1.5, 20.0)
        cfg = McConfig(samples=100_000, seed=55)
        terms = [t for t in declared_terms(BUILDERS[kind], ch, monkeypatch) if t.coh is None]
        for i, t in enumerate(terms):
            est = estimate_expectation(
                lambda *d, t=t: L2(_log_arg(t, d)), [getattr(ch, n) for n in t.links],
                cfg, stream_key=(i,))
            assert abs(_rayleigh_term(t, ch) - est.mean) <= 4.0 * est.stderr, (kind, t)

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
        # The failing points of ROADMAP item 1 (see test_acceptance.py).
        deltas = {}
        for snr in (1e9, 1e12):
            for alpha in (0.6, 0.65, 0.7):
                ch = ChannelSpec.symmetric(snr, snr**alpha)
                gap = region_gap(nofb_outer(ch), nofb_inner(ch))
                assert gap.delta_vertex_stderr == 0.0
                deltas[snr, alpha] = gap.delta_vertex
        assert 1.8638 <= min(deltas.values()) and max(deltas.values()) <= 1.9136 + 1e-4
        assert deltas[1e9, 0.65] == pytest.approx(1.8967, abs=1e-4)

    @pytest.mark.parametrize("lam", [1e-6, 0.02, 0.03, 1.0, 1e3, 1e9, 1e15])
    def test_hypoexponential_formula_near_equal_rates(self, lam):
        for r in (0.0, 1e-12, 1e-8, 1e-5, 1e-4, 1e-3, 1.001e-3, 1e-2, 1e-1):
            l2 = lam * (1.0 - r)
            got = _hypo(np.array([lam]), np.array([l2]))[0] * math.log2(math.e)
            want = exp_e2(lambda a, b: L2(1 + a + b), lam, l2)
            assert abs(got - want) <= 1e-10, r

    def test_single_rate_at_zero_and_where_exp_overflows(self):
        assert _f(np.zeros(2)).tolist() == [0.0, 0.0]
        assert _hypo(np.zeros(2), np.zeros(2)).tolist() == [0.0, 0.0]
        lam = np.array([1e-300, 1e-3, 1.0 / 709.0, 1.0 / 800.0, 0.5, 1e15])
        assert np.allclose(_hypo(lam, np.zeros(lam.size)), _f(lam), rtol=1e-14, atol=0.0)
        for x, got in zip(lam, _f(lam) * math.log2(math.e)):
            assert abs(got - exp_e1(lambda w: L2(1 + x * w), 1.0)) <= 1e-10, x

    @pytest.mark.parametrize("snr", [1e3, 1e9, 1e15])
    @pytest.mark.parametrize("alpha", [0.65, 1.0])
    def test_trapezoid_matches_adaptive_quad(self, snr, alpha):
        inr = snr**alpha
        ch = ChannelSpec.symmetric(snr, inr)
        a = 0.3
        conditional = {  # each term given W_12 = w
            _log(_r("g11", "g12", a)): lambda w: _f(np.array([a * snr / (1 + a * w)])),
            _log(_w("g21"), _r("g11", "g12")):
                lambda w: _hypo(np.array([inr]), np.array([snr / (1 + w)])),
        }
        for term, cond in conditional.items():
            want = _adaptive_e1(lambda w: cond(w)[0], inr) * math.log2(math.e)
            assert abs(_rayleigh_term(term, ch) - want) <= 1e-10, term


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
