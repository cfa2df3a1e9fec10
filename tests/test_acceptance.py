"""Acceptance suite.

Each test certifies one numbered criterion at its stated tolerance and
runtime budget and prints a single pass/fail line, so the suite doubles
as a human-readable certification report.  Thresholds derive from the
closed-form Jensen gap of the shape under test; statistical checks carry
a 3-standard-error slack so Monte Carlo noise cannot fake a theorem
violation.
"""

import math
import time

import numpy as np
import pytest

from ffic import (
    ChannelSpec,
    FadingModel,
    McConfig,
    PhaseDraw,
    cancellation_check,
    estimate_expectation,
    fb_inner,
    fb_outer,
    imac_regions,
    isi_achievable_rate,
    isi_bounds,
    jensen_gap_closed_form,
    jensen_gap_numeric,
    khat_plugin_params,
    ky1_dets,
    ky1_growth,
    nofb_inner,
    nofb_outer,
    nphase_corner_gap,
    region_gap,
    static_equivalent,
    substream,
    symmetric_sweep,
    tridiag_growth,
)
from ffic.cli import _margin
from test_afscheme import dense_log2det

RAYLEIGH_GAP = float(np.euler_gamma) * math.log2(math.e)  # 0.832746...
SNR_GRID = (10.0, 1e3, 1e6)
ALPHA_GRID = (0.25, 0.5, 1.0)
RHO_GRID = (0.0, 0.3, 0.7, 0.95)
QUAD_TOL = 1e-6


def _report(capsys, ok: bool, label: str, detail: str, elapsed: float, budget: float):
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    with capsys.disabled():
        print(f"[{status}] {label}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"{label}: {detail}"
    assert in_budget, f"{label}: runtime {elapsed:.1f}s exceeded {budget:.0f}s"


TABLE_MODELS = [
    FadingModel.rayleigh(1.0),
    FadingModel.gamma(1.0, 1.0),
    FadingModel.gamma(2.0, 1.0),
    FadingModel.gamma(3.0, 1.0),
    FadingModel.weibull(1.0, 1.0),
    FadingModel.weibull(2.0, 1.0),
    FadingModel.weibull(3.0, 1.0),
]
TABLE_ROUNDED = [0.83, 0.86, 0.40, 0.26, 0.83, 0.24, 0.11]


def test_criterion_1_table_reproduction(capsys):
    t0 = time.perf_counter()
    rounded, below = [], []
    for model in TABLE_MODELS:
        closed = jensen_gap_closed_form(model)
        numeric = jensen_gap_numeric(model, a_grid=[0.0])
        rounded.append(round(closed, 2))
        below.append(numeric.gap_at_zero
                     <= closed + 3.0 * numeric.gap_stderr + QUAD_TOL)
    ok = rounded == TABLE_ROUNDED and all(below)
    _report(capsys, ok, "criterion 1 (closed-form gap table)",
            f"rounded={rounded} numeric<=closed per shape={all(below)}",
            time.perf_counter() - t0, 10.0)


def test_criterion_2_symmetric_sweep_60db(capsys):
    t0 = time.perf_counter()
    cfg = McConfig(samples=1_000_000, seed=42)
    gaps = {}
    for alpha, target in ((0.5, 1.48), (0.25, 1.51)):
        row = symmetric_sweep(alpha, [60.0], cfg=cfg)[0]
        gaps[alpha] = (row.gap, target, abs(row.gap - target) <= 0.10)
    ok = all(v[2] for v in gaps.values())
    detail = " ".join(f"alpha={a}: gap={g:.3f} (target {t}+-0.10)"
                      for a, (g, t, _) in gaps.items())
    _report(capsys, ok, "criterion 2 (symmetric sweep at 60 dB)",
            detail, time.perf_counter() - t0, 120.0)


def test_criterion_3_gap_certification_suites(capsys):
    t0 = time.perf_counter()
    cfg = McConfig(samples=1_000_000, seed=42)
    grid = [(s, a) for s in SNR_GRID for a in ALPHA_GRID]
    failures = []
    bounds = {"nofb": 1.83, "fb": 2.83, "imac": 1.415,
              "static_nofb": 2 * RAYLEIGH_GAP, "static_fb": 3 * RAYLEIGH_GAP}
    # (delta, stderr) of the largest delta per suite, and of the smallest
    # static delta, which must stay above zero
    worst = {name: (-math.inf, 0.0) for name in bounds}
    lowest = {"static_nofb": (math.inf, 0.0), "static_fb": (math.inf, 0.0)}

    def track(name, delta, se):
        worst[name] = max(worst[name], (delta, se))
        if name in lowest:
            lowest[name] = min(lowest[name], (delta, se))

    for snr, alpha in grid:
        ch = ChannelSpec.symmetric(snr, snr**alpha)

        fading = nofb_inner(ch, cfg)  # also the fading side of static_nofb
        gap = region_gap(nofb_outer(ch, cfg), fading)
        track("nofb", gap.delta_vertex, gap.delta_vertex_stderr)
        if gap.delta_vertex > 1.83 + 3.0 * gap.delta_vertex_stderr:
            failures.append(("nofb", snr, alpha, gap.delta_vertex))

        inner, outer = imac_regions(ch, cfg)
        gap = region_gap(outer, inner)
        track("imac", gap.delta_vertex, gap.delta_vertex_stderr)
        if gap.delta_vertex > 1.415 + 3.0 * gap.delta_vertex_stderr:
            failures.append(("imac", snr, alpha, gap.delta_vertex))

        static = static_equivalent(ch)
        for fc, sc in zip(fading.constraints, static.constraints):
            d = (sc.bound - fc.bound) / fc.weight
            se = fc.bound_stderr / fc.weight
            track("static_nofb", d, se)
            if not (-3.0 * se <= d <= 2.0 * RAYLEIGH_GAP + 3.0 * se):
                failures.append(("static_nofb", snr, alpha, fc.label, d))

        for rho in RHO_GRID:
            inner = fb_inner(ch, complex(rho), cfg)
            outer = fb_outer(ch, complex(rho), cfg)
            gap = region_gap(outer, inner)
            track("fb", gap.delta_vertex, gap.delta_vertex_stderr)
            if gap.delta_vertex > 2.83 + 3.0 * gap.delta_vertex_stderr:
                failures.append(("fb", snr, alpha, rho, gap.delta_vertex))

            static = static_equivalent(ch, complex(rho))
            for fc, sc in zip(inner.constraints, static.constraints):
                d = (sc.bound - fc.bound) / fc.weight
                se = fc.bound_stderr / fc.weight
                track("static_fb", d, se)
                if not (-3.0 * se <= d <= 3.0 * RAYLEIGH_GAP + 3.0 * se):
                    failures.append(("static_fb", snr, alpha, rho, fc.label, d))

    detail = "worst deltas: " + " ".join(
        f"{name}={worst[name][0]:.3f}<={bound:.3f} "
        f"margin={_margin(bound - worst[name][0], worst[name][1])}"
        + (f" min_margin={_margin(*lowest[name])}" if name in lowest else "")
        for name, bound in bounds.items()
    ) + (f" failures={failures[:4]}" if failures else "")
    _report(capsys, not failures, "criterion 3 (gap certification grids)",
            detail, time.perf_counter() - t0, 600.0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the no-feedback vertex gap exceeds c_JG + 1 off the "
           "default grid, at the axis corner where inner_nofb6 caps R1",
)
@pytest.mark.parametrize("shape, k, snr, alpha", [
    *(("rayleigh", None, snr, alpha) for snr in (1e9, 1e12) for alpha in (0.6, 0.65, 0.7)),
    ("gamma", 5.0, 1e3, 0.65), ("gamma", 2.0, 10.0**4.5, 0.65),
])
def test_criterion_3_nofb_off_grid(capsys, shape, k, snr, alpha):
    # Every nofb term on these laws is exact, so delta has zero standard
    # error: 1.8638 to 1.9136 bits on Rayleigh links (test_regions.py pins
    # the values), and margins of -0.099 and -0.138 bits on Gamma k = 5, 2.
    t0 = time.perf_counter()
    ch = ChannelSpec.symmetric(snr, snr**alpha, shape=shape, k=k)
    gap = region_gap(nofb_outer(ch), nofb_inner(ch))
    bound = jensen_gap_closed_form(ch.g11) + 1.0
    _report(capsys, gap.delta_vertex <= bound,
            f"criterion 3 off-grid (nofb, {shape} k={k}, snr={snr:g}, alpha={alpha})",
            f"delta={gap.delta_vertex:.4f}<={bound:.4f} "
            f"margin={_margin(bound - gap.delta_vertex, gap.delta_vertex_stderr)}",
            time.perf_counter() - t0, 10.0)


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3: off Rayleigh the static plug-in's aligned phase "
           "exceeds the fading coherent term inner_fb1 by more than 3 c_JG",
)
@pytest.mark.parametrize("shape, k, snr, alpha, rho", [  # default grid points
    ("gamma", 2.0, 1e6, 1.0, 0.95),
    ("weibull", 2.0, 1e6, 1.0, 0.95), ("weibull", 2.0, 1e3, 1.0, 0.7),
    ("gamma", 5.0, 1e6, 1.0, 0.95), ("gamma", 5.0, 10.0, 0.25, 0.7),
])
def test_criterion_3_static_fb_off_rayleigh(capsys, shape, k, snr, alpha, rho):
    # `gap-check --kind static-fb --samples 200000 --seed 1` fails at each
    # point, by 18 to 323 standard errors.
    t0 = time.perf_counter()
    ch = ChannelSpec.symmetric(snr, snr**alpha, shape=shape, k=k)
    gap = region_gap(static_equivalent(ch, complex(rho)),
                     fb_inner(ch, complex(rho), McConfig(200_000, seed=42)))
    bound = 3.0 * jensen_gap_closed_form(ch.g11)
    label, d, se = max(gap.per_constraint, key=lambda x: x[1])
    _report(capsys, all(-3.0 * s <= x <= bound + 3.0 * s for _, x, s in gap.per_constraint),
            f"criterion 3 static-fb ({shape} k={k}, snr={snr:g}, alpha={alpha}, rho={rho})",
            f"{label} delta={d:.4f}<={bound:.4f} margin={_margin(bound - d, se)}",
            time.perf_counter() - t0, 10.0)


def test_criterion_4_determinant_recursion_oracle(capsys):
    t0 = time.perf_counter()
    ch = ChannelSpec.symmetric(100.0, 10.0)
    rng = substream(2024, (0,))
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        draw = PhaseDraw.draw(ch, n, rng)
        got = ky1_dets(draw, 10.0).log2_values[-1]
        want = dense_log2det(draw, 10.0, n)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-300))
    _report(capsys, worst < 1e-9, "criterion 4 (recursion vs dense determinant)",
            f"max relative error {worst:.2e} over 100 draws, n<=12",
            time.perf_counter() - t0, 5.0)


def test_criterion_5_toeplitz_asymptotics(capsys):
    t0 = time.perf_counter()
    g = tridiag_growth(3.0, 1.0, 200)
    checks = [
        np.allclose(g.dets.values[:4], [3.0, 8.0, 21.0, 55.0]),
        abs(g.limit_estimate - (math.log2(3.0 + math.sqrt(5.0)) - 1.0)) < 0.01,
        bool(np.all(g.dets.growth >= math.log2(3.0) - 1.0 - 1e-12)),
    ]
    _report(capsys, all(checks), "criterion 5 (tridiagonal growth, a=3 b=1)",
            f"dets start 3,8,21,55={checks[0]} |growth(200)-closed|<0.01={checks[1]} "
            f"lower bound every n={checks[2]}",
            time.perf_counter() - t0, 1.0)


def test_criterion_6_determinant_growth_inequality(capsys):
    t0 = time.perf_counter()
    ch = ChannelSpec.symmetric(100.0, 10.0)
    a, b = khat_plugin_params(100.0, 10.0)
    cfg = McConfig(samples=100_000, seed=7)
    slacks = {}
    ok = True
    for n in (8, 32, 64):
        est = ky1_growth(ch, n, cfg)
        khat = tridiag_growth(a, b, n).limit_estimate
        slack = est.mean - (khat - 3.0 * RAYLEIGH_GAP)
        slacks[n] = (slack, est.stderr)
        ok &= slack >= -3.0 * est.stderr
    _report(capsys, ok, "criterion 6 (growth >= plug-in - 3*c_JG)",
            "margins " + " ".join(f"n={n}: {_margin(*m)}" for n, m in slacks.items()),
            time.perf_counter() - t0, 180.0)


def test_criterion_7_telescoping_cancellation(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for n, blocks in ((2, 1), (4, 8), (8, 16)):
        for seed in range(20):
            rep = cancellation_check(n, blocks, seed=seed)
            worst = max(worst, rep.max_residual)
    _report(capsys, worst < 1e-10, "criterion 7 (telescoping cancellation)",
            f"max relative residual {worst:.2e} over 60 runs",
            time.perf_counter() - t0, 5.0)


def test_criterion_8_corner_gaps_and_log_clamp(capsys):
    t0 = time.perf_counter()
    cfg = McConfig(samples=1_000_000, seed=8)
    ray = nphase_corner_gap(ChannelSpec.symmetric(100.0, 10.0), RAYLEIGH_GAP, cfg)
    det = nphase_corner_gap(
        ChannelSpec.symmetric(100.0, 10.0, shape="deterministic"),
        0.0, McConfig(samples=2, seed=8),
    )
    x = np.geomspace(1e-6, 1e6, 10_000)
    clamp_ok = bool(np.all(np.log2(1.0 + x) - np.maximum(np.log2(x), 0.0) <= 1.0 + 1e-12))
    checks = [
        ray.per_user_gap <= 4.49 + 3.0 * ray.stderr,
        det.per_user_gap <= 2.0 + 3.0 * det.stderr + 1e-9,
        clamp_ok,
    ]
    _report(capsys, all(checks), "criterion 8 (corner-point gaps)",
            f"rayleigh per-user {ray.per_user_gap:.3f}<=4.49 "
            f"margin={_margin(4.49 - ray.per_user_gap, ray.stderr)} "
            f"deterministic {det.per_user_gap:.3f}<=2 "
            f"margin={_margin(2.0 - det.per_user_gap, det.stderr)} "
            f"log-clamp<=1bit={clamp_ok}",
            time.perf_counter() - t0, 120.0)


def test_criterion_9_isi_sandwich(capsys):
    t0 = time.perf_counter()
    rng = substream(9, (0,))
    width_ok = True
    for _ in range(50):
        snr = 10.0 ** rng.uniform(-1.0, 6.0)
        inr = 10.0 ** rng.uniform(-1.0, 6.0)
        lower, upper = isi_bounds(snr, inr, RAYLEIGH_GAP)
        width_ok &= abs((upper - lower) - (2.0 + 3.0 * RAYLEIGH_GAP)) < 1e-9
    inside = True
    margins = {}
    for snr, inr in ((100.0, 10.0), (1e3, 31.6), (20.0, 200.0)):
        lower, upper = isi_bounds(snr, inr, RAYLEIGH_GAP)
        est = isi_achievable_rate(snr, inr, 128, McConfig(samples=30_000, seed=10))
        inside &= lower - 3.0 * est.stderr <= est.mean <= upper + 3.0 * est.stderr
        margins[(snr, inr)] = (est.mean - lower, upper - est.mean, est.stderr)
    _report(capsys, width_ok and inside, "criterion 9 (ISI capacity sandwich)",
            f"width==2+3c_JG on 50 draws={width_ok}; achievable inside sandwich "
            "at n=128: " + "; ".join(
                f"snr={snr:g} inr={inr:g} lower margin={_margin(lo, se)} "
                f"upper margin={_margin(up, se)}"
                for (snr, inr), (lo, up, se) in margins.items()),
            time.perf_counter() - t0, 180.0)


def test_criterion_10_property_suites(capsys):
    t0 = time.perf_counter()
    problems = []

    # xi non-increasing with its maximum at a = 0, every supported shape
    quadrature_models = TABLE_MODELS + [FadingModel.deterministic(5.0)]
    for model in quadrature_models:
        res = jensen_gap_numeric(model)
        values = [xi for _, xi in res.xi_curve]
        if not all(u >= v - 1e-9 for u, v in zip(values, values[1:])):
            problems.append(("xi monotone", model.shape, model.k))
        if res.gap_at_zero < max(values) - 1e-9:
            problems.append(("xi max at zero", model.shape, model.k))
    ws = np.linspace(0.0, 2.0, 21)
    tri = FadingModel.tabulated(ws, ws / 2.0, envelope=(0.5, 2.0))
    res = jensen_gap_numeric(tri, cfg=McConfig(samples=100_000, seed=11))
    values = [xi for _, xi in res.xi_curve]
    ses = res.xi_stderr
    if not all(u >= v - 3.0 * (su + sv)
               for u, v, su, sv in zip(values, values[1:], ses, ses[1:])):
        problems.append(("xi monotone", "tabulated"))

    # gap invariant to mean power
    for make in (FadingModel.rayleigh, lambda m: FadingModel.gamma(2.0, m),
                 lambda m: FadingModel.weibull(3.0, m)):
        gaps = [jensen_gap_numeric(make(m), a_grid=[0.0]).gap_at_zero
                for m in (1e-2, 1.0, 1e2, 1e4)]
        if max(gaps) - min(gaps) > QUAD_TOL:
            problems.append(("mean-power invariance", make(1.0).shape))
    tri_gaps = []
    for m in (1e-2, 1.0, 1e2):
        scaled = FadingModel.tabulated(ws * 1.5 * m, ws / (2.0 * 1.5 * m),
                                       envelope=(0.5 / (1.5 * m) ** 2, 2.0))
        r = jensen_gap_numeric(scaled, a_grid=[0.0], cfg=McConfig(samples=100_000, seed=12))
        tri_gaps.append((r.gap_at_zero, r.gap_stderr))
    spread = max(g for g, _ in tri_gaps) - min(g for g, _ in tri_gaps)
    if spread > 3.0 * 2.0 * max(s for _, s in tri_gaps):
        problems.append(("mean-power invariance", "tabulated", spread))

    # byte-identical reruns
    ch = ChannelSpec.symmetric(100.0, 10.0)
    cfg = McConfig(samples=50_000, seed=13)
    e1 = estimate_expectation(lambda w: np.log2(1 + w), [ch.g11], cfg)
    e2 = estimate_expectation(lambda w: np.log2(1 + w), [ch.g11], cfg)
    if e1 != e2:
        problems.append(("reproducibility", "estimate"))
    r1 = nofb_inner(ch, cfg)
    r2 = nofb_inner(ch, cfg)
    if r1 != r2:
        problems.append(("reproducibility", "region"))

    # outer contains inner on random symmetric specs
    rng = substream(14, (0,))
    cfg = McConfig(samples=30_000, seed=15)
    for _ in range(20):
        snr = 10.0 ** rng.uniform(0.0, 5.0)
        inr = 10.0 ** rng.uniform(-0.5, 4.0)
        spec = ChannelSpec.symmetric(snr, inr)
        inner = nofb_inner(spec, cfg)
        outer = nofb_outer(spec, cfg)
        for v in inner.vertices():
            if not outer.contains(v[0], v[1], stderr_mult=3.0):
                problems.append(("outer contains inner", snr, inr, v))

    # Full-capacity converse claims are not desk-verifiable; acceptance
    # rests on the inequality and identity suites above.
    _report(capsys, not problems, "criterion 10 (property suites)",
            "xi monotone/max@0, mean-power invariance, reproducibility, "
            "outer>=inner" + (f" problems={problems[:4]}" if problems else " all hold"),
            time.perf_counter() - t0, 300.0)
