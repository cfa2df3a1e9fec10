"""The benchmark's workloads: inputs built from a seed, one timed pass, checks.

Each workload is a class. Constructing it is the set-up (building the
inputs from the seed); ``run()`` is one timed pass and returns the
program's raw outputs; ``evaluate()`` turns those outputs into certified
values and correctness checks. ``evaluate()`` runs outside the timed and
traced region, and its thresholds are computed here from the paper's
closed forms, not read back from the program.

A certified value is ``name -> (value, stderr)``; ``stderr`` is what the
program reported, or ``None`` where the program reports none (the sweep
table). ``layers`` lists the spans a traced pass must contain.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import numpy as np

import ffic
from ffic import afscheme, cli, fading

LOG2E = math.log2(math.e)
EULER_GAMMA = float(np.euler_gamma)
RAYLEIGH_GAP = EULER_GAMMA * LOG2E  # 0.8327 bits
QUAD_TOL = 1e-6  # stated accuracy of ffic's quadrature
SIGMA = 3.0  # the certificates' Monte Carlo slack, in standard errors
# Agreement with an exact or reference value, in standard errors: wide enough
# that none of the ~200 values of a run fails by chance over many runs.
K_SIGMA = 6.0


def gamma_gap(k: float) -> float:
    return LOG2E / k - math.log2(1.0 + 1.0 / (2.0 * k))


def weibull_gap(k: float) -> float:
    return EULER_GAMMA * LOG2E / k + math.log2(math.gamma(1.0 + 1.0 / k))


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run the CLI entry point in-process; return (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _mc_flags(seed: int, samples: int) -> list[str]:
    return ["--samples", str(samples), "--seed", str(seed)]


def _point_name(kind: str, pt: dict) -> str:
    name = f"gap-check.{kind}.snr{pt['snr']:g}.a{pt['alpha']:g}"
    return name + (f".rho{pt['rho_mag']:g}" if "rho_mag" in pt else "")


# The paper's closed-form Jensen-gap table: (shape, k, value rounded to 0.01).
GAP_TABLE = (
    ("rayleigh", None, 0.83), ("gamma", 1.0, 0.86), ("gamma", 2.0, 0.40),
    ("gamma", 3.0, 0.26), ("weibull", 1.0, 0.83), ("weibull", 2.0, 0.24),
    ("weibull", 3.0, 0.11),
)
GAP_KINDS = ("nofb", "fb", "imac", "static-nofb", "static-fb")
SWEEP_DB = (10, 20, 30, 40, 50, 60)
# Triangle pdf f(w) = w/2 on [0, 2]: E W = 4/3 and E ln W = ln 2 - 1/2.
TRIANGLE_GAP = math.log2(4.0 / 3.0) - (math.log(2.0) - 0.5) * LOG2E


class Certify:
    """The paper's certification table through the CLI entry point."""

    name = "certify"
    samples = 50_000
    layers = (
        "cli.main", "cli.pool_item",
        "fading.ComplexGainSampler.sample", "fading.FadingModel.sample_power",
        "fading.TabulatedPdf.sample", "fading.expected_log_shifted",
        "fading.jensen_gap_numeric",
        "mc.estimate_expectation", "mc.substream",
        "regions.nofb_inner", "regions.nofb_outer", "regions.nofb_achievable",
        "regions.fb_inner", "regions.fb_outer", "regions.imac_regions",
        "regions.static_equivalent", "regions.symmetric_sweep",
        "regions.region_gap", "regions.RateRegion.vertices",
    )

    def __init__(self, seed: int, samples: int | None = None):
        self.samples = samples or self.samples
        mc = _mc_flags(seed, self.samples)
        self.jensen_argv = [
            ["jensen-gap", "--shape", shape, *([] if k is None else ["--k", f"{k:g}"]), *mc]
            for shape, k, _ in GAP_TABLE
        ]
        ws = np.linspace(0.0, 2.0, 21)
        self.triangle = ffic.FadingModel.tabulated(ws, ws / 2.0, envelope=(0.5, 2.0))
        self.triangle_cfg = ffic.McConfig(samples=self.samples, seed=seed)
        self.gap_argv = [["gap-check", "--kind", kind, *mc] for kind in GAP_KINDS]
        self.sweep_argv = ["sweep", "--alpha", "0.5", "--snr-db-list",
                           *map(str, SWEEP_DB), "--format", "json", *mc]

    def run(self) -> dict:
        return {
            "jensen": [_cli(argv) for argv in self.jensen_argv],
            "triangle": fading.jensen_gap_numeric(self.triangle, cfg=self.triangle_cfg),
            "gap": [_cli(argv) for argv in self.gap_argv],
            "sweep": _cli(self.sweep_argv),
        }

    def evaluate(self, out: dict):
        cert, checks = {}, []
        for (shape, k, rounded), (code, text) in zip(GAP_TABLE, out["jensen"]):
            tag = f"jensen-gap.{shape}" + ("" if k is None else f"{k:g}")
            obj = json.loads(text)
            closed, gap, se = obj["closed_form"], obj["gap_at_zero"], obj["gap_stderr"]
            cert[f"{tag}.closed"] = (closed, 0.0)
            cert[f"{tag}.numeric"] = (gap, se)
            checks += [
                (f"{tag} exits 0 with pass", code == 0 and obj["pass"] is True),
                (f"{tag} closed form rounds to {rounded}", round(closed, 2) == rounded),
                (f"{tag} numeric <= closed + 3 sigma + 1e-6",
                 gap <= closed + SIGMA * se + QUAD_TOL),
            ]
            if shape == "rayleigh":
                checks.append(("Rayleigh numeric gap within 1e-6 of gamma*log2(e)",
                               abs(gap - RAYLEIGH_GAP) <= QUAD_TOL))

        tri = out["triangle"]
        cert["triangle.gap"] = (tri.gap_at_zero, tri.gap_stderr)
        checks.append((f"triangle gap {tri.gap_at_zero:.4f} within 6 sigma of exact "
                       f"{TRIANGLE_GAP:.4f}",
                       abs(tri.gap_at_zero - TRIANGLE_GAP) <= K_SIGMA * tri.gap_stderr))
        xi = [v for _, v in tri.xi_curve]
        ses = tri.xi_stderr
        checks.append(("triangle xi(a) non-increasing within 3 sigma", all(
            u >= v - SIGMA * (su + sv) for u, v, su, sv in zip(xi, xi[1:], ses, ses[1:]))))

        for kind, (code, text) in zip(GAP_KINDS, out["gap"]):
            obj = json.loads(text)
            checks.append((f"gap-check {kind} exits 0 with all_pass",
                           code == 0 and obj["all_pass"] is True))
            for pt in obj["points"]:
                name = _point_name(kind, pt)
                cert[f"{name}.delta"] = (pt["delta"], pt["stderr"])
                if "min_delta" in pt:
                    cert[f"{name}.min_delta"] = (pt["min_delta"], pt["stderr"])

        code, text = out["sweep"]
        rows = json.loads(text)["rows"]
        checks.append(("sweep exits 0 with one row per SNR",
                       code == 0 and [r["snr_db"] for r in rows] == list(SWEEP_DB)))
        for r in rows:
            for field in ("sym_inner", "sym_outer", "gap"):
                cert[f"sweep.{r['snr_db']:g}dB.{field}"] = (r[field], None)
        gap60 = rows[-1]["gap"]
        checks.append((f"60 dB sweep gap {gap60:.3f} is 1.48 +- 0.10", abs(gap60 - 1.48) <= 0.10))
        return cert, checks


class Tight:
    """The tightest certificate only: one grid point with huge arrays."""

    name = "tight"
    samples = 2_000_000
    layers = (
        "cli.main", "cli.pool_item",
        "fading.ComplexGainSampler.sample", "fading.FadingModel.sample_power",
        "mc.estimate_expectation", "mc.substream",
        "regions.fb_inner", "regions.fb_outer",
        "regions.region_gap", "regions.RateRegion.vertices",
    )

    def __init__(self, seed: int, samples: int | None = None):
        self.samples = samples or self.samples
        self.argv = ["gap-check", "--kind", "fb", "--snr-list", "1e6", "--alpha-list", "0.5",
                     "--rho-list", "0", *_mc_flags(seed, self.samples)]

    def run(self) -> tuple[int, str]:
        return _cli(self.argv)

    def evaluate(self, out):
        code, text = out
        obj = json.loads(text)
        (pt,) = obj["points"]
        bound = RAYLEIGH_GAP + 2.0
        cert = {f"{_point_name('fb', pt)}.delta": (pt["delta"], pt["stderr"])}
        checks = [
            ("gap-check fb exits 0 with all_pass", code == 0 and obj["all_pass"] is True),
            (f"delta {pt['delta']:.4f} <= c_JG + 2 + 3 sigma",
             pt["delta"] <= bound + SIGMA * pt["stderr"]),
        ]
        return cert, checks


ISI_SHAPES = (("rayleigh", None, RAYLEIGH_GAP), ("gamma", 2.0, gamma_gap(2.0)),
              ("weibull", 2.0, weibull_gap(2.0)))
SNR, INR = 100.0, 10.0


class Recursion:
    """The n-phase amplify-and-forward and ISI analyses (power draws, no regions)."""

    name = "recursion"
    samples = 200_000
    layers = (
        "afscheme.r1_rate", "afscheme.ky1_growth", "afscheme.isi_achievable_rate",
        "afscheme.nphase_corner_gap", "afscheme.r2_rate", "afscheme.tridiag_growth",
        "afscheme.cancellation_check",
        "fading.FadingModel.sample_power", "fading.ComplexGainSampler.sample",
        "mc.estimate_expectation", "mc.substream",
    )

    def __init__(self, seed: int, samples: int | None = None):
        self.samples = samples or self.samples
        self.cfg = ffic.McConfig(samples=self.samples, seed=seed)
        self.ch = ffic.ChannelSpec.symmetric(SNR, INR)
        self.cancel_seeds = [seed + i for i in range(20)]

    def run(self) -> dict:
        ch, cfg = self.ch, self.cfg
        return {
            "r1_rate": afscheme.r1_rate(ch, 64, cfg),
            "ky1_growth": afscheme.ky1_growth(ch, 64, cfg),
            "isi": [afscheme.isi_achievable_rate(SNR, INR, 128, cfg, shape=shape, k=k)
                    for shape, k, _ in ISI_SHAPES],
            "corner": afscheme.nphase_corner_gap(ch, RAYLEIGH_GAP, cfg),
            "tridiag": afscheme.tridiag_growth(3.0, 1.0, 200),
            "cancellation": [afscheme.cancellation_check(8, 16, s) for s in self.cancel_seeds],
        }

    def evaluate(self, out: dict):
        r1, ky1, corner, tri = out["r1_rate"], out["ky1_growth"], out["corner"], out["tridiag"]
        cert = {
            "r1_rate.n64": (r1.mean, r1.stderr),
            "ky1_growth.n64": (ky1.mean, ky1.stderr),
            "corner.gap_r1": (corner.gap_r1, corner.stderr),
            "corner.gap_r2": (corner.gap_r2, corner.stderr),
            "tridiag.a3b1.n200": (tri.limit_estimate, 0.0),
        }
        a, b = afscheme.khat_plugin_params(SNR, INR)
        plugin = afscheme.tridiag_growth(a, b, 64).limit_estimate
        checks = [
            ("criterion 6: growth >= plug-in growth - 3 c_JG - 3 sigma",
             ky1.mean >= plugin - 3.0 * RAYLEIGH_GAP - SIGMA * ky1.stderr),
            ("criterion 8: corner gap <= 2 + 3 c_JG + 3 sigma",
             corner.per_user_gap <= 2.0 + 3.0 * RAYLEIGH_GAP + SIGMA * corner.stderr),
            ("Toeplitz growth at n=200 within 0.01 of log2(3+sqrt5)-1",
             abs(tri.limit_estimate - (math.log2(3.0 + math.sqrt(5.0)) - 1.0)) < 0.01),
            ("cancellation residual < 1e-10 on every seed",
             all(rep.max_residual < 1e-10 for rep in out["cancellation"])),
        ]
        base = math.log2(1.0 + SNR + INR)
        for (shape, _, c_jg), est in zip(ISI_SHAPES, out["isi"]):
            cert[f"isi.{shape}.n128"] = (est.mean, est.stderr)
            lower, upper = base - 1.0 - 3.0 * c_jg, base + 1.0
            slack = SIGMA * est.stderr
            checks.append((f"criterion 9: {shape} ISI rate inside its sandwich",
                           lower - slack <= est.mean <= upper + slack))
        return cert, checks


WORKLOADS = {w.name: w for w in (Certify, Tight, Recursion)}
