"""Command-line interface: outputs, determinism, exit codes."""

import cmath
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import ffic
from ffic import (
    ChannelSpec,
    FadingModel,
    McConfig,
    fb_inner,
    fb_outer,
    imac_regions,
    jensen_gap_closed_form,
    nofb_achievable,
    nofb_inner,
    nofb_outer,
    region_gap,
    static_equivalent,
    symmetric_sweep,
)
from ffic.cli import _emit_csv, _emit_json, build_parser, main


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SMALL = ["--samples", "20000", "--seed", "5"]


class TestJensenGap:
    def test_gamma_k2_table_value(self, capsys):
        code, out, err = run(["jensen-gap", "--shape", "gamma", "--k", "2"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        assert round(obj["closed_form"], 2) == 0.40
        assert obj["gap_at_zero"] <= obj["closed_form"] + 1e-6
        assert obj["metadata"]["seed"] == 5
        assert "closed_form_bound_bits" in err

    @pytest.mark.parametrize("k", ["0.01", "0.001"])
    def test_weibull_small_k_matches_closed_form(self, k, capsys):
        # Gamma(1 + 1/k) is 100! at k = 0.01 and overflows a float at k =
        # 0.001, and W = lambda * E^(1/k) under- and overflows; the integral
        # over ln G works in log2 W.  The suite turns any IntegrationWarning
        # into a failure
        code, out, _ = run(["jensen-gap", "--shape", "weibull", "--k", k] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["gap_at_zero"] == pytest.approx(obj["closed_form"], rel=1e-9)

    def test_deterministic(self, capsys):
        code, out, _ = run(["jensen-gap", "--shape", "deterministic"] + SMALL, capsys)
        assert code == 0
        assert json.loads(out)["gap_at_zero"] == 0.0


    @pytest.mark.parametrize("argv", [
        ["--shape", "gamma", "--k", "0.05", "--mean-power", "1e308"],
        ["--shape", "deterministic", "--mean-power", "1e308"],
        ["--shape", "rayleigh", "--mean-power", "1.7e308"],
    ], ids=["gamma0.05", "deterministic", "rayleigh"])
    def test_float_limit_mean_power_gives_a_finite_curve(self, argv, capsys):
        # a + E W passes the float limit at the top of the xi grid; the suite
        # turns an overflow warning into a failure
        code, out, _ = run(["jensen-gap"] + argv + SMALL, capsys)
        assert code == 0
        xi = [v for _, v in json.loads(out)["xi_curve"]]
        assert all(math.isfinite(v) for v in xi)
        assert all(u >= v - 1e-9 for u, v in zip(xi, xi[1:]))  # non-increasing


class TestRegion:
    def test_deterministic_inner_bound(self, capsys):
        code, out, _ = run(
            ["region", "--kind", "nofb-inner", "--shape", "deterministic",
             "--snr", "15", "--inr", "1"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        first = obj["constraints"][0]
        assert first["label"] == "inner_nofb1"
        assert first["bound"] == pytest.approx(math.log2(17.0) - 1.0)
        assert first["stderr"] == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run(
            ["region", "--kind", "nofb-outer", "--shape", "deterministic",
             "--snr", "4", "--inr", "1", "--format", "csv"] + SMALL, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("#") and "seed=5" in lines[0]
        assert lines[1] == "label,c1,c2,bound,stderr"
        assert len(lines) == 2 + 7

    def test_fb_region_with_rho(self, capsys):
        code, out, _ = run(
            ["region", "--kind", "fb-inner", "--shape", "deterministic", "--snr", "9",
             "--inr", "4", "--rho-mag", "1.0"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["constraints"][0]["bound"] == pytest.approx(math.log2(26.0) - 1.0)

    @pytest.mark.parametrize("kind", ["nofb-inner", "nofb-outer", "nofb-achievable",
                                      "imac-inner", "imac-outer"])
    def test_float_limit_powers_give_finite_bounds(self, kind, capsys):
        # every term of these kinds is exact on Rayleigh links and summed in
        # logs, so no bound overflows and nothing warns
        code, out, err = run(["region", "--kind", kind, "--snr", "1e308", "--inr", "1e308"]
                             + SMALL, capsys)
        assert (code, err) == (0, "")
        assert all(math.isfinite(c["bound"]) for c in json.loads(out)["constraints"])

    @pytest.mark.parametrize("argv", [
        ["region", "--kind", "static-nofb"],
        ["region", "--kind", "static-fb", "--rho-mag", "0.7"],
        ["region", "--kind", "nofb-outer", "--shape", "deterministic"],
        ["gap-check", "--kind", "static-nofb", "--alpha-list", "1"],
        ["gap-check", "--kind", "nofb", "--shape", "deterministic", "--alpha-list", "1"],
        ["af", "--mode", "corners", "--shape", "deterministic"],
    ], ids=["static-nofb", "static-fb", "nofb-outer", "gap-check-static-nofb",
            "gap-check-nofb", "af-corners"])
    def test_static_terms_at_the_float_limit_are_finite(self, argv, capsys):
        # each static term's float sum overflows here and is taken another way;
        # the JSON refuses NaN and infinities, and warnings fail the suite
        powers = ["--snr-list", "1e308"] if argv[0] == "gap-check" else ["--snr", "1e308",
                                                                          "--inr", "1e308"]
        code, out, err = run(argv + powers + SMALL, capsys)
        assert code == 0, err
        assert json.loads(out)

    @pytest.mark.parametrize("power", ["1e17", "1e300"])
    @pytest.mark.parametrize("kind, label, bound", [("fb-outer", "outer_fb1", 0.0),
                                                    ("static-fb", "inner_fb1", -1.0)])
    def test_coherent_term_at_c_minus_one_and_equal_powers_cancels_exactly(
            self, kind, label, bound, power, capsys):
        # 1 + W + W - 2W = 1 at rho = -1: the static coherent term is exactly 0 bits
        code, out, err = run(["region", "--kind", kind, "--shape", "deterministic",
                              "--snr", power, "--inr", power, "--rho-mag", "1",
                              "--theta", str(math.pi), "--format", "csv"] + SMALL, capsys)
        assert (code, err) == (0, "")
        assert f"\n{label},1,0,{bound},0.0\n" in out

    def test_ratio_denominator_without_a_log_rule_is_drawn(self, capsys):
        # Gamma k = 1e-4 needs a log rule past the node cap: the plain terms
        # stay exact and each ratio term falls back to Monte Carlo
        code, out, err = run(["region", "--kind", "nofb-outer", "--shape", "gamma",
                              "--k", "1e-4", "--snr", "1e15", "--inr", "1e9"] + SMALL, capsys)
        assert (code, err) == (0, "")
        stderrs = {c["label"]: c["stderr"] for c in json.loads(out)["constraints"]}
        assert stderrs["outer_nofb1"] == 0.0 and stderrs["outer_nofb3"] > 0.0


# Each `region --kind` and the library call it stands for, at rho = 0.5 e^{i}.
REGION_KINDS = {
    "nofb-inner": lambda ch, rho, cfg: nofb_inner(ch, cfg),
    "nofb-outer": lambda ch, rho, cfg: nofb_outer(ch, cfg),
    "nofb-achievable": lambda ch, rho, cfg: nofb_achievable(ch, cfg),
    "fb-inner": lambda ch, rho, cfg: fb_inner(ch, rho, cfg),
    "fb-outer": lambda ch, rho, cfg: fb_outer(ch, rho, cfg),
    "imac-inner": lambda ch, rho, cfg: imac_regions(ch, cfg)[0],
    "imac-outer": lambda ch, rho, cfg: imac_regions(ch, cfg)[1],
    "static-nofb": lambda ch, rho, cfg: static_equivalent(ch),
    "static-fb": lambda ch, rho, cfg: static_equivalent(ch, rho),
}


class TestEveryKind:
    """Every `region` and `gap-check` kind, run through the CLI and checked
    against the library calls it maps to."""

    TINY = ["--samples", "3000", "--seed", "7"]
    RHO = 0.5 * cmath.exp(1j)

    @pytest.mark.parametrize("kind", list(REGION_KINDS))
    def test_region_kind_matches_library(self, kind, capsys):
        code, out, err = run(
            ["region", "--kind", kind, "--snr", "100", "--inr", "10", "--snr2", "50",
             "--inr2", "20", "--rho-mag", "0.5", "--theta", "1"] + self.TINY, capsys)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        ch = ChannelSpec.from_mean_powers(100.0, 50.0, 10.0, 20.0)
        want = REGION_KINDS[kind](ch, self.RHO, McConfig(samples=3000, seed=7)).to_json()
        assert obj.pop("metadata") == {"seed": 7, "samples": 3000, "numpy": np.__version__,
                                       "version": f"ffic {ffic.__version__}"}
        assert obj == want

    @pytest.mark.parametrize("kind, threshold, pair", [
        ("nofb", lambda c: c + 1.0,
         lambda ch, rho, cfg: (nofb_outer(ch, cfg), nofb_inner(ch, cfg))),
        ("fb", lambda c: c + 2.0,
         lambda ch, rho, cfg: (fb_outer(ch, rho, cfg), fb_inner(ch, rho, cfg))),
        ("imac", lambda c: 1.0 + c / 2.0,
         lambda ch, rho, cfg: imac_regions(ch, cfg)[::-1]),
        ("static-nofb", lambda c: 2.0 * c,
         lambda ch, rho, cfg: (static_equivalent(ch), nofb_inner(ch, cfg))),
        ("static-fb", lambda c: 3.0 * c,
         lambda ch, rho, cfg: (static_equivalent(ch, rho), fb_inner(ch, rho, cfg))),
    ], ids=lambda v: v if isinstance(v, str) else "")
    def test_gap_check_kind_matches_library(self, kind, threshold, pair, capsys):
        code, out, err = run(
            ["gap-check", "--kind", kind, "--shape", "gamma", "--k", "2",
             "--snr-list", "100", "--alpha-list", "0.5", "--rho-list", "0.5"]
            + self.TINY, capsys)
        assert code == 0
        obj = json.loads(out)
        c_jg = jensen_gap_closed_form(FadingModel.gamma(2.0))
        assert (obj["kind"], obj["jensen_gap"]) == (kind, c_jg)
        assert obj["threshold"] == threshold(c_jg)
        (pt,) = obj["points"]
        feedback = kind in ("fb", "static-fb")
        ch = ChannelSpec.symmetric(100.0, 10.0, shape="gamma", k=2.0)
        upper, lower = pair(ch, 0.5 if feedback else None, McConfig(samples=3000, seed=7))
        if kind.startswith("static"):
            # per rate, constraint by constraint: the fading bound sits below the static one
            deltas = [(u.bound - lo.bound) / u.weight
                      for u, lo in zip(upper.constraints, lower.constraints, strict=True)]
            ses = [math.hypot(u.bound_stderr, lo.bound_stderr) / u.weight
                   for u, lo in zip(upper.constraints, lower.constraints)]
            want = {"delta": max(deltas), "min_delta": min(deltas), "stderr": max(ses)}
        else:
            gap = region_gap(upper, lower)
            want = {"delta": gap.delta_vertex, "stderr": gap.delta_vertex_stderr}
        want.update(snr=100.0, alpha=0.5, **({"rho_mag": 0.5} if feedback else {}))
        assert pt.pop("pass") is True
        assert pt == pytest.approx(want, rel=1e-12, abs=1e-15)
        (line,) = err.splitlines()
        assert line.startswith("PASS snr=100 alpha=0.5")


class TestGapCheck:
    def test_small_grid_passes(self, capsys):
        code, out, err = run(
            ["gap-check", "--kind", "nofb", "--shape", "rayleigh",
             "--snr-list", "100", "--alpha-list", "0.5"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["all_pass"] is True
        assert obj["threshold"] == pytest.approx(1.8327461772768672)
        assert len(obj["points"]) == 1
        assert "PASS" in err

    def test_fb_grid_includes_rho(self, capsys):
        code, out, _ = run(
            ["gap-check", "--kind", "fb", "--snr-list", "100",
             "--alpha-list", "0.5", "--rho-list", "0.0", "0.7"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        assert [p["rho_mag"] for p in obj["points"]] == [0.0, 0.7]

    def test_static_kind(self, capsys):
        code, out, _ = run(
            ["gap-check", "--kind", "static-nofb", "--snr-list", "100",
             "--alpha-list", "0.5"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["points"][0]["min_delta"] >= -3.0 * obj["points"][0]["stderr"]


    @pytest.mark.parametrize("kind", ["fb", "static-fb"])
    def test_lines_state_margins_in_bits_and_sigma(self, kind, capsys):
        code, out, err = run(
            ["gap-check", "--kind", kind, "--snr-list", "100",
             "--alpha-list", "0.5", "--rho-list", "0.5"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        (pt,) = obj["points"]
        (line,) = [ln for ln in err.splitlines() if ln.startswith("PASS")]
        m = re.search(r" margin=(\S+) bits \((\S+) σ\)", line)
        assert m, line
        margin, sigmas = float(m.group(1)), float(m.group(2))
        assert margin == pytest.approx(obj["threshold"] - pt["delta"], abs=1e-4)
        assert sigmas == pytest.approx(margin / pt["stderr"], abs=0.1, rel=1e-3)
        m = re.search(r" min_margin=(\S+) bits \((\S+) σ\)", line)
        if kind == "fb":
            assert m is None and "min_delta" not in pt
        else:
            assert float(m.group(1)) == pytest.approx(pt["min_delta"], abs=1e-4)
            assert float(m.group(2)) == pytest.approx(
                pt["min_delta"] / pt["stderr"], abs=0.1, rel=1e-3)


    @pytest.mark.parametrize("kind, draws", [("fb", 36), ("static-fb", 18)])
    def test_default_grid_draws_once_per_channel(self, kind, draws, monkeypatch, capsys):
        # 9 channels, 2 chunks of 50k draws and one drawn term per feedback
        # bound: the 4 rho of a channel read the same draws
        calls = []
        real = ffic.ComplexGainSampler.sample

        def count(sampler, rng, size):
            calls.append(size)
            return real(sampler, rng, size)

        monkeypatch.setattr(ffic.ComplexGainSampler, "sample", count)
        code, out, _ = run(["gap-check", "--kind", kind, "--samples", "50000", "--seed", "1"],
                           capsys)
        assert code == 0
        assert len(calls) == draws
        points = json.loads(out)["points"]
        assert [p["rho_mag"] for p in points] == [0.0, 0.3, 0.7, 0.95] * 9


class TestSweep:
    def test_csv_table(self, capsys):
        code, out, _ = run(
            ["sweep", "--alpha", "0.5", "--snr-db-list", "10", "20",
             "--shape", "deterministic"] + SMALL, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "snr_db,alpha,sym_inner,sym_outer,gap"
        assert len(lines) == 4
        first = lines[2].split(",")
        assert float(first[0]) == 10.0 and float(first[1]) == 0.5

    def test_json_rows_are_the_sweep(self, capsys):
        code, out, _ = run(
            ["sweep", "--alpha", "0.5", "--snr-db-list", "10", "20",
             "--shape", "deterministic", "--format", "json"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        want = symmetric_sweep(0.5, [10.0, 20.0], shape="deterministic",
                               cfg=McConfig(samples=20000, seed=5))
        assert obj["rows"] == [dataclasses.asdict(row) for row in want]
        assert obj["metadata"]["samples"] == 20000


class TestAf:
    def test_tridiag_csv(self, capsys):
        code, out, _ = run(
            ["af", "--mode", "tridiag", "--a", "3", "--b", "1",
             "--n-list", "4", "200"] + SMALL, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "a,b,n,growth,closed_form"
        last = lines[-1].split(",")
        assert abs(float(last[3]) - float(last[4])) < 0.01

    def test_cancellation_json(self, capsys):
        code, out, _ = run(
            ["af", "--mode", "cancellation", "--n", "4", "--blocks", "8",
             "--seed", "3"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["max_residual"] < 1e-10
        assert obj["n"] == 4 and obj["N"] == 8

    def test_r1_csv(self, capsys):
        code, out, _ = run(
            ["af", "--mode", "r1", "--snr", "100", "--inr", "10",
             "--n-list", "8", "--samples", "2000", "--seed", "1"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        cells = list(ffic.afscheme.DE_CELLS)
        assert lines[0] == (f"# backend=density_evolution grid_cells={cells} "
                            f"numpy={np.__version__} scipy={scipy.__version__} "
                            f"version=ffic {ffic.__version__}")
        assert lines[1] == "n,r1_estimate,lower_bound_at_n,error"
        n, est, lower, error = lines[2].split(",")
        assert float(est) >= float(lower)
        assert 0.0 < float(error) < 1e-3

    # --mode r1's law flags, and the law that gives its c_JG
    R1_LAWS = {
        "deterministic": (["--shape", "deterministic"], FadingModel.deterministic(1.0)),
        "rayleigh": ([], FadingModel.rayleigh()),
        "gamma0.5": (["--shape", "gamma", "--k", "0.5"], FadingModel.gamma(0.5)),
        "gamma2": (["--shape", "gamma", "--k", "2"], FadingModel.gamma(2.0)),
        "weibull2": (["--shape", "weibull", "--k", "2"], FadingModel.weibull(2.0)),
    }

    @pytest.mark.parametrize("snr, inr", [(1e10, 1e10), (1e50, 1e50), (1e103, 1e103),
                                          (100.0, 10.0)])
    @pytest.mark.parametrize("law", list(R1_LAWS))
    def test_r1_meets_its_bound_at_every_n(self, law, snr, inr, capsys):
        # the column is log2(1+SNR+INR) - 3 c_JG - 2 - (log2(1+INR) - 1)/n;
        # the n -> infinity bound, without the last term, is above r1 at
        # n = 64 on a static channel at 1e10 and a Rayleigh one at 1e50
        flags, model = self.R1_LAWS[law]
        code, out, err = run(["af", "--mode", "r1", "--snr", repr(snr), "--inr", repr(inr),
                              "--n-list", "1", "8", "64", *flags], capsys)
        assert (code, err) == (0, "")
        lines = out.strip().splitlines()
        assert lines[1] == "n,r1_estimate,lower_bound_at_n,error"
        c_jg = jensen_gap_closed_form(model)
        for line, want_n in zip(lines[2:], (1, 8, 64), strict=True):
            n, est, lower, error = line.split(",")
            assert int(n) == want_n
            want = (math.log2(1.0 + snr + inr) - 3.0 * c_jg - 2.0
                    - (math.log2(1.0 + inr) - 1.0) / want_n)
            assert float(lower) == pytest.approx(want, rel=1e-15, abs=1e-12)
            assert float(est) >= float(lower) - 3.0 * float(error)

    @pytest.mark.parametrize("argv", [
        ["--snr", "1e300", "--inr", "1e300"],
        ["--shape", "weibull", "--k", "0.005"],
    ], ids=["powers-1e300", "weibull-k0.005"])
    def test_r1_extreme_inputs_are_finite(self, argv, capsys):
        # density evolution runs in ln W, so nothing overflows: a finite
        # value and error bound, and no warning
        code, out, err = run(["af", "--mode", "r1", "--n-list", "4", *argv] + SMALL, capsys)
        assert (code, err) == (0, "")
        n, est, lower, error = out.strip().splitlines()[2].split(",")
        assert math.isfinite(float(est)) and 0.0 <= float(error) < 1.0

    def test_r1_bound_past_the_float_limit_is_finite(self, capsys):
        # 1 + SNR + INR overflows, and its log2 is 1 + log2(1e308)
        code, out, err = run(["af", "--mode", "r1", "--snr", "1e308", "--inr", "1e308",
                              "--n-list", "4"] + SMALL, capsys)
        assert (code, err) == (0, "")
        n, est, lower, error = out.strip().splitlines()[2].split(",")
        c_jg = jensen_gap_closed_form(FadingModel.rayleigh(1.0))
        want = 1.0 + math.log2(1e308) - 3.0 * c_jg - 2.0 - (math.log2(1e308) - 1.0) / 4
        assert float(lower) == pytest.approx(want, rel=1e-15)
        assert float(est) >= float(lower) - 3.0 * float(error)

    def test_law_that_leaves_the_floats_is_one_error_line(self, capsys):
        # Gamma k = 0.01 puts 1e-12 of its mass below the smallest float
        code, out, err = run(["af", "--mode", "r1", "--shape", "gamma", "--k", "0.01"] + SMALL,
                             capsys)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: gamma k=0.01 law of mean power 10: its 1e-12 quantile "
                            r"underflows to 0[^\n]*\n", err)

    def test_r1_zero_phases_is_an_error(self, capsys):
        code, out, err = run(["af", "--mode", "r1", "--n-list", "0"] + SMALL, capsys)
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")

    @pytest.mark.parametrize("mode", ["r2", "corners"])
    def test_weibull_tiny_k_samples_without_warning(self, mode, capsys):
        # Gamma(1 + 1/k) = 200! overflows a float and the Weibull scale underflows:
        # r2's closed form works in logs, and the corner's drawn terms must take
        # the draws of W that underflow to 0 quietly
        code, out, err = run(["af", "--mode", mode, "--shape", "weibull", "--k", "0.005",
                              "--samples", "5000", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert isinstance(obj, dict) and math.isfinite(obj["stderr"])

    @pytest.mark.parametrize("snr, inr", [("1e308", "1e308"), ("1e308", "1"), ("1", "1e308"),
                                          ("1e-300", "1e300")])
    @pytest.mark.parametrize("k", ["1e-3", "1", "50"])
    def test_weibull_r2_is_exact_at_any_power(self, k, snr, inr, capsys):
        # the closed form works in logs where (s/theta)^k or theta leave the floats
        code, out, err = run(["af", "--mode", "r2", "--shape", "weibull", "--k", k,
                              "--snr", snr, "--inr", inr], capsys)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["stderr"] == 0.0 and 0.0 <= obj["r2_estimate"] < math.inf

    def test_corners(self, capsys):
        code, out, _ = run(
            ["af", "--mode", "corners", "--snr", "100", "--inr", "10"] + SMALL, capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["pass"] is True
        assert obj["per_user_gap"] <= obj["bound"]


class TestIsi:
    def test_bounds_json(self, capsys):
        code, out, _ = run(
            ["isi", "--snr", "100", "--inr", "10", "--c-jg", "0.83"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["width"] == pytest.approx(2.0 + 3.0 * 0.83)

    def test_achievable_check(self, capsys):
        code, out, _ = run(
            ["isi", "--snr", "100", "--inr", "10", "--check-achievable",
             "--n", "64", "--samples", "5000", "--seed", "2"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["lower"] <= obj["achievable"] <= obj["upper"]
        assert obj["metadata"] == {"backend": "density_evolution",
                                   "grid_cells": list(ffic.afscheme.DE_CELLS),
                                   "numpy": np.__version__, "scipy": scipy.__version__,
                                   "version": f"ffic {ffic.__version__}"}

    def test_achievable_limit(self, capsys):
        # the stationary rate lies above the n-symbol rate, whose first
        # symbol sees no trailing tap, and the two are close at n = 128
        code, out, _ = run(["isi", "--snr", "100", "--inr", "10", "--check-achievable"], capsys)
        assert code == 0
        obj = json.loads(out)
        limit, se = obj["achievable_limit"], obj["achievable_limit_stderr"]
        assert 0.0 < se < 1e-3
        assert obj["achievable"] < limit < obj["achievable"] + 0.01
        assert obj["lower"] <= limit <= obj["upper"]

    def test_static_channel_names_the_exact_recursion(self, capsys):
        code, out, _ = run(["isi", "--snr", "100", "--inr", "10", "--check-achievable",
                            "--shape", "deterministic"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["metadata"]["backend"] == "exact_recursion"
        assert obj["achievable_stderr"] == obj["achievable_limit_stderr"] == 0.0

    @pytest.mark.parametrize("argv", [
        ["--snr", "1e300", "--inr", "1e300"],
        ["--snr", "100", "--inr", "10", "--shape", "weibull", "--k", "0.005"],
    ], ids=["powers-1e300", "weibull-k0.005"])
    def test_extreme_inputs_are_finite(self, argv, capsys):
        code, out, err = run(["isi", "--check-achievable", "--n", "16", *argv] + SMALL, capsys)
        assert err == ""
        obj = json.loads(out)
        assert math.isfinite(obj["achievable"]) and 0.0 <= obj["achievable_stderr"] < 1.0

    def test_zero_symbols_is_an_error(self, capsys):
        code, out, err = run(["isi", "--snr", "100", "--inr", "10", "--check-achievable",
                              "--n", "0"] + SMALL, capsys)
        assert (code, out, err) == (2, "", "error: n must be >= 1\n")

    def test_sum_past_the_float_limit_passes(self, capsys):
        # 1 + SNR + INR overflows; the sandwich is taken in logs and holds
        # the achievable rate
        code, out, err = run(["isi", "--snr", "1e308", "--inr", "1e308", "--check-achievable",
                              "--n", "16"] + SMALL, capsys)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert obj["upper"] == pytest.approx(2.0 + math.log2(1e308), rel=1e-15)
        assert obj["width"] == pytest.approx(2.0 + 3.0 * obj["c_jg"], rel=1e-12)
        assert obj["pass"] and obj["lower"] <= obj["achievable"] <= obj["upper"]

    @pytest.mark.parametrize("argv", [
        ["--snr", "nan", "--inr", "10"], ["--snr", "inf", "--inr", "10"],
        ["--snr", "100", "--inr", "inf"], ["--snr", "100", "--inr", "10", "--c-jg", "nan"],
    ], ids=["snr-nan", "snr-inf", "inr-inf", "c_jg-nan"])
    def test_non_finite_input_is_one_error_line(self, argv, capsys):
        code, out, err = run(["isi", *argv, "--check-achievable"], capsys)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: snr, inr and c_jg must be finite, got [^\n]*\n", err)

    def test_violated_sandwich_exits_one(self, capsys):
        # a negative gap override empties the sandwich: the check must FAIL
        code, out, _ = run(
            ["isi", "--snr", "100", "--inr", "10", "--c-jg", "-2.0",
             "--check-achievable", "--n", "16", "--samples", "2000",
             "--seed", "2"], capsys)
        assert code == 1
        assert json.loads(out)["pass"] is False


def _mp_log2det(mp, steps):
    """log2 |K(n)| of |K(i)| = d_i |K(i-1)| - e_i |K(i-2)|, (d_i, e_i) in mpmath."""
    k, k_prev = mp.mpf(1), mp.mpf(0)
    for d, e in steps:
        k, k_prev = d * k - e * k_prev, k
    return mp.log(k, 2)


class TestStaticRecursionsNearTheFloatLimit:
    """Static two-tap recursions whose products (1e309 = w11 w21 w12, a^2 =
    1e310) or discriminant (a^2 - 4b^2 rounding to 0) leave the floats run
    through and match 40-digit mpmath."""

    @pytest.mark.filterwarnings("error")
    def test_r1_at_1e103(self, capsys):
        mp = pytest.importorskip("mpmath")
        code, out, err = run(["af", "--mode", "r1", "--shape", "deterministic",
                              "--snr", "1e103", "--inr", "1e103"], capsys)
        assert (code, err) == (0, "")
        n, est, _, error = out.strip().splitlines()[2].split(",")
        with mp.workdps(40):
            w, n = mp.mpf(1e103), int(n)
            s = 1 + w
            steps = [(1 + 2 * w, 0)] + [(w + w * (w + 1) / s + 1, w**3 / s)] * (n - 1)
            cond = ((n - 1) * mp.log(1 + w / s, 2) + mp.log(1 + w, 2)) / n
            want = _mp_log2det(mp, steps) / n - cond
            assert abs(float(est) - want) <= 1e-14 * want and float(error) == 0.0

    @pytest.mark.filterwarnings("error")
    def test_isi_at_1e16(self, capsys):
        mp = pytest.importorskip("mpmath")
        code, out, err = run(["isi", "--check-achievable", "--shape", "deterministic",
                              "--snr", "1e16", "--inr", "1e16"], capsys)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        with mp.workdps(40):
            w, n = mp.mpf(1e16), obj["n"]
            a = 1 + 2 * w
            rate = _mp_log2det(mp, [(1 + w, 0)] + [(a, w * w)] * (n - 1)) / n
            limit = mp.log(a + mp.sqrt(a * a - 4 * w * w), 2) - 1
            assert abs(obj["achievable"] - rate) <= 1e-14 * rate
            assert abs(obj["achievable_limit"] - limit) <= 1e-15 * limit
        assert obj["pass"] is True

    @pytest.mark.filterwarnings("error")
    def test_tridiag_at_1e155(self, capsys):
        mp = pytest.importorskip("mpmath")
        code, out, err = run(["af", "--mode", "tridiag", "--a", "1e155", "--b", "1e154"],
                             capsys)
        assert (code, err) == (0, "")
        _, _, n, growth, closed = out.strip().splitlines()[2].split(",")
        with mp.workdps(40):
            a, b, n = mp.mpf(1e155), mp.mpf(1e154), int(n)
            want = _mp_log2det(mp, [(a, b * b)] * n) / n
            limit = mp.log(a + mp.sqrt(a * a - 4 * b * b), 2) - 1
            assert abs(float(growth) - want) <= 1e-15 * want
            assert abs(float(closed) - limit) <= 1e-15 * limit


class TestShapeParameter:
    @pytest.mark.parametrize("shape", ["gamma", "weibull"])
    @pytest.mark.parametrize("argv", [
        ["jensen-gap"],
        ["region", "--kind", "nofb-inner", "--snr", "10", "--inr", "2"],
        ["gap-check", "--kind", "nofb", "--snr-list", "10", "--alpha-list", "0.5"],
        ["sweep", "--alpha", "0.5", "--snr-db-list", "10"],
    ], ids=lambda argv: argv[0])
    def test_missing_k_exits_two_naming_k(self, argv, shape, capsys):
        code, out, err = run(argv + ["--shape", shape] + SMALL, capsys)
        assert code == 2
        assert out == ""
        assert f"{shape} shape requires k" in err

    @pytest.mark.parametrize("shape, k", [
        ("gamma", "inf"), ("weibull", "inf"), ("gamma", "0"), ("weibull", "nan"),
        ("rayleigh", "3"), ("deterministic", "2"),
    ])
    def test_unusable_k_exits_two_naming_the_shape(self, shape, k, capsys):
        code, out, err = run(["jensen-gap", "--shape", shape, "--k", k] + SMALL, capsys)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: [^\n]*\n", err) and shape in err


class TestCliContract:
    def test_identical_argv_byte_identical_files(self, tmp_path, capsys):
        argv = ["region", "--kind", "nofb-inner", "--snr", "100", "--inr", "10",
                "--samples", "20000", "--seed", "9"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv", [
        ["region", "--kind", "nofb-inner", "--deterministic", "--snr", "15", "--inr", "1"],
        ["gap-check", "--kind", "nofb", "--grid", "default"],
    ], ids=["region --deterministic", "gap-check --grid"])
    def test_removed_options_are_hard_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv + SMALL)
        assert exc.value.code == 2

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        from ffic import cli

        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        argv = ["region", "--kind", "fb-inner", "--shape", "deterministic", "--snr", "9",
                "--inr", "4", "--rho-mag", "1.0"]
        try:
            outs = [run(argv + SMALL, capsys) for _ in range(3)]
        finally:
            cli._parser.cache_clear()
        assert built == [1]
        assert outs[0][0] == 0 and outs[0] == outs[1] == outs[2]

    @staticmethod
    def _fresh_process(code, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ffic.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        return subprocess.run([sys.executable, "-c", code, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_import_loads_no_heavy_scipy_modules(self):
        # scipy.special costs every process start-up about 150 ms and 25 MB;
        # only density evolution at a Gamma k that is not a small integer reads
        # it, on first use
        code = (
            "import sys\n"
            "import ffic, ffic.cli, ffic.afscheme\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        proc = self._fresh_process(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    @pytest.mark.parametrize("argv, loads_scipy", [
        (["gap-check", "--kind", "fb", "--snr-list", "1e3", "--alpha-list", "0.5",
          "--rho-list", "0.7", "--samples", "2000"], False),
        (["jensen-gap", "--shape", "weibull", "--k", "2"], False),
        (["region", "--kind", "nofb-outer", "--shape", "gamma", "--k", "2",
          "--snr", "1e3", "--inr", "30"], False),
        (["isi", "--snr", "100", "--inr", "10", "--check-achievable", "--shape", "gamma",
          "--k", "2", "--n", "8"], False),
        (["isi", "--snr", "100", "--inr", "10", "--check-achievable", "--shape", "gamma",
          "--k", "0.5", "--n", "8"], True),
    ], ids=["gap-check", "jensen-gap", "region", "isi", "isi-k0.5"])
    def test_only_density_evolution_loads_scipy(self, argv, loads_scipy, capsys):
        code = (
            "import sys\n"
            "from ffic.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(any(m.split('.')[0] == 'scipy' for m in sys.modules), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = self._fresh_process(code, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.split()[-1] == str(loads_scipy)
        assert run(argv, capsys)[:2] == (0, proc.stdout)

    def test_recursions_load_no_scipy(self):
        # the recursion benchmark's calls: Rayleigh, Gamma k = 2 and Weibull k = 2
        # density evolution, and the n-phase corner with its E1
        code = (
            "import sys\n"
            "from ffic import ChannelSpec, McConfig, afscheme\n"
            "ch, cfg = ChannelSpec.symmetric(100.0, 10.0), McConfig(samples=2000, seed=1)\n"
            "afscheme.r1_rate(ch, 8, cfg)\n"
            "afscheme.ky1_growth(ch, 8, cfg)\n"
            "for shape, k in (('rayleigh', None), ('gamma', 2.0), ('weibull', 2.0)):\n"
            "    afscheme.isi_achievable_rate(100.0, 10.0, 8, cfg, shape=shape, k=k)\n"
            "    afscheme.isi_achievable_limit(100.0, 10.0, shape=shape, k=k)\n"
            "afscheme.nphase_corner_gap(ch, 0.83, cfg)\n"
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
        )
        proc = self._fresh_process(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    def test_unknown_flag_is_hard_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "0.5", "--snr-db-list", "10", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["gap-check", "--kind", "nofb", "--snr-list", "1e308", "--alpha-list", "2"],
         "overflows at snr=1e+308, alpha=2"),
        (["sweep", "--alpha", "2", "--snr-db-list", "3000"], "overflows at snr_db=3000, alpha=2"),
        (["sweep", "--alpha", "0.5", "--snr-db-list", "4000"],
         "overflows at snr_db=4000, alpha=0.5"),
        (["gap-check", "--kind", "nofb", "--snr-list", "10", "--alpha-list", "nan"],
         "= nan is not a positive finite float at snr=10, alpha=nan"),
        (["gap-check", "--kind", "nofb", "--snr-list", "10", "--alpha-list", "-400"],
         "= 0 is not a positive finite float at snr=10, alpha=-400"),
        (["gap-check", "--kind", "nofb", "--snr-list", "0", "--alpha-list", "-1"],
         "mean_power must be positive, got 0.0"),
        (["sweep", "--alpha", "nan", "--snr-db-list", "10"], "alpha must be positive, got nan"),
        (["sweep", "--alpha", "400", "--snr-db-list", "-10"],
         "INR = SNR^alpha = 0 is not a positive finite float at snr_db=-10, alpha=400"),
        (["sweep", "--alpha", "0.5", "--snr-db-list", "-4000"],
         "SNR = 0 or INR = SNR^alpha = 0 is not a positive finite float at snr_db=-4000, "
         "alpha=0.5"),
        (["sweep", "--alpha", "1", "--snr-db-list", "nan"],
         "is not a positive finite float at snr_db=nan, alpha=1"),
    ], ids=["gap-check", "sweep-inr", "sweep-snr", "gap-check-alpha-nan",
            "gap-check-inr-underflow", "gap-check-snr-zero", "sweep-alpha-nan",
            "sweep-inr-underflow", "sweep-snr-underflow", "sweep-snr-nan"])
    def test_overflowing_grid_point_is_one_error_line(self, argv, message, capsys):
        # exit 1 would read as a failed certificate.  A bad INR names its alpha;
        # gap-check leaves a bad SNR to its own model, before any SNR^alpha is
        # taken, and sweep names the snr_db its SNR came from
        code, out, err = run(argv + SMALL, capsys)
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: [^\n]*{re.escape(message)}\n", err)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 14: a static bound attained with equality is "
                              "exact, with stderr 0, so float rounding decides PASS or FAIL")
    @pytest.mark.parametrize("argv", [
        ["gap-check", "--kind", "fb", "--shape", "deterministic",
         "--snr-list", "5.9307448950105225e32", "--alpha-list", "0.5", "--rho-list", "0"],
        ["af", "--mode", "corners", "--shape", "deterministic",
         "--snr", "6.26603016407263e18", "--inr", "6.26603016407263e18"],
    ], ids=["gap-check-fb", "af-corners"])
    def test_static_bound_attained_with_equality_passes(self, argv, capsys):
        # delta 2.000000000000014 and gap_r2 2.000000000000007 against 2
        code, _, _ = run(argv + SMALL, capsys)
        assert code == 0

    def test_json_output_refuses_non_finite_values(self):
        # NaN and Infinity are not JSON: main reports the ValueError, exit 2
        with pytest.raises(ValueError, match="not JSON compliant"):
            _emit_json({"width": math.nan}, None)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")],
                             ids=["nan", "inf", "-inf", "numpy-nan"])
    def test_csv_output_refuses_non_finite_values(self, value, capsys):
        # as JSON does: a `nan` cell must not exit 0
        with pytest.raises(ValueError, match="not finite"):
            _emit_csv(("label", "bound"), [("a", 1.0), ("b", value)], {}, None)
        assert capsys.readouterr().out == ""

    def test_bad_value_returns_two(self, capsys):
        code, _, err = run(["region", "--kind", "fb-outer", "--snr", "10",
                            "--inr", "1", "--rho-mag", "2.0"] + SMALL, capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("argv", [
        [*region, flag, value]
        for region in (["region", "--kind", kind, "--snr", "10", "--inr", "2"]
                       for kind in ("fb-inner", "fb-outer", "static-fb"))
        for flag, value in (("--rho-mag", "-0.5"), ("--rho-mag", "1.5"),
                            ("--theta", "-0.1"), ("--theta", "7"),
                            ("--theta", str(2.0 * math.pi)))
    ] + [
        ["gap-check", "--kind", kind, "--snr-list", "10", "--alpha-list", "0.5",
         "--rho-list", "0.5", value]
        for kind in ("fb", "static-fb") for value in ("-0.5", "1.5")
    ], ids=lambda argv: " ".join(argv[2:3] + argv[-2:]))
    def test_feedback_correlation_out_of_range_returns_two(self, argv, capsys):
        code, out, err = run(argv + SMALL, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "cmd", ["jensen-gap", "region", "gap-check", "sweep", "af", "isi"]
    )
    def test_help_lists_flags(self, cmd, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([cmd, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--seed" in out and "--samples" in out

    HELP_NOTES = [
        ("af", "--samples", "(read by --mode r2 and corners only)"),
        ("af", "--seed", "(ignored by --mode r1 and tridiag"),
        ("isi", "--samples", "(ignored: isi draws nothing)"),
        ("isi", "--seed", "(ignored: isi draws nothing)"),
        ("jensen-gap", "--samples", "(ignored: every --shape choice is exact)"),
        ("jensen-gap", "--seed", "(ignored: every --shape choice is exact)"),
        ("region", "--rho-mag", "(read by --kind fb-inner, fb-outer and static-fb only)"),
        ("region", "--theta", "(read by --kind fb-inner, fb-outer and static-fb only)"),
        ("gap-check", "--rho-list", "(read by --kind fb and static-fb only)"),
    ] + [
        (cmd, flag, "(read only by coherent feedback terms, terms on Weibull k != 1 links "
                    "and ratio terms whose denominator's Gamma k is too small for a log "
                    "rule; every other term is exact)")
        for cmd in ("region", "gap-check", "sweep") for flag in ("--samples", "--seed")
    ]

    @pytest.mark.parametrize("cmd, flag, note", HELP_NOTES,
                             ids=[f"{cmd} {flag}" for cmd, flag, _ in HELP_NOTES])
    def test_help_says_where_a_flag_is_read_or_ignored(self, cmd, flag, note, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            build_parser().parse_args([cmd, "--help"])
        lines = capsys.readouterr().out.splitlines()
        # a flag's help runs from its line to the next flag's, wrapped or not
        start = next(i for i, line in enumerate(lines) if line.lstrip().startswith(flag))
        end = next(i for i in range(start + 1, len(lines)) if lines[i].lstrip().startswith("-"))
        assert note in " ".join(line.strip() for line in lines[start:end])

    def test_threads_env_does_not_change_output(self, tmp_path, monkeypatch, capsys):
        argv = ["gap-check", "--kind", "nofb", "--snr-list", "100", "10",
                "--alpha-list", "0.5", "--samples", "10000", "--seed", "3"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        monkeypatch.setenv("FFIC_THREADS", "1")
        assert main(argv + ["--out", str(a)]) == 0
        monkeypatch.setenv("FFIC_THREADS", "4")
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity API")
    def test_thread_count_follows_cpu_affinity(self):
        # pin a fresh interpreter (and nothing else) to one CPU
        code = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from ffic.mc import thread_budget\n"
            "print(thread_budget())\n"
        )
        env = {k: v for k, v in os.environ.items() if k != "FFIC_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ffic.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "1"
