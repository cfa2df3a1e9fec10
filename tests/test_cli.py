"""Command-line interface: outputs, determinism, exit codes."""

import cmath
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
)
from ffic.cli import build_parser, main


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
        assert obj.pop("metadata") == {"seed": 7, "samples": 3000,
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
                            f"version=ffic {ffic.__version__}")
        assert lines[1] == "n,r1_estimate,lower_bound,error"
        n, est, lower, error = lines[2].split(",")
        assert float(est) >= float(lower)
        assert 0.0 < float(error) < 1e-3

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
        # Gamma(1 + 1/k) = 200! overflows a float and the Weibull scale underflows;
        # most draws of W underflow to 0, which the log2+ of r2 must take quietly
        code, out, err = run(["af", "--mode", mode, "--shape", "weibull", "--k", "0.005",
                              "--samples", "5000", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        obj = json.loads(out)
        assert isinstance(obj, dict) and math.isfinite(obj["stderr"])

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

    def test_import_loads_no_heavy_scipy_modules(self):
        # scipy.integrate pulls in scipy.optimize and scipy.linalg, which cost
        # every process start-up time and memory; only scipy.special is read
        code = (
            "import sys\n"
            "import ffic, ffic.cli, ffic.afscheme\n"
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('scipy.'))))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ffic.__file__).parents[1]), env.get("PYTHONPATH", "")]
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        loaded = {m.split(".")[1] for m in proc.stdout.split()}
        assert "special" in loaded
        assert not loaded & {"integrate", "optimize", "linalg", "stats"}

    def test_unknown_flag_is_hard_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--alpha", "0.5", "--snr-db-list", "10", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

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
