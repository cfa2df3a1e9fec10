"""Batch command-line interface.

Subcommands expose every computation with reproducible seeds and
plot-ready CSV/JSON outputs:

* ``jensen-gap``  closed-form and numeric gap of a fading shape
* ``region``      evaluate one rate region, emit its constraints
* ``gap-check``   certify a constant-gap theorem over a parameter grid
* ``sweep``       symmetric-rate inner/outer table at INR = SNR^alpha
* ``af``          n-phase scheme: r1/r2/corners/cancellation/tridiag
* ``isi``         2-tap fading ISI capacity sandwich

Exit codes: 0 on success, 1 when a numerical theorem check FAILs (so CI
can gate on it), 2 on bad arguments.  Identical argv produce byte-identical
output files.  Grid points and the Monte Carlo chunks of each estimate
share one thread budget (``ffic.mc.thread_budget``): the CPUs this
process may run on, or ``FFIC_THREADS`` when it is set.  A ``gap-check``
pool task is one (SNR, alpha) channel with its whole rho list, whose
feedback bounds are built together so that every rho reads the same
draws.  A task that runs on a pool thread runs its chunks inline, so the
two never nest.  The thread count changes neither results nor output
order.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__
from .afscheme import (
    DE_CELLS,
    cancellation_check,
    isi_achievable_limit,
    isi_achievable_rate,
    isi_bounds,
    nphase_corner_gap,
    r1_rate,
    r2_rate,
    tridiag_growth,
)
from .fading import (
    FadingModel,
    jensen_gap_closed_form,
    jensen_gap_numeric,
)
from .mc import McConfig
from .mc import parallel_map as _parallel_map  # perfbench/tracer.py wraps cli._parallel_map
from .regions import (
    ChannelSpec,
    fb_inner,
    fb_outer,
    imac_regions,
    nofb_achievable,
    nofb_inner,
    nofb_outer,
    region_gap,
    static_equivalent,
    symmetric_sweep,
)

DEFAULT_SNR_GRID = (10.0, 1e3, 1e6)
DEFAULT_ALPHA_GRID = (0.25, 0.5, 1.0)
DEFAULT_RHO_GRID = (0.0, 0.3, 0.7, 0.95)
STDERR_SLACK = 3.0
# the terms of a region build that draw, for --samples and --seed
_REGION_DRAWS = (" (read only by coherent feedback terms, terms on Weibull k != 1 links and ratio "
                 "terms whose denominator's Gamma k is too small for a log rule; every other "
                 "term is exact)")


def _versions() -> dict:
    return {"numpy": np.__version__, "version": f"ffic {__version__}"}


def _metadata(cfg: McConfig) -> dict:
    return {"seed": cfg.seed, "samples": cfg.samples, **_versions()}


def _de_metadata(shape: str) -> dict:
    """Metadata of the two-tap recursions' rates, which draw nothing: density
    evolution, or the exact recursion on a static channel.  Density evolution
    loads scipy.special only at a Gamma k that is not a small integer, but
    its records name scipy's version at every shape, read from the installed
    package's metadata, so that loads no scipy module."""
    if shape == "deterministic":
        return {"backend": "exact_recursion", **_versions()}
    from importlib.metadata import version

    return {"backend": "density_evolution", "grid_cells": list(DE_CELLS),
            "scipy": version("scipy"), **_versions()}


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_json(obj: dict, out: str | None) -> None:
    _write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", out)


def _emit_csv(header: Sequence[str], rows: Iterable[Sequence], meta: dict, out: str | None) -> None:
    lines = ["# " + " ".join(f"{k}={v}" for k, v in sorted(meta.items()))]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(v) for v in row))
    _write_text("\n".join(lines) + "\n", out)


def _spec_from_args(args) -> ChannelSpec:
    snr2 = args.snr if args.snr2 is None else args.snr2
    inr2 = args.inr if args.inr2 is None else args.inr2
    return ChannelSpec.from_mean_powers(args.snr, snr2, args.inr, inr2, shape=args.shape, k=args.k)


def _cfg_from_args(args) -> McConfig:
    return McConfig(samples=args.samples, seed=args.seed)


def _add_mc_flags(p: argparse.ArgumentParser, samples_note: str = "",
                  seed_note: str = "") -> None:
    """``--samples`` and ``--seed``; a note says where the command ignores them."""
    p.add_argument("--samples", type=int, default=McConfig.samples,
                   help="Monte Carlo draws per expectation" + samples_note)
    p.add_argument("--seed", type=int, default=McConfig.seed,
                   help="base seed for all substreams" + seed_note)


def _add_out_flags(p: argparse.ArgumentParser, fmt: bool = True) -> None:
    p.add_argument("--out", type=str, default=None, help="output file (default: stdout)")
    if fmt:
        p.add_argument("--format", choices=("json", "csv"), default="json")


def _add_shape_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--shape", choices=("rayleigh", "gamma", "weibull", "deterministic"),
                   default="rayleigh", help="fading shape of every link")
    p.add_argument("--k", type=float, default=None, help="shape parameter for gamma/weibull")


# ---------------------------------------------------------------------------
# jensen-gap
# ---------------------------------------------------------------------------


def _cmd_jensen_gap(args) -> int:
    model = FadingModel(args.shape, args.mean_power, k=args.k)
    cfg = _cfg_from_args(args)
    closed = jensen_gap_closed_form(model)
    numeric = jensen_gap_numeric(model, cfg=cfg)
    obj = {
        "shape": model.shape,
        "k": model.k,
        "mean_power": model.mean_power,
        "closed_form": closed,
        "gap_at_zero": numeric.gap_at_zero,
        "gap_stderr": numeric.gap_stderr,
        "xi_curve": [[a, xi] for a, xi in numeric.xi_curve],
        "metadata": _metadata(cfg),
    }
    slack = STDERR_SLACK * numeric.gap_stderr + 1e-6  # log-rule tolerance floor
    ok = numeric.gap_at_zero <= closed + slack
    obj["pass"] = ok
    _emit_json(obj, args.out)
    print(f"closed_form_bound_bits {closed:.6f}", file=sys.stderr)
    print(f"numeric_gap_bits {numeric.gap_at_zero:.6f}", file=sys.stderr)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _rho(mag: float, theta: float = 0.0) -> complex:
    """The transmit correlation mag * e^{i theta} shared by a feedback pair."""
    if not 0.0 <= mag <= 1.0:
        raise ValueError(f"rho magnitude must lie in [0, 1], got {mag}")
    if not 0.0 <= theta < 2.0 * math.pi:
        raise ValueError(f"theta must lie in [0, 2pi), got {theta}")
    return mag * cmath.exp(1j * theta)


# The kinds of `region` and `gap-check` that take a transmit correlation rho.
_FEEDBACK_KINDS = {"fb-inner", "fb-outer", "static-fb", "fb"}

# region --kind -> builder(ch, rho, cfg); rho is None unless the kind takes one.
# The builders are looked up by name when called, so a wrapped binding is used.
_REGIONS = {
    "nofb-inner": lambda ch, rho, cfg: nofb_inner(ch, cfg),
    "nofb-outer": lambda ch, rho, cfg: nofb_outer(ch, cfg),
    "nofb-achievable": lambda ch, rho, cfg: nofb_achievable(ch, cfg),
    "fb-inner": lambda ch, rho, cfg: fb_inner(ch, rho, cfg),
    "fb-outer": lambda ch, rho, cfg: fb_outer(ch, rho, cfg),
    "imac-inner": lambda ch, rho, cfg: imac_regions(ch, cfg)[0],
    "imac-outer": lambda ch, rho, cfg: imac_regions(ch, cfg)[1],
    "static-nofb": lambda ch, rho, cfg: static_equivalent(ch, rho),
    "static-fb": lambda ch, rho, cfg: static_equivalent(ch, rho),
}


def _cmd_region(args) -> int:
    ch = _spec_from_args(args)
    cfg = _cfg_from_args(args)
    rho = _rho(args.rho_mag, args.theta) if args.kind in _FEEDBACK_KINDS else None
    region = _REGIONS[args.kind](ch, rho, cfg)
    obj = region.to_json()
    obj["metadata"] = _metadata(cfg)
    if args.format == "csv":
        rows = [
            (c.label, c.c1, c.c2, c.bound, c.bound_stderr) for c in region.constraints
        ]
        _emit_csv(("label", "c1", "c2", "bound", "stderr"), rows, _metadata(cfg), args.out)
    else:
        _emit_json(obj, args.out)
    return 0


# ---------------------------------------------------------------------------
# gap-check
# ---------------------------------------------------------------------------


# gap-check --kind -> (a, b, pairs): the certificate is gap <= a + b * c_JG, where
# pairs(ch, rhos, cfg) builds the (upper, lower) regions of one channel, one pair
# per rho of ``rhos`` (a feedback kind's rho list, else ``(None,)``), and
# ``region_gap`` measures the gap.  A static upper region is judged constraint
# by constraint; every other pair at the upper region's vertices.
_CERTIFICATES = {
    "nofb": (1.0, 1.0, lambda ch, rhos, cfg: [(nofb_outer(ch, cfg), nofb_inner(ch, cfg))]),
    "fb": (2.0, 1.0,
           lambda ch, rhos, cfg: zip(fb_outer(ch, rhos, cfg), fb_inner(ch, rhos, cfg))),
    "imac": (1.0, 0.5, lambda ch, rhos, cfg: [imac_regions(ch, cfg)[::-1]]),
    "static-nofb": (0.0, 2.0,
                    lambda ch, rhos, cfg: [(static_equivalent(ch), nofb_inner(ch, cfg))]),
    "static-fb": (0.0, 3.0, lambda ch, rhos, cfg: [
        (static_equivalent(ch, rho), lower) for rho, lower in zip(rhos, fb_inner(ch, rhos, cfg))
    ]),
}


def _grid_points(args) -> list[tuple[float, float, Sequence[complex | None]]]:
    """The (SNR, alpha) points of the grid, each with its rho list."""
    snrs = args.snr_list or DEFAULT_SNR_GRID
    alphas = args.alpha_list or DEFAULT_ALPHA_GRID
    rhos: Sequence[complex | None]
    if args.kind in _FEEDBACK_KINDS:
        rhos = [_rho(r) for r in args.rho_list or DEFAULT_RHO_GRID]
    else:
        rhos = (None,)
    return [(s, a, rhos) for s in snrs for a in alphas]


def _check_point(kind: str, shape: str, k, cfg: McConfig, point) -> list[dict]:
    """One row per rho of one (SNR, alpha) point."""
    snr, alpha, rhos = point
    ch = ChannelSpec.symmetric(snr, snr**alpha, shape=shape, k=k)
    rows = []
    for rho, (upper, lower) in zip(rhos, _CERTIFICATES[kind][2](ch, rhos, cfg)):
        row: dict = {"snr": snr, "alpha": alpha}
        if rho is not None:
            row["rho_mag"] = abs(rho)
        gap = region_gap(upper, lower)
        if upper.kind == "static_inner":  # fading may not exceed the static bound either
            min_delta = min(d for _, d, _ in gap.per_constraint)
            stderr = max(se for _, _, se in gap.per_constraint)
            row.update(delta=gap.max_weighted_delta, min_delta=min_delta, stderr=stderr)
        else:
            row.update(delta=gap.delta_vertex, stderr=gap.delta_vertex_stderr)
        rows.append(row)
    return rows


def _margin(bits: float, stderr: float) -> str:
    """A margin in bits and in standard errors (infinite ones when exact)."""
    sigmas = bits / stderr if stderr > 0 else math.copysign(math.inf, bits)
    return f"{bits:.4f} bits ({sigmas:.1f} σ)"


def _cmd_gap_check(args) -> int:
    cfg = _cfg_from_args(args)
    c_jg = jensen_gap_closed_form(FadingModel(args.shape, 1.0, k=args.k))
    a, b, _ = _CERTIFICATES[args.kind]
    threshold = a + b * c_jg
    points = _grid_points(args)
    rows = [row for rows in _parallel_map(
        lambda pt: _check_point(args.kind, args.shape, args.k, cfg, pt), points
    ) for row in rows]
    all_pass = True
    for row in rows:
        ok = row["delta"] <= threshold + STDERR_SLACK * row["stderr"]
        if "min_delta" in row:  # static: fading may not exceed the static bound
            ok = ok and row["min_delta"] >= -STDERR_SLACK * row["stderr"]
        row["pass"] = bool(ok)
        all_pass &= ok
        tag = "PASS" if ok else "FAIL"
        extras = f" rho={row['rho_mag']}" if "rho_mag" in row else ""
        margins = f" margin={_margin(threshold - row['delta'], row['stderr'])}"
        if "min_delta" in row:
            margins += (f" min_delta={row['min_delta']:.4f}"
                        f" min_margin={_margin(row['min_delta'], row['stderr'])}")
        print(
            f"{tag} snr={row['snr']:g} alpha={row['alpha']:g}{extras} "
            f"delta={row['delta']:.4f} threshold={threshold:.4f}{margins}",
            file=sys.stderr,
        )
    obj = {
        "kind": args.kind,
        "shape": args.shape,
        "jensen_gap": c_jg,
        "threshold": threshold,
        "points": rows,
        "all_pass": bool(all_pass),
        "metadata": _metadata(cfg),
    }
    _emit_json(obj, args.out)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    cfg = _cfg_from_args(args)
    rows = symmetric_sweep(args.alpha, args.snr_db_list, shape=args.shape, cfg=cfg, k=args.k)
    table = [(r.snr_db, r.alpha, r.sym_inner, r.sym_outer, r.gap) for r in rows]
    if args.format == "json":
        obj = {
            "rows": [
                dict(zip(("snr_db", "alpha", "sym_inner", "sym_outer", "gap"), t))
                for t in table
            ],
            "metadata": _metadata(cfg),
        }
        _emit_json(obj, args.out)
    else:
        _emit_csv(("snr_db", "alpha", "sym_inner", "sym_outer", "gap"), table,
                  _metadata(cfg), args.out)
    return 0


# ---------------------------------------------------------------------------
# af / isi
# ---------------------------------------------------------------------------


def _cmd_af(args) -> int:
    cfg = _cfg_from_args(args)
    meta = _metadata(cfg)
    if args.mode == "tridiag":
        rows = []
        for n in args.n_list:
            g = tridiag_growth(args.a, args.b, n)
            rows.append((args.a, args.b, n, g.limit_estimate, g.limit_closed_form))
        _emit_csv(("a", "b", "n", "growth", "closed_form"), rows, meta, args.out)
        return 0
    if args.mode == "cancellation":
        rep = cancellation_check(args.n, args.blocks, args.seed, snr=args.snr, inr=args.inr)
        obj = rep.to_json()
        obj["metadata"] = meta
        _emit_json(obj, args.out)
        return 0

    ch = ChannelSpec.symmetric(args.snr, args.inr, shape=args.shape, k=args.k)
    c_jg = jensen_gap_closed_form(ch.g11)  # scale invariant
    if args.mode == "r1":
        rows = []
        lower = math.log2(1.0 + args.snr + args.inr) - 3.0 * c_jg - 2.0
        for n in args.n_list:
            est = r1_rate(ch, n)
            rows.append((n, est.mean, lower - (math.log2(1.0 + args.inr) - 1.0) / n, est.stderr))
        _emit_csv(("n", "r1_estimate", "lower_bound_at_n", "error"), rows,
                  _de_metadata(args.shape), args.out)
        return 0
    if args.mode == "r2":
        est = r2_rate(ch, cfg)
        _emit_json({"r2_estimate": est.mean, "stderr": est.stderr, "metadata": meta}, args.out)
        return 0
    # corners
    res = nphase_corner_gap(ch, c_jg, cfg)
    obj = res.to_json()
    obj["bound"] = 2.0 + 3.0 * c_jg
    obj["pass"] = res.per_user_gap <= obj["bound"] + STDERR_SLACK * res.stderr
    obj["metadata"] = meta
    _emit_json(obj, args.out)
    return 0 if obj["pass"] else 1


def _cmd_isi(args) -> int:
    c_jg = args.c_jg
    if c_jg is None:
        c_jg = jensen_gap_closed_form(FadingModel(args.shape, 1.0, k=args.k))
    lower, upper = isi_bounds(args.snr, args.inr, c_jg)
    obj = {
        "snr": args.snr,
        "inr": args.inr,
        "c_jg": c_jg,
        "lower": lower,
        "upper": upper,
        "width": upper - lower,
        "metadata": _versions(),  # the bounds are closed forms
    }
    code = 0
    if args.check_achievable:
        est = isi_achievable_rate(args.snr, args.inr, args.n, shape=args.shape, k=args.k)
        slack = STDERR_SLACK * est.stderr
        ok = lower - slack <= est.mean <= upper + slack
        limit = isi_achievable_limit(args.snr, args.inr, shape=args.shape, k=args.k)
        obj.update(achievable=est.mean, achievable_stderr=est.stderr, n=args.n,
                   achievable_limit=limit.mean, achievable_limit_stderr=limit.stderr)
        obj["pass"] = bool(ok)
        obj["metadata"] = _de_metadata(args.shape)
        code = 0 if ok else 1
    _emit_json(obj, args.out)
    return code


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _rho_note(kinds) -> str:
    *rest, last = [kind for kind in kinds if kind in _FEEDBACK_KINDS]
    return f" (read by --kind {', '.join(rest)} and {last} only)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffic",
        description="Jensen-gap and capacity-gap toolkit for fading interference channels",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jensen-gap", help="closed-form and numeric Jensen gap of a shape")
    _add_shape_flags(p)
    p.add_argument("--mean-power", type=float, default=1.0)
    exact = " (ignored: every --shape choice is exact)"
    _add_mc_flags(p, exact, exact)
    _add_out_flags(p, fmt=False)
    p.set_defaults(fn=_cmd_jensen_gap)

    p = sub.add_parser("region", help="evaluate one rate region")
    p.add_argument("--kind", choices=tuple(_REGIONS), required=True)
    _add_shape_flags(p)
    p.add_argument("--snr", type=float, required=True, help="SNR1 (linear)")
    p.add_argument("--inr", type=float, required=True, help="INR1 (linear)")
    p.add_argument("--snr2", type=float, default=None, help="SNR2 (default: symmetric)")
    p.add_argument("--inr2", type=float, default=None, help="INR2 (default: symmetric)")
    note = _rho_note(_REGIONS)
    p.add_argument("--rho-mag", type=float, default=0.0, help="|rho| in [0, 1]" + note)
    p.add_argument("--theta", type=float, default=0.0, help="arg rho in [0, 2pi)" + note)
    _add_mc_flags(p, _REGION_DRAWS, _REGION_DRAWS)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_region)

    p = sub.add_parser("gap-check", help="certify a constant-gap theorem over a grid")
    p.add_argument("--kind", choices=tuple(_CERTIFICATES), required=True)
    _add_shape_flags(p)
    p.add_argument("--snr-list", type=float, nargs="+", default=None)
    p.add_argument("--alpha-list", type=float, nargs="+", default=None)
    p.add_argument("--rho-list", type=float, nargs="+", default=None,
                   help=f"|rho| grid (default: {DEFAULT_RHO_GRID})" + _rho_note(_CERTIFICATES))
    _add_mc_flags(p, _REGION_DRAWS, _REGION_DRAWS)
    _add_out_flags(p, fmt=False)
    p.set_defaults(fn=_cmd_gap_check)

    p = sub.add_parser("sweep", help="symmetric-rate table at INR = SNR^alpha")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--snr-db-list", type=float, nargs="+", required=True)
    _add_shape_flags(p)
    _add_mc_flags(p, _REGION_DRAWS, _REGION_DRAWS)
    _add_out_flags(p)
    p.set_defaults(fn=_cmd_sweep, format="csv")

    p = sub.add_parser("af", help="n-phase amplify-and-forward analysis")
    p.add_argument("--mode", choices=("r1", "r2", "corners", "cancellation", "tridiag"),
                   required=True, help="r1's lower_bound_at_n = log2(1+SNR+INR) - 3 c_JG"
                   " - 2 - (log2(1+INR) - 1)/n is the bound r1 meets at that n")
    _add_shape_flags(p)
    p.add_argument("--snr", type=float, default=100.0)
    p.add_argument("--inr", type=float, default=10.0)
    p.add_argument("--n", type=int, default=8, help="phase count (cancellation)")
    p.add_argument("--n-list", type=int, nargs="+", default=(64,), help="phase counts (r1/tridiag)")
    p.add_argument("--blocks", type=int, default=16, help="symbols per phase (cancellation)")
    p.add_argument("--a", type=float, default=3.0)
    p.add_argument("--b", type=float, default=1.0)
    _add_mc_flags(p, " (read by --mode r2 and corners only)",
                  " (ignored by --mode r1 and tridiag, which draw nothing)")
    _add_out_flags(p, fmt=False)
    p.set_defaults(fn=_cmd_af)

    p = sub.add_parser("isi", help="2-tap fading ISI capacity sandwich")
    _add_shape_flags(p)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--inr", type=float, required=True)
    p.add_argument("--c-jg", type=float, default=None,
                   help="override the shape's closed-form Jensen gap")
    p.add_argument("--check-achievable", action="store_true")
    p.add_argument("--n", type=int, default=128)
    _add_mc_flags(p, " (ignored: isi draws nothing)", " (ignored: isi draws nothing)")
    _add_out_flags(p, fmt=False)
    p.set_defaults(fn=_cmd_isi)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reuses: building one takes about 1 ms."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
