"""Rate regions for the 2-user fast-fading interference channel.

Each region is a finite intersection of half-planes ``c1*R1 + c2*R2 <=
bound``.  The module certifies the constant-gap results numerically:

* no feedback:      outer - inner gap  <=  c_JG + 1   bits/use
* feedback:         outer - inner gap  <=  c_JG + 2   bits/use
* interference MAC: outer - inner gap  <=  1 + c_JG/2 bits/use
* fading vs static plug-in (per-rate, per constraint):
                    within 2*c_JG (no feedback) / 3*c_JG (feedback)

where c_JG is the fading model's logarithmic Jensen's gap.  The gap of a
region pair is measured at the outer region's vertices: the smallest
diagonal shift (clamped to the nonnegative orthant) that lands every
vertex inside the inner region.  ``region_gap`` takes the pairs in
``_GAP_PAIRS``; the CLI's ``gap-check`` table names each result's pair.

Every constraint is declared once, as data: ``(c1, c2, label, terms,
const)`` with ``bound = const + sum of its terms``.  A term is an
expectation over named links (``g11``, ``g21``, ``g22``, ``g12``) with
``W = |g|^2``, of one of two shapes:

* ``sign * E log2(1 + p_1 + p_2 + ...)``, summed in the declared order,
  where each part is ``a*W_x`` or the ratio ``a*W_x / (1 + a*W_y)``; a
  penalty has ``sign = -1``;
* the coherent ``E log2(1 + W_x + W_y + 2 Re(c g_x conj(g_y)))`` of the
  feedback regions, with c the complex correlation coefficient.

A term's links alone choose how it is evaluated, and the first two ways
are exact, with zero standard error:

* all links deterministic: the plug-in at W = mean power;
* a phase-free term whose links all have exponential powers (Rayleigh,
  or Gamma or Weibull with k = 1): closed forms in the exponential
  integral E1 (``_rayleigh_term``), summed by a fixed
  256-node trapezoid over the log of its ratio denominator, if it has one;
* any other term: Monte Carlo.

Monte Carlo draws powers, not complex gains: each link of a term draws W
from its fading model.  Only the coherent term depends on a phase, and
only on the one relative phase of g_x conj(g_y), which is uniform as soon
as one of the two links fades.  So that term draws the complex gain g_x
of a fading link and only the power of the other, and evaluates
``1 + |g_x|^2 + W_y + 2 sqrt(W_y) Re(c g_x)``; when only y fades the
links swap and c is conjugated.  The gain comes from
``ComplexGainSampler``: on an exponential link it is one complex
Gaussian, sqrt(mean / 2) times a pair of standard normals, and on any
other law its power is drawn first and given a uniform phase.  Coherent
terms stay on Monte Carlo even on Rayleigh links: their closed form (an
eigenvalue pair of a 2x2 Hermitian form) is not written yet, and Gamma,
Weibull and mixed-shape terms wait for log-domain quadrature.

Within one region build each distinct term (compared without its sign)
is evaluated once; a drawn one on the substream ``(family of the region
kind, i, j)`` of its first occurrence, term ``j`` of constraint ``i``.  A
constraint adds ``coef * mean`` with variance ``(coef * stderr)^2``, where
``coef`` sums the term's signs within that constraint: a repeated term is
perfectly correlated with itself.  Separate builds never share draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import exp1

from .fading import ComplexGainSampler, FadingModel
from .mc import McConfig, estimate_expectation

__all__ = [
    "ChannelSpec",
    "SplitParams",
    "RateConstraint",
    "RateRegion",
    "RegionGap",
    "SweepRow",
    "nofb_inner",
    "nofb_outer",
    "nofb_achievable",
    "fb_inner",
    "fb_outer",
    "imac_regions",
    "static_equivalent",
    "region_gap",
    "symmetric_sweep",
]

# The region kinds, each with its own substream family so inner/outer
# bounds of the same run never share draws (keeps paired-difference
# standard errors honest).  The numbers are pinned: adding or removing a
# kind must not renumber another kind's random stream.
_KIND_STREAM = {
    "nofb_inner": 16,
    "nofb_outer": 17,
    "nofb_achievable": 18,
    "fb_inner": 19,
    "fb_outer": 20,
    "imac_inner": 21,
    "imac_outer": 22,
    "static_inner": 23,
    "nphase_outer_sym": 24,
}

_GEOM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    """The four links of a 2-user IC, each given by the law of its power.

    ``gij`` is the link from transmitter i to receiver j, so receiver 1
    sees (g11, g21) and receiver 2 sees (g22, g12).  Each field is the
    ``FadingModel`` of W = |gij|^2, with mean powers SNR1 = E|g11|^2,
    SNR2 = E|g22|^2, INR1 = E|g12|^2, INR2 = E|g21|^2.  Links are mutually
    independent, and a fading link's phase is uniform, so a caller that
    needs a complex gain wraps the model in a ``ComplexGainSampler``.
    """

    g11: FadingModel
    g21: FadingModel
    g22: FadingModel
    g12: FadingModel

    @property
    def snr1(self) -> float:
        return self.g11.mean_power

    @property
    def snr2(self) -> float:
        return self.g22.mean_power

    @property
    def inr1(self) -> float:
        return self.g12.mean_power

    @property
    def inr2(self) -> float:
        return self.g21.mean_power

    @classmethod
    def symmetric(
        cls, snr: float, inr: float, shape: str = "rayleigh", k: float | None = None
    ) -> "ChannelSpec":
        """g11 ~ g22 and g12 ~ g21, all independent."""
        return cls.from_mean_powers(snr, snr, inr, inr, shape=shape, k=k)

    @classmethod
    def from_mean_powers(
        cls,
        snr1: float,
        snr2: float,
        inr1: float,
        inr2: float,
        shape: str = "rayleigh",
        k: float | None = None,
    ) -> "ChannelSpec":
        return cls(
            g11=FadingModel(shape, snr1, k=k), g21=FadingModel(shape, inr2, k=k),
            g22=FadingModel(shape, snr2, k=k), g12=FadingModel(shape, inr1, k=k),
        )

    def is_symmetric(self) -> bool:
        return self.g11 == self.g22 and self.g12 == self.g21

    def deterministic_equivalent(self) -> "ChannelSpec":
        """Static channel with the same mean powers and real gains."""
        return ChannelSpec.from_mean_powers(
            self.snr1, self.snr2, self.inr1, self.inr2, shape="deterministic"
        )


@dataclass(frozen=True)
class SplitParams:
    """Power split of each transmitter between private and common parts.

    Private power is matched to the average interference caused at the
    unintended receiver: lambda_pk = min(1/INR_k, 1) without feedback.
    :func:`fb_inner` derives min(1/INR_k, 1 - |rho|^2) from its transmit
    correlation rho.
    """

    lambda_p1: float
    lambda_p2: float

    def __post_init__(self):
        for lam in (self.lambda_p1, self.lambda_p2):
            if not 0.0 <= lam <= 1.0:
                raise ValueError(f"power split fractions must lie in [0, 1], got {lam}")

    @classmethod
    def no_feedback(cls, ch: ChannelSpec) -> "SplitParams":
        return cls(min(1.0 / ch.inr1, 1.0), min(1.0 / ch.inr2, 1.0))

    def to_json(self) -> dict:
        return {"lambda_p1": self.lambda_p1, "lambda_p2": self.lambda_p2}


_RATE_WEIGHTS = {(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)}


@dataclass(frozen=True)
class RateConstraint:
    """Half-plane c1*R1 + c2*R2 <= bound (bits per channel use)."""

    c1: int
    c2: int
    bound: float
    bound_stderr: float
    label: str

    def __post_init__(self):
        if (self.c1, self.c2) not in _RATE_WEIGHTS:
            raise ValueError(
                f"(c1, c2) must be one of {sorted(_RATE_WEIGHTS)}, "
                f"got ({self.c1}, {self.c2})"
            )
        if self.bound_stderr < 0:
            raise ValueError("bound_stderr must be nonnegative")

    @property
    def weight(self) -> int:
        """Per-rate normalization: the number of rate units bounded."""
        return self.c1 + self.c2

    @property
    def clamped_bound(self) -> float:
        """Bounds can dip below zero at low SNR; rates cannot."""
        return max(self.bound, 0.0)

    def to_json(self) -> dict:
        return {
            "c1": self.c1,
            "c2": self.c2,
            "bound": self.bound,
            "stderr": self.bound_stderr,
            "label": self.label,
        }


@dataclass(frozen=True)
class RateRegion:
    """Intersection of rate constraints with the nonnegative orthant."""

    kind: str
    constraints: tuple[RateConstraint, ...]
    params: SplitParams | None = None
    rho: complex | None = None  # transmit correlation of a feedback region

    def __post_init__(self):
        if self.kind not in _KIND_STREAM:
            raise ValueError(f"unknown region kind {self.kind!r}")
        labels = [c.label for c in self.constraints]
        if len(set(labels)) != len(labels):
            raise ValueError("constraint labels must be unique within a region")

    def constraint(self, label: str) -> RateConstraint:
        for c in self.constraints:
            if c.label == label:
                return c
        raise KeyError(label)

    def _tol(self) -> float:
        """Geometric slack: ``_GEOM_TOL`` relative to the largest clamped bound."""
        return _GEOM_TOL * max([1.0] + [c.clamped_bound for c in self.constraints])

    def contains(self, r1: float, r2: float, stderr_mult: float = 0.0) -> bool:
        tol = self._tol()
        return all(
            c.c1 * r1 + c.c2 * r2 <= c.clamped_bound + stderr_mult * c.bound_stderr + tol
            for c in self.constraints
        )

    def vertices(self) -> list[tuple[float, float]]:
        """Corner points of the clamped region (pairwise intersections)."""
        rows = [(float(c.c1), float(c.c2), c.clamped_bound) for c in self.constraints]
        rows += [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]
        tol = self._tol()
        pts: list[tuple[float, float]] = []
        for i in range(len(rows)):
            a1, b1, c1 = rows[i]
            for j in range(i + 1, len(rows)):
                a2, b2, c2 = rows[j]
                det = a1 * b2 - a2 * b1
                if abs(det) < 1e-12:
                    continue
                x = (c1 * b2 - c2 * b1) / det
                y = (a1 * c2 - a2 * c1) / det
                if all(a * x + b * y <= c + tol for a, b, c in rows):
                    pts.append((x, y))
        # dedupe
        out: list[tuple[float, float]] = []
        for p in pts:
            if not any(
                abs(p[0] - q[0]) <= tol and abs(p[1] - q[1]) <= tol
                for q in out
            ):
                out.append(p)
        centroid = (
            sum(p[0] for p in out) / len(out),
            sum(p[1] for p in out) / len(out),
        )
        out.sort(key=lambda p: math.atan2(p[1] - centroid[1], p[0] - centroid[0]))
        return out

    def symmetric_rate(self) -> float:
        """Largest R with (R, R) in the region."""
        r = min(c.clamped_bound / c.weight for c in self.constraints)
        return max(r, 0.0)

    def max_stderr(self) -> float:
        return max(c.bound_stderr for c in self.constraints)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "params": None if self.params is None else self.params.to_json(),
            "constraints": [c.to_json() for c in self.constraints],
        }
        if self.rho is not None:
            out["rho"] = {"re": self.rho.real, "im": self.rho.imag}
        return out


# ---------------------------------------------------------------------------
# Constraint evaluation
# ---------------------------------------------------------------------------


class _Term(NamedTuple):
    """One expectation of a constraint bound; see the module docstring."""

    links: tuple[str, ...]  # drawn in this order
    parts: tuple[tuple[float, str, str | None], ...] = ()
    coh: complex | None = None
    sign: float = 1.0


def _w(link: str, a: float = 1.0) -> tuple[float, str, None]:
    """The part a*W_link."""
    return (a, link, None)


def _r(num: str, den: str, a: float = 1.0) -> tuple[float, str, str]:
    """The part a*W_num / (1 + a*W_den)."""
    return (a, num, den)


def _log(*parts: tuple) -> _Term:
    """E log2(1 + sum of parts), summed in the order given."""
    links = tuple(dict.fromkeys(x for _, num, den in parts for x in (num, den) if x))
    return _Term(links, parts)


def _pen(link: str, a: float) -> _Term:
    """The penalty -E log2(1 + a*W_link)."""
    return _Term((link,), (_w(link, a),), sign=-1.0)


def _coh(x: str, y: str, c: complex) -> _Term:
    """E log2(1 + W_x + W_y + 2 Re(c g_x conj(g_y)))."""
    return _Term((x, y), coh=complex(c))


def _log_arg(term: _Term, draws: Sequence[np.ndarray]) -> np.ndarray:
    """The argument of the term's log2, per draw.

    ``draws`` holds the power W of each link, except that a coherent term
    gets the complex gain g_x of its first link and the power W_y of its
    second: its argument is then 1 + |g_x|^2 + W_y + 2 sqrt(W_y) Re(c g_x),
    summed as ((re^2 + im^2) + W_y) + cross + 1 with the cross term
    sqrt(W_y) * 2 (c_re re - c_im im), in place on one scratch array (two
    with a cross term).  At c = 0 the cross term is +-0.0, whose addition is
    exact, so it is skipped.
    """
    if term.coh is not None:
        g, w = draws
        c = term.coh
        arg = np.multiply(g.real, g.real)
        tmp = np.multiply(g.imag, g.imag)
        arg += tmp
        arg += w
        if c != 0:
            cross = np.multiply(g.real, c.real)
            cross -= np.multiply(g.imag, c.imag, out=tmp)
            cross *= 2.0
            cross *= np.sqrt(w, out=tmp)
            arg += cross
        arg += 1.0
        return arg
    w = dict(zip(term.links, draws))
    arg = 1.0
    for a, num, den in term.parts:
        v = a * w[num]
        if den is not None:
            v /= 1.0 + a * w[den]
        v += arg  # in place: no new full-length temporary per part
        arg = v
    return arg


def _log2_in_place(arg: np.ndarray) -> np.ndarray:
    """log2 of a fresh ``_log_arg`` array, written over it."""
    return np.log2(arg, out=arg)


# Closed forms for Rayleigh links, in nats.  With E, E1, E2 independent
# unit exponentials, f(lam) = E ln(1 + lam E) = e^x E1(x) at x = 1/lam, and
# E ln(1 + l1 E1 + l2 E2) = (l1 f(l1) - l2 f(l2)) / (l1 - l2), the
# divided difference of g(lam) = lam f(lam) (the hypoexponential law).
_SERIES_MAX = 1.0 / 40.0  # at or below: the asymptotic series of e^x E1(x)
_SERIES_COEF = [float((-1) ** n * math.factorial(n)) for n in range(30)]
_NEAR = 1e-3  # relative spacing below which the divided difference cancels
# Trapezoid over u = ln(W_d / mean) for a term conditioned on its ratio
# denominator W_d: W_d / mean = e^u has the density e^(u - e^u) in u.
_U = np.linspace(-40.0, 4.5, 256)
_U_WEIGHT = np.exp(_U - np.exp(_U)) * (_U[1] - _U[0])
_U_WEIGHT[[0, -1]] /= 2.0


def _series(l1: np.ndarray, l2: np.ndarray | float) -> np.ndarray:
    """g[l1, l2] from g(lam) = sum_n (-1)^n n! lam^(n+2), for lam <= 1/40.

    The divided difference of lam^(n+2) is h_(n+1)(l1, l2), the sum of
    l1^i l2^j over i + j = n + 1, built up here without cancellation.  The
    truncation error is below 2e-16; at l2 = 0 the sum is f(l1).
    """
    h, p, out = np.ones(l1.shape), np.ones(np.shape(l2)), np.zeros(l1.shape)
    for coef in _SERIES_COEF:
        p = p * l2
        h = l1 * h + p
        out += coef * h
    return out


def _f(lam: np.ndarray) -> np.ndarray:
    """E ln(1 + lam E) for lam >= 0: e^x E1(x) at x = 1/lam, and 0 at lam = 0."""
    out = np.empty(lam.shape)
    small = lam <= _SERIES_MAX
    if small.any():
        out[small] = _series(lam[small], 0.0)
    x = 1.0 / lam[~small]
    out[~small] = np.exp(x) * exp1(x)
    return out


def _hypo(l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """E ln(1 + l1 E1 + l2 E2) for l1, l2 >= 0, to about 1e-11 nats.

    Where the two rates lie within a relative 1e-3 of each other, the
    divided difference is the Taylor sum g'(m) + g'''(m) d^2 / 24 about
    their midpoint m, with d their difference, g' = f - f/m + 1 and
    g''' = (1 + 2m - m^2 - f/m - 3f) / m^4; the next term is below
    3e-3 (d/m)^4.
    """
    hi, lo = np.maximum(l1, l2), np.minimum(l1, l2)
    out = np.empty(hi.shape)
    small = hi <= _SERIES_MAX
    near = ~small & (hi - lo <= _NEAR * hi)
    far = ~(small | near)
    if small.any():
        out[small] = _series(hi[small], lo[small])
    if near.any():
        m, d = (hi[near] + lo[near]) / 2.0, hi[near] - lo[near]
        fm = _f(m)
        g3 = (1.0 + 2.0 * m - m * m - fm / m - 3.0 * fm) / m**4
        out[near] = fm - fm / m + 1.0 + g3 * d * d / 24.0
    if far.any():
        h, lo = hi[far], lo[far]
        out[far] = (h * _f(h) - lo * _f(lo)) / (h - lo)
    return out


def _rayleigh_term(term: _Term, ch: ChannelSpec) -> float | None:
    """Exact E log2 of a phase-free term whose links are all exponential.

    Given its ratio denominator W_d, if it has one, the argument is 1 plus
    a linear form in the other links' powers, whose mean is ``_hypo``; the
    mean over W_d is then a trapezoid sum over ``_U``.  Returns None when
    that form has more than two links, or the term has more than one
    ratio denominator or a part in W_d itself.
    """
    dens = {den for _, _, den in term.parts if den}
    if len(dens) > 1:
        return None
    den = dens.pop() if dens else None
    w = getattr(ch, den).mean_power * np.exp(_U) if den else np.zeros(1)
    lam: dict[str, np.ndarray] = {}
    for a, num, d in term.parts:
        coef = a / (1.0 + a * w) if d else np.full(w.shape, a)
        lam[num] = lam.get(num, 0.0) + coef * getattr(ch, num).mean_power
    if den in lam or len(lam) > 2:
        return None
    vals = _f(*lam.values()) if len(lam) == 1 else _hypo(*lam.values())
    return float((vals @ _U_WEIGHT if den else vals[0]) / math.log(2.0))


def _estimate_term(
    term: _Term, ch: ChannelSpec, cfg: McConfig, stream_key: tuple[int, ...]
) -> tuple[float, float]:
    """(mean, stderr) of the term, its sign ignored, on channel ``ch``."""
    models = [getattr(ch, name) for name in term.links]
    fading = [m.shape != "deterministic" for m in models]
    if not any(fading):  # exact plug-in at W = mean
        draws = [np.array([m.mean_power]) for m in models]
        if term.coh is not None:
            draws[0] = np.sqrt(draws[0])
        return float(_log2_in_place(_log_arg(term, draws))[0]), 0.0
    if term.coh is None and all(m.exponential for m in models):
        exact = _rayleigh_term(term, ch)
        if exact is not None:
            return exact, 0.0
    if term.coh is not None:
        # The one relative phase is uniform as soon as one link fades, so
        # only a fading link needs a complex gain; Re(c g_x conj g_y) =
        # Re(conj(c) g_y conj g_x) lets the links swap.
        if not fading[0]:
            term = term._replace(links=term.links[::-1], coh=term.coh.conjugate())
            models.reverse()
        models[0] = ComplexGainSampler(models[0])
    est = estimate_expectation(
        lambda *d: _log2_in_place(_log_arg(term, d)), models, cfg, stream_key=stream_key
    )
    return est.mean, est.stderr


# A constraint definition: (c1, c2, label, terms, const).
_Defs = Sequence[tuple[int, int, str, Sequence[_Term], float]]


def _build_region(
    kind: str,
    ch: ChannelSpec,
    defs: _Defs,
    cfg: McConfig,
    params: SplitParams | None = None,
    rho: complex | None = None,
) -> RateRegion:
    family = _KIND_STREAM[kind]
    estimates: dict[_Term, tuple[float, float]] = {}
    constraints = []
    for ci, (c1, c2, label, terms, const) in enumerate(defs):
        coefs: dict[_Term, float] = {}
        for tj, term in enumerate(terms):
            key = term._replace(sign=1.0)
            if key not in estimates:
                estimates[key] = _estimate_term(key, ch, cfg, (family, ci, tj))
            coefs[key] = coefs.get(key, 0.0) + term.sign
        total, var = const, 0.0
        for key, coef in coefs.items():
            mean, stderr = estimates[key]
            total += coef * mean
            var += (coef * stderr) ** 2  # a repeated term is its own perfect correlate
        constraints.append(RateConstraint(c1, c2, total, math.sqrt(var), label))
    return RateRegion(kind=kind, constraints=tuple(constraints), params=params, rho=rho)


def _nofb_defs(sp: SplitParams) -> _Defs:
    """Rate-splitting constraints with exact private-interference penalties."""
    l1, l2 = sp.lambda_p1, sp.lambda_p2
    pen1 = _pen("g21", l2)  # residual private interference at receiver 1
    pen2 = _pen("g12", l1)  # ... and at receiver 2
    full1 = _log(_w("g11"), _w("g21"))
    full2 = _log(_w("g22"), _w("g12"))
    return [
        (1, 0, "inner_nofb1", [_log(_w("g11"), _w("g21", l2)), pen1], 0.0),
        (0, 1, "inner_nofb2", [_log(_w("g22"), _w("g12", l1)), pen2], 0.0),
        (1, 1, "inner_nofb3",
         [full2, _log(_w("g11", l1), _w("g21", l2)), pen1, pen2], 0.0),
        (1, 1, "inner_nofb4",
         [full1, _log(_w("g22", l2), _w("g12", l1)), pen1, pen2], 0.0),
        (1, 1, "inner_nofb5",
         [_log(_w("g11", l1), _w("g21")), _log(_w("g22", l2), _w("g12")), pen1, pen2], 0.0),
        (2, 1, "inner_nofb6",
         [full1, _log(_w("g22", l2), _w("g12")), _log(_w("g11", l1), _w("g21", l2)),
          pen1, pen1, pen2], 0.0),
        (1, 2, "inner_nofb7",
         [full2, _log(_w("g11", l1), _w("g21")), _log(_w("g22", l2), _w("g12", l1)),
          pen2, pen2, pen1], 0.0),
    ]


def nofb_inner(ch: ChannelSpec, cfg: McConfig | None = None) -> RateRegion:
    """Rate-splitting inner bound without feedback (7 constraints).

    Private power is lambda_pk = min(1/INR_k, 1).  This is
    :func:`nofb_achievable` with each residual private-interference
    penalty E[log2(1 + lambda_pk |g|^2)] <= 1 replaced by its worst-case
    value of one bit, which is what makes the constants -1/-2/-3 appear.
    """
    cfg = cfg or McConfig()
    sp = SplitParams.no_feedback(ch)
    defs = []
    for c1, c2, label, terms, const in _nofb_defs(sp):
        kept = [t for t in terms if t.sign > 0]
        defs.append((c1, c2, label, kept, const - (len(terms) - len(kept))))
    return _build_region("nofb_inner", ch, defs, cfg, params=sp)


def nofb_achievable(ch: ChannelSpec, cfg: McConfig | None = None) -> RateRegion:
    """Non-feedback inner bound with exact private-interference penalties.

    Identical to :func:`nofb_inner` except that each worst-cased one-bit
    penalty is kept as the exact term E[log2(1 + lambda_pk |g|^2)] <= 1.
    This is the variant plotted in symmetric-rate sweeps; it contains the
    -1/-2/-3 region.
    """
    cfg = cfg or McConfig()
    sp = SplitParams.no_feedback(ch)
    return _build_region("nofb_achievable", ch, _nofb_defs(sp), cfg, params=sp)


def nofb_outer(ch: ChannelSpec, cfg: McConfig | None = None) -> RateRegion:
    """Outer bound without feedback (7 constraints, valid even with CSIT)."""
    cfg = cfg or McConfig()
    full1 = _log(_w("g11"), _w("g21"))
    full2 = _log(_w("g22"), _w("g12"))
    ratio1 = _log(_r("g11", "g12"))
    ratio2 = _log(_r("g22", "g21"))
    defs = [
        (1, 0, "outer_nofb1", [_log(_w("g11"))], 0.0),
        (0, 1, "outer_nofb2", [_log(_w("g22"))], 0.0),
        (1, 1, "outer_nofb3", [full2, ratio1], 0.0),
        (1, 1, "outer_nofb4", [full1, ratio2], 0.0),
        (1, 1, "outer_nofb5",
         [_log(_w("g21"), _r("g11", "g12")), _log(_w("g12"), _r("g22", "g21"))], 0.0),
        (2, 1, "outer_nofb6", [full1, _log(_w("g12"), _r("g22", "g21")), ratio1], 0.0),
        (1, 2, "outer_nofb7", [full2, _log(_w("g21"), _r("g11", "g12")), ratio2], 0.0),
    ]
    return _build_region("nofb_outer", ch, defs, cfg)


def _correlation(rho: complex) -> tuple[complex, float]:
    """(rho, 1 - |rho|^2) for a transmit correlation with |rho| <= 1."""
    rho = complex(rho)
    if abs(rho) > 1.0 + 1e-12:
        raise ValueError(f"|rho| must be <= 1, got {abs(rho)}")
    return rho, max(1.0 - abs(rho) ** 2, 0.0)


def fb_inner(ch: ChannelSpec, rho: complex, cfg: McConfig | None = None) -> RateRegion:
    """Rate-splitting inner bound with feedback (6 constraints).

    The inner point matched to the outer bound :func:`fb_outer` at the
    same transmit correlation rho: private power is lambda_pk =
    min(1/INR_k, 1 - |rho|^2), and the common refinement parts combine
    coherently with coefficient |rho| * rho, so the coherent terms track
    the phase of rho.
    """
    cfg = cfg or McConfig()
    rho, com = _correlation(rho)
    sp = SplitParams(min(1.0 / ch.inr1, com), min(1.0 / ch.inr2, com))
    l1, l2 = sp.lambda_p1, sp.lambda_p2
    c = abs(rho) * rho
    coh1 = _coh("g11", "g21", c)  # receiver 1 full-power log with coherent part
    coh2 = _coh("g22", "g12", c.conjugate())  # receiver 2: Re(c conj(g22) g12)
    priv1 = _log(_w("g11", l1), _w("g21", l2))
    priv2 = _log(_w("g22", l2), _w("g12", l1))
    defs = [
        (1, 0, "inner_fb1", [coh1], -1.0),
        (1, 0, "inner_fb2", [_log(_w("g12", com)), priv1], -2.0),
        (0, 1, "inner_fb3", [coh2], -1.0),
        (0, 1, "inner_fb4", [_log(_w("g21", com)), priv2], -2.0),
        (1, 1, "inner_fb5", [coh2, priv1], -2.0),
        (1, 1, "inner_fb6", [coh1, priv2], -2.0),
    ]
    return _build_region("fb_inner", ch, defs, cfg, params=sp, rho=rho)


def fb_outer(ch: ChannelSpec, rho: complex, cfg: McConfig | None = None) -> RateRegion:
    """Outer bound with feedback, parameterized by the transmit correlation rho."""
    cfg = cfg or McConfig()
    rho, com = _correlation(rho)
    coh1 = _coh("g11", "g21", rho)
    coh2 = _coh("g22", "g12", rho.conjugate())
    ratio1 = _log(_r("g11", "g12", com))  # log2(1 + com|g11|^2 / (1 + com|g12|^2))
    ratio2 = _log(_r("g22", "g21", com))
    defs = [
        (1, 0, "outer_fb1", [coh1], 0.0),
        (1, 0, "outer_fb2", [_log(_w("g12", com)), ratio1], 0.0),
        (0, 1, "outer_fb3", [coh2], 0.0),
        (0, 1, "outer_fb4", [_log(_w("g21", com)), ratio2], 0.0),
        (1, 1, "outer_fb5", [coh2, ratio1], 0.0),
        (1, 1, "outer_fb6", [coh1, ratio2], 0.0),
    ]
    return _build_region("fb_outer", ch, defs, cfg, rho=rho)


def imac_regions(
    ch: ChannelSpec, cfg: McConfig | None = None
) -> tuple[RateRegion, RateRegion]:
    """Inner and outer bounds for the interference MAC.

    Receiver 1 decodes both messages, receiver 2 only its own; only
    transmitter 1 splits its power, with lambda_p1 = min(1/INR1, 1).
    """
    cfg = cfg or McConfig()
    sp = SplitParams(min(1.0 / ch.inr1, 1.0), 1.0)
    l1 = sp.lambda_p1
    direct1 = _log(_w("g11"))
    cross2 = _log(_w("g21"))
    full1 = _log(_w("g11"), _w("g21"))
    full2 = _log(_w("g22"), _w("g12"))
    inner_defs = [
        (1, 0, "inner_IMA1", [direct1], 0.0),
        (0, 1, "inner_IMA2", [_log(_w("g22"), _w("g12", l1))], -1.0),
        (0, 1, "inner_IMA3", [cross2], 0.0),
        (1, 1, "inner_IMA4", [full1], 0.0),
        (1, 1, "inner_IMA5", [full2, _log(_w("g11", l1))], -1.0),
        (1, 2, "inner_IMA6", [full2, _log(_w("g11", l1), _w("g21"))], -1.0),
    ]
    outer_defs = [
        (1, 0, "outer_IMA1", [direct1], 0.0),
        (0, 1, "outer_IMA2", [_log(_w("g22"))], 0.0),
        (0, 1, "outer_IMA3", [cross2], 0.0),
        (1, 1, "outer_IMA4", [full1], 0.0),
        (1, 1, "outer_IMA5", [full2, _log(_r("g11", "g12"))], 0.0),
        (1, 2, "outer_IMA6", [full2, _log(_r("g11", "g12"), _w("g21"))], 0.0),
    ]
    inner = _build_region("imac_inner", ch, inner_defs, cfg, params=sp)
    outer = _build_region("imac_outer", ch, outer_defs, cfg)
    return inner, outer


def static_equivalent(ch: ChannelSpec, rho: complex | None = None) -> RateRegion:
    """The inner bound evaluated on the static plug-in channel.

    That is :func:`nofb_inner`, or :func:`fb_inner` at the transmit
    correlation ``rho`` when one is given.  The plug-in replaces each link
    with the deterministic real gain sqrt(mean power), so every bound is
    exact (zero standard error) and nothing is drawn.  ``region_gap(static,
    fading)`` gives the per-constraint deltas the static certificates bound.
    """
    det = ch.deterministic_equivalent()
    region = nofb_inner(det) if rho is None else fb_inner(det, rho)
    return replace(region, kind="static_inner")


# ---------------------------------------------------------------------------
# Gap certification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionGap:
    """Distance from an upper region (outer, or static) to a lower one.

    ``delta_vertex`` is the largest diagonal shift needed to bring any
    upper vertex (clamped to the nonnegative orthant) into the lower
    region; ``per_constraint`` pairs the constraints of the two regions by
    position (both declare them in the same order) and divides the bound
    difference by c1+c2, matching how multi-rate constraints weight a
    per-user gap.
    """

    delta_vertex: float
    delta_vertex_stderr: float
    per_constraint: tuple[tuple[str, float, float], ...]

    @property
    def max_weighted_delta(self) -> float:
        return max(d for _, d, _ in self.per_constraint)


# The (upper, lower) kind pairs whose gap certifies a result.
_GAP_PAIRS = {
    ("nofb_outer", "nofb_inner"), ("nofb_outer", "nofb_achievable"),
    ("fb_outer", "fb_inner"), ("imac_outer", "imac_inner"),
    ("static_inner", "nofb_inner"), ("static_inner", "fb_inner"),
}


def _shift_to_enter(v: tuple[float, float], c: RateConstraint) -> float:
    """Smallest t >= 0 with clamp(v - t*(1,1)) on the feasible side of c."""
    x, y = v
    bound = c.clamped_bound
    lhs0 = c.c1 * x + c.c2 * y
    if lhs0 <= bound:
        return 0.0
    lo, hi = min(x, y), max(x, y)
    t = (lhs0 - bound) / (c.c1 + c.c2)
    if t <= lo:
        return t
    # smaller coordinate is clamped to zero beyond t = lo
    cw = c.c1 if x >= y else c.c2
    if cw == 0:
        return t  # unreachable for clamped bounds; phase-one crossing
    return hi - bound / cw


def region_gap(outer: RateRegion, inner: RateRegion) -> RegionGap:
    """Certified gap between a matched upper/lower region pair.

    ``(outer.kind, inner.kind)`` must be one of ``_GAP_PAIRS``; a pair with
    a feedback inner bound must be matched, i.e. both built at the same
    transmit correlation rho.
    """
    if (outer.kind, inner.kind) not in _GAP_PAIRS:
        raise ValueError(f"mismatched region kinds: {outer.kind!r} vs {inner.kind!r}")
    if inner.kind == "fb_inner" and not (
        outer.rho is not None and inner.rho is not None
        and abs(inner.rho - outer.rho) <= 1e-12
    ):
        raise ValueError("feedback gap needs a matched pair: the same rho inside and out")

    per = []
    for oc, ic in zip(outer.constraints, inner.constraints, strict=True):
        if (oc.c1, oc.c2) != (ic.c1, ic.c2):
            raise ValueError(f"paired constraints disagree on rate weights: {oc.label}")
        delta = (oc.bound - ic.bound) / oc.weight
        se = math.hypot(oc.bound_stderr, ic.bound_stderr) / oc.weight
        per.append((oc.label, delta, se))

    delta_vertex = 0.0
    for v in outer.vertices():
        t = max(_shift_to_enter(v, c) for c in inner.constraints)
        delta_vertex = max(delta_vertex, t)
    se_vertex = math.hypot(outer.max_stderr(), inner.max_stderr())
    return RegionGap(delta_vertex, se_vertex, tuple(per))


# ---------------------------------------------------------------------------
# Symmetric-rate sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    snr_db: float
    alpha: float
    sym_inner: float
    sym_outer: float
    gap: float


def symmetric_sweep(
    alpha: float,
    snr_db_list: Sequence[float],
    shape: str = "rayleigh",
    cfg: McConfig | None = None,
    k: float | None = None,
) -> list[SweepRow]:
    """Symmetric-rate inner/outer comparison at INR = SNR^alpha.

    The inner curve evaluates the achievable region with exact
    private-interference penalties (the variant the worst-cased constants
    are derived from); the outer curve is the non-feedback outer bound.
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    cfg = cfg or McConfig()
    rows = []
    for snr_db in snr_db_list:
        snr = 10.0 ** (snr_db / 10.0)
        inr = snr**alpha
        ch = ChannelSpec.symmetric(snr, inr, shape=shape, k=k)
        sym_inner = nofb_achievable(ch, cfg).symmetric_rate()
        sym_outer = nofb_outer(ch, cfg).symmetric_rate()
        rows.append(SweepRow(snr_db, alpha, sym_inner, sym_outer, sym_outer - sym_inner))
    return rows
