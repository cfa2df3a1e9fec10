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
``W = |g|^2``, of one of three shapes:

* ``sign * E log2(1 + p_1 + p_2 + ...)``, summed in the declared order,
  where each part is ``a*W_x`` or the ratio ``a*W_x / (1 + a*W_y)``; a
  penalty has ``sign = -1``;
* the coherent ``E log2(1 + W_x + W_y + 2 Re(c g_x conj(g_y)))`` of the
  feedback regions, with c the complex correlation coefficient;
* the aligned-phase gain ``E log2(1 + 2|g_x||g_y| / (1 + W_x + W_y))`` of
  the n-phase scheme's pentagon (``nphase_outer_region``).

A term's links alone choose how it is evaluated, and the first two ways
are exact, with zero standard error:

* all links deterministic: the plug-in at W = mean power
  (``_static_term``, a ``log2_sum`` that neither cancels nor overflows);
* a sum of parts whose links' laws state their Laplace transforms
  (``FadingModel.log_laplace``: Rayleigh, Nakagami-m, Weibull k = 1,
  deterministic), except its ratio denominator, if it has one, which
  needs a log rule (``FadingModel.log_rule``, in ln W): given it, the
  mean is ``_laplace``'s (Hamdi's lemma, a trapezoid in ln z), and the
  mean over it sums on its rule (``_exact_term``);
* any other term: Monte Carlo, as is a sum with a Weibull k != 1 or
  tabulated link outside its denominator, or a denominator with no log
  rule (deterministic, tabulated, or Gamma k below about 1.6e-4).

Monte Carlo draws powers, not complex gains: each link of a term draws W
from its fading model.  Only the coherent term depends on a phase, and
only on the one relative phase of g_x conj(g_y), which is uniform as soon
as one of the two links fades; its mean then depends on |c| alone.  So
that term draws the complex gain g_x of its first link and only the power
of the second, and averages the phase in closed form: with p = 1 + W_x +
W_y and q = 2|c| sqrt(W_x W_y), the mean of log2(p + q cos phi) is
log2(p (1 + S) / 2), S = sqrt(1 - (q/p)^2) (``_phase_average``), which
reads only |g_x|^2 and W_y, whichever link fades.  Only its difference
from log2 p, which lies in [log2((1 + sqrt(1 - |c|^2))/2), 0], is drawn
when the phase-free part E log2(1 + W_x + W_y) is exact (``_exact_term``),
which is then added back.  Otherwise the drawn value keeps log2 p.  At
c = 0 with an exact phase-free part the term is that exact value with
zero standard error, though its draws still run.  The gain comes from
``ComplexGainSampler``: on an exponential link it is one complex
Gaussian, sqrt(mean / 2) times a pair of standard normals, on any other
fading law its power is drawn first and given a uniform phase, and on a
static link it is the real sqrt(mean).  The gain term stays on Monte
Carlo on every law.

Within one region build each distinct expectation is evaluated once.
Terms are compared by law, not by link name: a ``_Law`` holds the fading
model of each link by slot, the parts with each link replaced by its
slot, the coherent term's real coefficient, |c| when a link fades and
Re(c) on static real gains, and the gain flag; the sign is left out.
The law is both the build's cache key and the only input of every
evaluator, which never sees a link name or the channel.  A drawn
estimate uses the substream ``(family of the region kind, i, j)`` of the
first occurrence, term ``j`` of constraint ``i``, and every later
occurrence with the same law reads it.  So on a symmetric channel each
receiver-2 term is its receiver-1 mirror's estimate, and the region is
exactly mirror-symmetric: mirrored constraints have bit-identical bounds
and standard errors.  A constraint adds ``coef * mean`` with variance
``(coef * stderr)^2``, where ``coef`` sums the signs of the term's
occurrences within that constraint: a repeated term is perfectly
correlated with itself.

One build makes the regions of one kind on one channel for a list of
variants: ``fb_inner`` and ``fb_outer`` take a list of rho.  Each
distinct exact law is evaluated once for all of them (the coherent
term's phase-free part is one law at every rho), and the drawn laws that
share their samplers and first-occurrence substream are the rows of one
``estimate_expectation``: each chunk is drawn once and every law reduced
on it, so each variant's region is bit-identical to its lone build.  The
variants share draws only because a substream key holds no rho.  Builds
of different kinds never share draws, so an inner and an outer bound stay
independent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .fading import ComplexGainSampler, FadingModel, log2_sum
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
    "nphase_outer_region",
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


@dataclass(frozen=True)
class RateConstraint:
    """Half-plane c1*R1 + c2*R2 <= bound (bits per channel use), with
    finite weights c1, c2 >= 0 and c1 + c2 > 0."""

    c1: float
    c2: float
    bound: float
    bound_stderr: float
    label: str

    def __post_init__(self):
        if not (0 <= self.c1 < math.inf and 0 <= self.c2 < math.inf and self.c1 + self.c2 > 0):
            raise ValueError(
                f"rate weights must be finite and >= 0 with c1 + c2 > 0, "
                f"got ({self.c1}, {self.c2})"
            )
        if self.bound_stderr < 0:
            raise ValueError("bound_stderr must be nonnegative")

    @property
    def weight(self) -> float:
        """Per-rate normalization c1 + c2: the number of rate units bounded."""
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
        """Corner points of the clamped region (pairwise intersections), unordered."""
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
    gain: bool = False  # the aligned-phase gain over ``links``


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


def _gain(x: str, y: str) -> _Term:
    """E log2(1 + 2|g_x||g_y| / (1 + W_x + W_y))."""
    return _Term((x, y), gain=True)


class _Law(NamedTuple):
    """What a term's mean depends on, its sign aside; see the module docstring.

    Two terms with one law are one expectation, whatever their links are
    called, and the law is all that evaluates it.
    """

    models: tuple[FadingModel, ...]  # each link's law, by slot: drawn in this order
    parts: tuple[tuple[float, int, int | None], ...]  # links replaced by their slots
    coh: float | None  # the coherent term's real coefficient
    gain: bool


def _law(term: _Term, ch: ChannelSpec) -> _Law:
    """The term's law on channel ``ch``, its coherent coefficient made real.

    When a link fades, the relative phase of g_x conj(g_y) is uniform, so
    Re(c g_x conj g_y) has the law of |c| sqrt(W_x W_y) cos(phi): the mean
    depends on |c| alone.  Static links have real gains, on which it is
    Re(c) sqrt(W_x W_y).
    """
    models = tuple(getattr(ch, name) for name in term.links)
    slot = {name: i for i, name in enumerate(term.links)}.get
    parts = tuple((a, slot(num), slot(den)) for a, num, den in term.parts)
    coh = term.coh
    if coh is not None:
        coh = abs(coh) if any(m.shape != "deterministic" for m in models) else coh.real
    return _Law(models, parts, coh, term.gain)


def _parts(law: _Law, draws: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Each part a*W_x or a*W_x / (1 + a*W_y) of a sum-of-parts law, per draw."""
    for a, num, den in law.parts:
        v = a * draws[num]
        if den is not None:
            v /= 1.0 + a * draws[den]
        yield v


def _log_arg(law: _Law, draws: Sequence[np.ndarray]) -> np.ndarray:
    """The argument of the log2 of a sum-of-parts or gain law, per draw.

    ``draws`` holds the power W of each slot.  A gain term's two square
    roots are multiplied so that no product W_x W_y can overflow.
    """
    if law.gain:
        wx, wy = draws
        return 2.0 * np.sqrt(wx) * np.sqrt(wy) / (1.0 + wx + wy) + 1.0
    arg = 1.0
    for v in _parts(law, draws):
        v += arg  # in place: no new full-length temporary per part
        arg = v
    return arg


def _static_term(law: _Law) -> float:
    """The exact value of a law on static links: log2 of its argument at W = mean.

    Each shape's argument is a sum of nonnegative parts whose log
    ``log2_sum`` takes, so it neither cancels nor overflows.  The coherent
    argument, with real gains g = sqrt(W), is taken over 8, as
    2 ((g_x + c g_y) / 4)^2 + (1 - c^2) W_y / 8 + 1/8: at c = -1 and
    W_x = W_y it is 1/8 exactly.  A gain's fraction is halved, which rounds
    as the unhalved one wherever 1 + W_x + W_y is finite, and is finite beyond.
    """
    w = [float(m.mean_power) for m in law.models]  # a numpy scalar would warn at inf
    if law.gain:
        wx, wy = w
        return log2_sum(1.0, math.sqrt(wx) * math.sqrt(wy) / (0.5 + wx / 2.0 + wy / 2.0))
    if law.coh is not None:
        c, gx, gy = law.coh, math.sqrt(w[0]), math.sqrt(w[1])
        return 3.0 + log2_sum(2.0 * ((gx + c * gy) / 4.0) ** 2, (1.0 - c * c) * (w[1] / 8.0),
                              0.125)
    return log2_sum(1.0, *_parts(law, w))


def _phase_average(g: np.ndarray, w: np.ndarray, c: float, log_p: bool) -> np.ndarray:
    """The coherent term averaged over its uniform phase, per draw, in bits.

    With W_x = |g|^2, p = 1 + W_x + W_y and q = 2c sqrt(W_x W_y), the mean of
    log2(p + q cos phi) over phi is log2(p (1 + S) / 2), S = sqrt(1 - (q/p)^2).
    Returned is log2((1 + S)/2), in [log2((1 + sqrt(1 - c^2))/2), 0], and
    with ``log_p`` the full log2(p (1 + S) / 2).  (1 + S)/2 is evaluated as
    1/2 + sqrt(max(1/4 - c^2 v, 0)) with v = ((W_x / p) W_y) / p, in place on
    two scratch arrays and 14 passes (15 with ``log_p``), so that neither
    W_x W_y nor p^2 is formed: the powers may reach 1e306.  Near c = 1 and
    W_x = W_y the subtraction cancels: S^2 is then off by a few 1e-17, so
    a draw is off by at most about 2e-8 bits (against 50-digit mpmath at
    powers from 1e3 to 1e306).  At c = 0 without ``log_p`` the value is
    exactly 0, and only zeros are made.
    """
    if c == 0 and not log_p:
        return np.zeros_like(w)
    a = np.multiply(g.real, g.real)
    b = np.multiply(g.imag, g.imag)
    a += b  # W_x
    np.add(a, w, out=b)
    b += 1.0  # p
    a /= b
    a *= w
    a /= b  # v = W_x W_y / p^2, at most 1/4
    a *= -c * c
    a += 0.25
    np.maximum(a, 0.0, out=a)
    np.sqrt(a, out=a)
    a += 0.5  # (1 + S) / 2
    if log_p:
        a *= b
    return np.log2(a, out=a)


def _log2_in_place(arg: np.ndarray) -> np.ndarray:
    """log2 of a fresh array of log2 arguments, written over it."""
    return np.log2(arg, out=arg)


# Exact terms, in nats, by Hamdi's lemma: with independent W_j of log-Laplace
# transforms L_j(t) = ln E e^(-t W_j), E ln(1 + sum_j r_j W_j) is the integral
# over z > 0 of e^(-z) (1 - exp(sum_j L_j(z r_j))) dz / z.  Both it and the mean
# over a ratio denominator are trapezoid sums in a log variable, which converge
# geometrically in the step (Trefethen & Weideman 2014).
_STEP = 0.25
_BLOCK = 1024  # denominator nodes per ``_laplace`` call (``_exact_term``)


def _laplace(links: Sequence[tuple[FadingModel, np.ndarray | float]]) -> np.ndarray:
    """E ln(1 + sum_j r_j W_j), per (law of W_j, rate r_j >= 0), from ``log_laplace``.

    The links' rates broadcast against each other, one linear form per
    element.  The trapezoid runs in t = ln z, where the integrand is
    analytic for |Im t| < pi/2, with one step of at most ``_STEP`` from
    ln(1e-19 / max(E sum, 1)) to ln 50 for every form: the integrand is
    below 1e-19 at both ends, which therefore carry no half weights.  Where
    z r_j passes the float limit, its factor E e^(-z r_j W_j) is read as its
    limit 0, so every rate up to 1.8e308 gives a finite value.  Rates that
    are all 0 give exactly 0.  A law with no transform raises ``ValueError``.
    """
    m = len(links)
    with np.errstate(over="ignore"):  # r E W (E sum, capped) or z r may pass the limit
        mean = min(float(np.max(sum(r * (law.mean_power / m) for law, r in links))),
                   np.finfo(float).max)
        lo, hi = math.log(1e-19 / m) - math.log(max(mean, 1.0 / m)), math.log(50.0)
        n = math.ceil((hi - lo) / _STEP) + 1
        z = np.exp(np.linspace(lo, hi, n))
        s = sum(law.log_laplace(np.multiply.outer(r, z)) for law, r in links)
    return np.expm1(s, out=s) @ (np.exp(-z) * ((lo - hi) / (n - 1)))  # negative weights: 1 - e^s


def _exact_term(law: _Law) -> float | None:
    """Exact E log2 of a sum of parts, from its links' Laplace transforms.

    Given the ratio denominator W_d, if there is one (a declared term has at
    most one, never also a numerator), the argument is 1 plus a linear form
    in the other W_x, at rates a and a / (1 + a W_d), whose mean is
    ``_laplace``; the mean over W_d sums on its law's ``log_rule``,
    ``_BLOCK`` nodes per call, so that the arrays stay within a few MB at any
    rule size.  None: another link's law has no transform, or W_d's no rule.
    """
    den = next((d for _, _, d in law.parts if d is not None), None)

    def mean_ln(lnw):  # given ln W_d = lnw
        rates: dict[int, np.ndarray | float] = {}
        for a, num, d in law.parts:
            if d is None:
                rate = a
            else:  # a / (1 + a W_d), in logs: W_d may pass the float limit
                rate = np.exp(-np.logaddexp(-math.log(a), lnw)) if a else 0.0 * lnw
            rates[num] = rates.get(num, 0.0) + rate
        return _laplace([(law.models[x], rate) for x, rate in rates.items()])

    try:
        if den is None:
            return float(mean_ln(None) / math.log(2.0))
        lnw, weight = law.models[den].log_rule()
        return float(sum(mean_ln(lnw[i:i + _BLOCK]) @ weight[i:i + _BLOCK]
                         for i in range(0, len(lnw), _BLOCK)) / math.log(2.0))
    except ValueError:  # a law with no transform, or a denominator with no log rule
        return None


class _Draw(NamedTuple):
    """A drawn expectation: ``base``, if any, plus the mean of ``f`` over ``samplers``."""

    samplers: tuple
    f: Callable[..., np.ndarray]
    base: float | None


def _plan(law: _Law, exact: Callable[[_Law], float | None]) -> float | _Draw:
    """The mean of the expectation with law ``law`` when it is exact, else its draw.

    ``exact`` evaluates a sum of parts: ``_exact_term`` or a cache of it.
    """
    if all(m.shape == "deterministic" for m in law.models):  # exact plug-in at W = mean
        return _static_term(law)
    if law.coh is None:
        if law.parts:  # a sum of parts: not a gain term
            value = exact(law)
            if value is not None:
                return value
        return _Draw(law.models, lambda *d: _log2_in_place(_log_arg(law, d)), None)
    # The phase-free part E log2(1 + W_x + W_y), where exact, is a control
    # variate: only the phase average's difference from it is drawn.  The
    # phase average reads |g_x|^2 and W_y alone, whichever link fades.
    base = exact(law._replace(parts=((1.0, 0, None), (1.0, 1, None)), coh=None))
    samplers = (ComplexGainSampler(law.models[0]), law.models[1])
    return _Draw(samplers, lambda g, w: _phase_average(g, w, law.coh, base is None), base)


# A constraint definition: (c1, c2, label, terms, const).
_Defs = Sequence[tuple[int, int, str, Sequence[_Term], float]]
# One variant of a region kind: (defs, params, rho) of one region.
_Variant = tuple[_Defs, SplitParams | None, complex | None]


def _build_region(
    kind: str, ch: ChannelSpec, variants: Sequence[_Variant], cfg: McConfig | None
) -> list[RateRegion]:
    """One region of ``kind`` on ``ch`` per variant, in order; see the module docstring."""
    family = _KIND_STREAM[kind]
    exact = functools.cache(_exact_term)
    plans: dict[_Law, float | _Draw] = {}
    groups: dict[tuple, dict[_Law, None]] = {}  # (samplers, stream key) -> drawn laws
    firsts = []  # per variant: each law's first stream key, and each constraint's {law: coef}
    for defs, _, _ in variants:
        first: dict[_Law, tuple[int, ...]] = {}
        coefs = []
        for ci, (_, _, _, terms, _) in enumerate(defs):
            row: dict[_Law, float] = {}
            for tj, term in enumerate(terms):
                law = _law(term, ch)
                first.setdefault(law, (family, ci, tj))
                row[law] = row.get(law, 0.0) + term.sign
            coefs.append(row)
        for law, key in first.items():
            if law not in plans:
                plans[law] = _plan(law, exact)
            if isinstance(plans[law], _Draw):
                groups.setdefault((plans[law].samplers, key), {})[law] = None
        firsts.append((first, coefs))
    estimates = {}
    for (samplers, key), laws in groups.items():
        ests = estimate_expectation([plans[law].f for law in laws], samplers, cfg,
                                    stream_key=key)
        for law, est in zip(laws, ests):
            base = plans[law].base
            estimates[law, key] = (est.mean if base is None else base + est.mean), est.stderr
    regions = []
    for (defs, params, rho), (first, coefs) in zip(variants, firsts):
        constraints = []
        for (c1, c2, label, _, const), row in zip(defs, coefs):
            total, var = const, 0.0
            for law, coef in row.items():
                plan = plans[law]
                mean, stderr = (estimates[law, first[law]] if isinstance(plan, _Draw)
                                else (plan, 0.0))
                total += coef * mean
                var += (coef * stderr) ** 2  # a repeated term is its own perfect correlate
            constraints.append(RateConstraint(c1, c2, total, math.sqrt(var), label))
        regions.append(RateRegion(kind, tuple(constraints), params, rho))
    return regions


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
    sp = SplitParams.no_feedback(ch)
    defs = []
    for c1, c2, label, terms, const in _nofb_defs(sp):
        kept = [t for t in terms if t.sign > 0]
        defs.append((c1, c2, label, kept, const - (len(terms) - len(kept))))
    return _build_region("nofb_inner", ch, [(defs, sp, None)], cfg)[0]


def nofb_achievable(ch: ChannelSpec, cfg: McConfig | None = None) -> RateRegion:
    """Non-feedback inner bound with exact private-interference penalties.

    Identical to :func:`nofb_inner` except that each worst-cased one-bit
    penalty is kept as the exact term E[log2(1 + lambda_pk |g|^2)] <= 1.
    This is the variant plotted in symmetric-rate sweeps; it contains the
    -1/-2/-3 region.
    """
    sp = SplitParams.no_feedback(ch)
    return _build_region("nofb_achievable", ch, [(_nofb_defs(sp), sp, None)], cfg)[0]


def nofb_outer(ch: ChannelSpec, cfg: McConfig | None = None) -> RateRegion:
    """Outer bound without feedback (7 constraints, valid even with CSIT)."""
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
    return _build_region("nofb_outer", ch, [(defs, None, None)], cfg)[0]


def _correlation(rho: complex) -> tuple[complex, float]:
    """(rho, 1 - |rho|^2) for a transmit correlation with |rho| <= 1."""
    rho = complex(rho)
    if abs(rho) > 1.0 + 1e-12:
        raise ValueError(f"|rho| must be <= 1, got {abs(rho)}")
    return rho, max(1.0 - abs(rho) ** 2, 0.0)


def _per_rho(kind: str, ch: ChannelSpec, rho, cfg: McConfig | None, variant):
    """The region of ``kind`` at the transmit correlation ``rho``, or for a
    sequence of rho the list of them, built together from ``variant(rho, com)``."""
    one = np.ndim(rho) == 0
    variants = [variant(*_correlation(r)) for r in ([rho] if one else rho)]
    regions = _build_region(kind, ch, variants, cfg)
    return regions[0] if one else regions


def fb_inner(
    ch: ChannelSpec, rho: complex | Sequence[complex], cfg: McConfig | None = None
) -> RateRegion | list[RateRegion]:
    """Rate-splitting inner bound with feedback (6 constraints).

    The inner point matched to the outer bound :func:`fb_outer` at the
    same transmit correlation rho: private power is lambda_pk =
    min(1/INR_k, 1 - |rho|^2), and the common refinement parts combine
    coherently with coefficient |rho| * rho, so the coherent terms track
    the phase of rho.  Given a sequence of rho, it returns one region per
    rho, in order, each bit-identical to its lone build: they are built
    together, so that each drawn term is drawn once for all of them.
    """

    def variant(rho: complex, com: float) -> _Variant:
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
        return defs, sp, rho

    return _per_rho("fb_inner", ch, rho, cfg, variant)


def fb_outer(
    ch: ChannelSpec, rho: complex | Sequence[complex], cfg: McConfig | None = None
) -> RateRegion | list[RateRegion]:
    """Outer bound with feedback, parameterized by the transmit correlation rho.

    Given a sequence of rho, it returns one region per rho, as
    :func:`fb_inner` does.
    """

    def variant(rho: complex, com: float) -> _Variant:
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
        return defs, None, rho

    return _per_rho("fb_outer", ch, rho, cfg, variant)


def imac_regions(
    ch: ChannelSpec, cfg: McConfig | None = None
) -> tuple[RateRegion, RateRegion]:
    """Inner and outer bounds for the interference MAC.

    Receiver 1 decodes both messages, receiver 2 only its own; only
    transmitter 1 splits its power, with lambda_p1 = min(1/INR1, 1).
    """
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
    (inner,) = _build_region("imac_inner", ch, [(inner_defs, sp, None)], cfg)
    (outer,) = _build_region("imac_outer", ch, [(outer_defs, None, None)], cfg)
    return inner, outer


def nphase_outer_region(ch: ChannelSpec, cfg: McConfig | None = None) -> RateRegion:
    """Symmetric feedback outer bound relaxed to a pentagon: per-user
    full-power bounds and the sum bound full + ratio + gain, whose corners
    ``afscheme.nphase_corner_gap`` measures the n-phase scheme against."""
    if not ch.is_symmetric():
        raise ValueError("the n-phase corners are defined for symmetric channels")
    full = _log(_w("g11"), _w("g21"))
    defs = [
        (1, 0, "nphase_outer_sym1", [full], 0.0),
        (0, 1, "nphase_outer_sym2", [full], 0.0),
        (1, 1, "nphase_outer_sym3", [full, _log(_r("g11", "g21")), _gain("g11", "g21")], 0.0),
    ]
    return _build_region("nphase_outer_sym", ch, [(defs, None, None)], cfg)[0]


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
    # smaller coordinate is clamped to zero beyond t = lo.  Were c all on
    # the smaller, t <= lo as bound >= 0, and only rounding put t above lo.
    c_hi = c.c1 if x >= y else c.c2
    return hi - bound / c_hi if c_hi else lo


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
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rows = []
    for snr_db in snr_db_list:
        try:
            snr = 10.0 ** (snr_db / 10.0)
            inr = snr**alpha
        except OverflowError:
            raise ValueError(
                f"SNR or INR = SNR^alpha overflows at snr_db={snr_db:g}, alpha={alpha:g}"
            ) from None
        if not (0 < snr < math.inf and 0 < inr < math.inf):
            raise ValueError(f"SNR = {snr:g} or INR = SNR^alpha = {inr:g} is not a positive "
                             f"finite float at snr_db={snr_db:g}, alpha={alpha:g}")
        ch = ChannelSpec.symmetric(snr, inr, shape=shape, k=k)
        sym_inner = nofb_achievable(ch, cfg).symmetric_rate()
        sym_outer = nofb_outer(ch, cfg).symmetric_rate()
        rows.append(SweepRow(snr_db, alpha, sym_inner, sym_outer, sym_outer - sym_inner))
    return rows
