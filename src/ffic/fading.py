"""Fading power-gain models and their logarithmic Jensen's gap.

A fading model stores the law of the squared channel magnitude
``W = |g|^2`` together with its mean power ``E[W]`` (the SNR or INR of a
link in linear scale).  The quantity certified throughout this package is

    xi(a) = log2(a + E[W]) - E[log2(a + W)],    a >= 0,

which is nonnegative (Jensen), non-increasing in ``a`` (xi'(a) ln 2 =
1/(a + E W) - E[1/(a + W)] <= 0, by Jensen, as 1/x is convex), and
therefore maximal at ``a = 0``.  The model's logarithmic Jensen's gap is
xi(0) = log2(E[W]) - E[log2 W]; it is scale invariant, so the closed-form
bounds below do not depend on the mean power.  A distribution with an
atom at zero has an infinite gap and is rejected.

Rayleigh, Gamma and Weibull are one generalized-gamma family: W =
theta * G**(1/s) with G ~ Gamma(kappa, 1).  Gamma shape ``k`` is
(kappa, s) = (k, 1), Weibull shape ``k`` is (1, k), and Rayleigh is
their common k = 1 member, the exponential law.  Nakagami-m magnitude
fading makes the power gain Gamma distributed with shape k = m.  So one
sampler, one CDF and one log rule serve all three, and density evolution
reads one quantile pair, bisected on that CDF between closed-form tail
bounds.  Only that CDF, and only at a Gamma k that is not an integer up to
``_ERLANG_MAX`` = 16, loads ``scipy.special``: Rayleigh, every Weibull and
the Erlang laws (integer k, as integer Nakagami-m fading gives) are summed
here, and the log rule's ends are the same tail bounds.

Closed-form upper bounds on the gap:

* Gamma shape ``k``:    log2(e)/k - log2(1 + 1/(2k))
* Weibull shape ``k``:  euler_gamma*log2(e)/k + log2(Gamma(1 + 1/k)),
  from k = 4 on summed as the zeta series of lgamma(1 + 1/k), which
  does not cancel
* Rayleigh:             the smaller of the two k = 1 values (0.83)
* Deterministic:        0

A Nakagami-m gap therefore depends on m rather than being one constant.

A model states only the law of W: a fading link's phase is taken as uniform
and independent of its power (``ComplexGainSampler``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .mc import EstimateResult, McConfig, estimate_expectation

__all__ = [
    "FadingModel",
    "TabulatedPdf",
    "ComplexGainSampler",
    "JensenGapNumeric",
    "NoClosedFormError",
    "InfiniteJensenGapError",
    "expected_log_shifted",
    "jensen_gap_closed_form",
    "jensen_gap_numeric",
    "log_moment_lower_bound",
    "default_xi_grid",
]

LOG2E = math.log2(math.e)
EULER_GAMMA = float(np.euler_gamma)

_SHAPES = ("rayleigh", "gamma", "weibull", "deterministic", "tabulated")

_NORMALIZATION_TOL = 1e-6
_LOG_NORMAL = (-708.0, 709.0)  # e^x is a normal float for x inside these
_TINY = np.finfo(float).tiny  # the smallest normal float
_LEAST = math.ulp(0.0)  # the smallest positive float, 5e-324
# ``log_rule`` ends where closed-form bounds put at most this mass beyond G's
# ends; its node cap bounds its memory (it refuses Gamma k below about 1.6e-4
# and Weibull k below about 9e-5)
_RULE_TAIL = 1e-18
_RULE_MAX_NODES = 2**20
# Gamma shapes 1, 2, ..., _ERLANG_MAX (Erlang laws) have their CDF summed here,
# any other shape loads scipy.special: the Poisson sum takes n - 1 passes over
# its block, and near n = 20 it costs as much as scipy's gammainc
_ERLANG_MAX = 16
# B_2, B_4, ..., B_16, for the Euler-Maclaurin tail of ``_zeta``
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _zeta(s: float, x: float = 1.0) -> float:
    """Hurwitz zeta sum_{j >= 0} (x + j)^-s, s >= 2, x > 0: psi'(x) at s = 2 and
    Riemann's zeta(s) at x = 1.  Ten terms, then Euler-Maclaurin's tail at a =
    x + 10 through B_16; the first omitted term, B_18 (s)_17 a^(-s-17) / 18!, is
    below 1e-16 of the sum."""
    a = x + 10.0
    terms = [(x + j) ** -s for j in range(10)] + [a ** (1.0 - s) / (s - 1.0), 0.5 * a**-s]
    t = 0.5 * s * a ** (-s - 1.0)  # (s)_(2i-1) a^(-s-2i+1) / (2i)!, from i = 1
    for i, b in enumerate(_BERNOULLI, 1):
        terms.append(b * t)
        t *= (s + 2 * i - 1) * (s + 2 * i) / ((2 * i + 1) * (2 * i + 2) * a * a)
    return math.fsum(terms)


# gamma x + lgamma(1 + x) = sum_{n >= 2} (-1)^n zeta(n) x^n / n, for the
# Weibull bound at x = 1/k <= 1/4, where the closed form cancels; the
# first omitted term, zeta(42) x^42 / 42, is below 1e-27 there
_WEIBULL_SERIES_FROM = 4.0
_LGAMMA1P_COEF = [(-1) ** n * _zeta(n) / n for n in range(41, 1, -1)]


class NoClosedFormError(ValueError):
    """The shape has no closed-form Jensen-gap bound."""


class InfiniteJensenGapError(ValueError):
    """The model has (or may have) a divergent log moment, i.e. an infinite gap."""


@dataclass(frozen=True)
class TabulatedPdf:
    """Piecewise-linear density of W on a finite grid, stored divided by its
    trapezoid mass (1 within 1e-6), so that every method reads one law.

    ``envelope = (a, b)`` declares ``f(w) <= a * w**(b-1)`` on the first
    grid cell.  The envelope is required whenever the grid starts at zero:
    it is what guarantees a finite E[ln W] (the CDF then grows like a
    polynomial near 0, so no mass behaves like an atom at the origin).
    """

    ws: tuple[float, ...]
    fs: tuple[float, ...]
    envelope: tuple[float, float] | None = None

    def __post_init__(self):
        w = np.array([float(x) for x in self.ws])
        f = np.array([float(x) for x in self.fs])
        if len(w) != len(f) or len(w) < 2:
            raise ValueError("need matching (w, f(w)) grids with at least 2 points")
        if w[0] < 0 or np.any(np.diff(w) <= 0):
            raise ValueError("grid must be nonnegative and strictly increasing")
        if np.any(f < 0):
            raise ValueError("pdf values must be nonnegative")
        total = float(np.trapezoid(f, w))
        if abs(total - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"tabulated pdf must integrate to 1 within {_NORMALIZATION_TOL:g}, "
                f"got {total!r}"
            )
        if w[0] == 0.0:
            self._check_envelope(w, f)
        f = f / total
        object.__setattr__(self, "ws", tuple(w.tolist()))
        object.__setattr__(self, "fs", tuple(f.tolist()))
        # grid, pdf values, cell widths, slopes and the CDF at the grid points,
        # built once and read-only; they are not fields, so eq and hash read the tuples
        h = np.diff(w)
        cum = np.concatenate([[0.0], np.cumsum((f[:-1] + f[1:]) * h / 2.0)])
        for name, arr in zip(("_w", "_f", "_h", "_slope", "_cum"), (w, f, h, np.diff(f) / h, cum)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _check_envelope(self, w, f):
        if self.envelope is None:
            raise InfiniteJensenGapError(
                "infinite logarithmic Jensen's gap: a tabulated pdf whose grid "
                "starts at w=0 may hide a point mass at 0; declare an "
                "envelope (a, b) with f(w) <= a*w**(b-1) on the first cell"
            )
        a, b = self.envelope
        if a < 0 or b <= 0:
            raise ValueError("envelope requires a >= 0 and b > 0")
        (w0, w1), (f0, f1) = w[:2], f[:2]
        # Pointwise check of the linear interpolant on a refinement of the
        # first cell; w = 0 itself is checked only when the envelope is
        # finite there.
        ts = np.linspace(0.0, 1.0, 65)
        wchk = w0 + ts * (w1 - w0)
        fchk = f0 + ts * (f1 - f0)
        with np.errstate(divide="ignore"):
            env = a * np.power(wchk, b - 1.0)
        env[wchk == 0.0] = np.inf if b < 1.0 else (a if b == 1.0 else 0.0)
        if np.any(fchk > env * (1.0 + 1e-12) + 1e-300):
            raise InfiniteJensenGapError(
                "infinite logarithmic Jensen's gap: tabulated pdf exceeds its "
                "declared a*w**(b-1) envelope near w=0 (point-mass-like behavior)"
            )

    # -- exact piecewise integration ------------------------------------

    def expect(self, fn) -> float:
        """Integral of fn(w) f(w) dw by 16-point Gauss-Legendre per cell."""
        x, wt = np.polynomial.legendre.leggauss(16)
        lo, half = self._w[:-1], self._h / 2.0
        nodes = ((lo + self._w[1:]) / 2.0)[:, None] + half[:, None] * x[None, :]
        dens = self._f[:-1, None] + self._slope[:, None] * (nodes - lo[:, None])
        vals = fn(nodes) * dens
        return float(np.sum(half[:, None] * wt[None, :] * vals))

    @property
    def mean(self) -> float:
        return self.expect(lambda w: w)

    def cdf(self, w) -> np.ndarray:
        """P(W <= w), quadratic inside each cell."""
        w = np.asarray(w, dtype=float)
        cell = np.clip(np.searchsorted(self._w, w, side="right") - 1, 0, len(self._h) - 1)
        t = np.clip(w - self._w[cell], 0.0, self._h[cell])
        return self._cum[cell] + t * (self._f[cell] + self._slope[cell] * t / 2.0)

    def quantile(self, p) -> np.ndarray:
        """The w with ``cdf(w) = p``, for p in [0, 1]: the offset t into its cell
        solves f0 t + slope t^2/2 = r as t = 2r / (f0 + sqrt(f0^2 + 2 slope r)),
        which cancels nothing on a flat or nearly flat cell.  The denominator
        is 0 only where no mass is left (f0 = r = 0), and there t = 0."""
        u = np.asarray(p, dtype=float)
        cell = np.clip(np.searchsorted(self._cum, u, side="right") - 1, 0, len(self._h) - 1)
        r = u - self._cum[cell]
        f0 = self._f[cell]
        root = f0 + np.sqrt(np.maximum(f0 * f0 + 2.0 * self._slope[cell] * r, 0.0))
        t = np.divide(2.0 * r, root, out=np.zeros_like(r), where=root > 0.0)
        return self._w[cell] + np.clip(t, 0.0, self._h[cell])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Inverse-CDF draws from the piecewise-linear density."""
        return self.quantile(rng.random(size))


@dataclass(frozen=True)
class FadingModel:
    """Distribution of a link's power gain W = |g|^2 with mean ``mean_power``."""

    shape: str
    mean_power: float
    k: float | None = None
    table: TabulatedPdf | None = None

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}, expected one of {_SHAPES}")
        if not (self.mean_power > 0 and math.isfinite(self.mean_power)):
            raise ValueError(f"mean_power must be positive, got {self.mean_power}")
        if self.shape in ("gamma", "weibull"):
            if self.k is None or not (self.k > 0 and math.isfinite(self.k)):
                raise ValueError(f"{self.shape} shape requires k > 0 and finite, got {self.k}")
        elif self.shape == "rayleigh":  # stored as Gamma(k=1)
            if self.k not in (None, 1.0):
                raise ValueError(f"rayleigh shape has k = 1, got {self.k}")
            object.__setattr__(self, "k", 1.0)
        elif self.k is not None:
            raise ValueError(f"{self.shape} shape takes no k, got {self.k}")
        if self.shape == "tabulated":
            if self.table is None:
                raise ValueError("tabulated shape requires a TabulatedPdf")
            if not math.isclose(self.table.mean, self.mean_power, rel_tol=1e-9):
                raise ValueError("mean_power must equal the tabulated mean")

    # -- constructors ----------------------------------------------------

    @classmethod
    def rayleigh(cls, mean_power: float = 1.0) -> "FadingModel":
        return cls("rayleigh", mean_power)

    @classmethod
    def gamma(cls, k: float, mean_power: float = 1.0) -> "FadingModel":
        return cls("gamma", mean_power, k=k)

    @classmethod
    def weibull(cls, k: float, mean_power: float = 1.0) -> "FadingModel":
        return cls("weibull", mean_power, k=k)

    @classmethod
    def deterministic(cls, mean_power: float) -> "FadingModel":
        return cls("deterministic", mean_power)

    @classmethod
    def tabulated(
        cls,
        ws: Sequence[float],
        fs: Sequence[float],
        envelope: tuple[float, float] | None = None,
    ) -> "FadingModel":
        table = TabulatedPdf(tuple(ws), tuple(fs), envelope)
        return cls("tabulated", table.mean, table=table)

    # -- distribution parameters -----------------------------------------

    @property
    def exponential(self) -> bool:
        """W is exponential (Rayleigh fading): Gamma or Weibull with k = 1."""
        return self.shape in ("rayleigh", "gamma", "weibull") and self.k == 1.0

    # -- the law of W ----------------------------------------------------

    def _gen_gamma(self) -> tuple[float, float, float]:
        """(kappa, s, ln theta) with W = theta * G**(1/s), G ~ Gamma(kappa, 1):
        (k, 1, ln(mean/k)) for Gamma and Rayleigh, (1, k, ln lambda) for
        Weibull.  Every parametric formula below reads only this triple."""
        if self.shape == "weibull":
            return 1.0, self.k, math.log(self.mean_power) - math.lgamma(1.0 + 1.0 / self.k)
        theta = self.mean_power / self.k  # not a normal float at extreme means: in logs
        return self.k, 1.0, (math.log(theta) if _TINY <= theta < math.inf
                             else math.log(self.mean_power) - math.log(self.k))

    def cdf(self, w) -> np.ndarray:
        """P(W <= w), exact and vectorised, for every shape."""
        w = np.asarray(w, dtype=float)
        if self.shape == "deterministic":
            return (w >= self.mean_power).astype(float)
        if self.shape == "tabulated":
            return self.table.cdf(w)
        with np.errstate(divide="ignore"):
            return self.cdf_of_log(np.log(w))

    def cdf_of_log(self, t) -> np.ndarray:
        """P(ln W <= t), exact and vectorised, for every shape.

        A parametric law is evaluated from ln W, so it stays exact where W
        itself under- or overflows a float (a Weibull k near 0, a mean
        power near 1e308): it is P(G <= e^(s (t - ln theta))), the
        regularised incomplete gamma function of kappa.  At an integer
        kappa up to ``_ERLANG_MAX`` (Rayleigh, integer Nakagami-m, every
        Weibull) that is ``_erlang_cdf``; any other kappa loads
        ``scipy.special`` for it.  This is the only place that chooses
        between the two, and ``log_power_range`` inverts it.
        """
        t = np.asarray(t, dtype=float)
        if self.shape == "deterministic":
            return (t >= math.log(self.mean_power)).astype(float)
        with np.errstate(over="ignore"):
            if self.shape == "tabulated":
                return self.table.cdf(np.exp(t))
            kappa, s, log_theta = self._gen_gamma()
            x = np.exp(s * (t - log_theta))
        if kappa <= _ERLANG_MAX and float(kappa).is_integer():
            return _erlang_cdf(int(kappa), x)
        from scipy.special import gammainc  # on first use: ``import ffic`` loads no scipy

        return gammainc(kappa, x)

    def log_power_range(self, tail: float) -> tuple[float, float]:
        """(lo, hi) with P(ln W < lo) = P(ln W > hi) = ``tail``, from the
        law's quantiles (a tabulated law's support may end sooner).  A
        parametric law's are ln G's, bisected on ``cdf_of_log``
        (``_gamma_log_quantiles``): the mass below lo is ``tail`` within
        2e-13 relative (kappa from 0.05 to 1000), and so is the mass above
        hi at tails of 1e-3 and more.  At a tail of 1e-12 the CDF's 1e-16
        absolute error near 1 leaves the mass above hi within 2e-4 of
        ``tail``, relative: hi moves by about 4e-6 nats.  Where G's quantile
        is subnormal (Gamma k from 0.0372 to 0.0395 at 1e-12), e^t keeps
        only a few bits, and the mass below lo is within 2% of ``tail``.

        Raises ``ValueError`` unless 0 < tail < 1/2, where the bisection's
        bracket holds both quantiles, and one naming the law when W's
        ``tail`` quantile underflows to 0, as a Gamma law with k near 0 does.
        """
        if not 0.0 < tail < 0.5:
            raise ValueError(f"tail must lie in (0, 1/2), got {tail!r}")
        if self.shape == "deterministic":
            return math.log(self.mean_power), math.log(self.mean_power)
        if self.shape == "tabulated":
            with np.errstate(divide="ignore"):
                log_x = np.log(self.table.quantile([tail, 1.0 - tail]))
            s, log_theta = 1.0, 0.0
        else:  # quantiles of ln G, then ln W = ln theta + ln(G) / s
            kappa, s, log_theta = self._gen_gamma()
            log_x = np.array(_gamma_log_quantiles(kappa, tail))
        if log_x[0] == -math.inf:
            law = self.shape + ("" if self.k is None else f" k={self.k:g}")
            raise ValueError(f"{law} law of mean power {self.mean_power:g}: its {tail:g} "
                             "quantile underflows to 0, so ln W has no finite grid")
        lo, hi = log_theta + log_x / s
        return float(lo), float(hi)

    def log_laplace(self, t) -> np.ndarray:
        """ln E e^(-tW), elementwise for t >= 0: -k log1p(t theta) on the Gamma
        family (theta = mean / k), and -t mean on a deterministic link, which is
        also the Gamma value where t theta is subnormal.  Past the float limit
        log1p(t theta) is ln t + ln theta, so the value is -inf (with no
        warning) only where it passes the limit itself.  Raises ``ValueError``
        on a law with no closed form: Weibull k != 1, tabulated."""
        if self.shape == "tabulated" or (self.shape == "weibull" and self.k != 1.0):
            law = self.shape + ("" if self.k is None else f" k={self.k:g}")
            raise ValueError(f"a {law} law has no closed-form Laplace transform")
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore", divide="ignore"):
            if self.shape == "deterministic":
                return -(t * self.mean_power)
            # theta passes the float limit only at k < 1: (t mean) / k overflows there
            # just where t theta does
            theta = self.mean_power / self.k
            x = t * theta if math.isfinite(theta) else t * self.mean_power / self.k
            out = np.log1p(x)
            out *= -self.k
            if x.size and (x.min() < _TINY or x.max() == math.inf):
                out = np.where(np.isinf(x), -self.k * (np.log(t) + self._gen_gamma()[2]), out)
                out = np.where(x < _TINY, -(t * self.mean_power), out)
            return out

    def log_rule(self) -> tuple[np.ndarray, np.ndarray]:
        """(ln W nodes, weights summing to 1) of a Rayleigh, Gamma or Weibull law:
        a trapezoid in u = ln(G / kappa) between ends past which closed-form
        bounds leave at most 1e-18 of G's mass on either side (Chernoff, and
        x^kappa / Gamma(kappa + 1) below), weights e^(kappa (u - expm1(u))),
        step 0.25 min(1, sqrt(psi'(kappa)), 2s): the spread of ln G, and the
        strip |Im u| < s pi where log(a + W) is analytic.  It converges
        geometrically (Trefethen & Weideman 2014).  Built once per (kappa, s),
        as theta only shifts the nodes; the weights are read-only."""
        if self.shape in ("deterministic", "tabulated"):
            raise ValueError(f"a {self.shape} law has no log rule")
        kappa, s, log_theta = self._gen_gamma()
        u, weight = _gamma_log_rule(kappa, s)
        return log_theta + (math.log(kappa) + u) / s, weight

    def sample_power(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws of W; a parametric law's from its triple.

        G is a sum of kappa standard exponentials (numpy's ziggurat) for
        kappa in {1, 2}, else ``rng.standard_gamma(kappa)``.  W = (mean /
        kappa) G when s = 1, else theta * G**(1/s): Weibull reads the bits
        ``rng.weibull`` reads, its E**(1/k) within 1 ulp of numpy's.  Where
        theta is not a normal float (Weibull k below about 1/170), W is
        (theta**s G)**(1/s).
        """
        if self.shape == "deterministic":
            return np.full(size, self.mean_power)
        if self.shape == "tabulated":
            return self.table.sample(rng, size)
        kappa, s, log_theta = self._gen_gamma()
        if kappa in (1.0, 2.0):
            w = rng.standard_exponential(size)
            if kappa == 2.0:
                w += rng.standard_exponential(size)
        else:
            w = rng.standard_gamma(kappa, size)
        if s == 1.0:
            w *= self.mean_power / kappa
        elif _LOG_NORMAL[0] < log_theta < _LOG_NORMAL[1]:
            # ``**=`` keeps numpy's scalar-power fast paths (sqrt for k = 2)
            w **= 1.0 / s
            w *= math.exp(log_theta)
        else:
            with np.errstate(over="ignore"):
                w *= np.exp(s * log_theta)
            w **= 1.0 / s
        return w

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draws of W, so that a model is itself a Monte Carlo power sampler."""
        return self.sample_power(rng, size)


def _erlang_series_terms(n: int, x: float) -> int:
    """The m past which a term of S = sum_i x^i n! / (n + i)! no longer moves
    it: P(n, x) = e^-x x^n S / n!."""
    t = acc = 1.0
    m = 0
    while t > acc * 2.0**-53:
        m += 1
        t *= x / (n + m)
        acc += t
    return m


def _erlang_cdf(n: int, x: np.ndarray) -> np.ndarray:
    """P(n, x) = 1 - e^-x sum_{j<n} x^j / j!, the regularised incomplete gamma
    function at an integer n <= ``_ERLANG_MAX``, elementwise for x in [0, inf]:
    -expm1(-x) less the Poisson terms j = 1 .. n - 1 (none at n = 1), each
    at most 1.  Where that difference has cancelled (it is below min(x, 1) /
    16, so its relative error could pass 1e-14), the series e^-x x^n / n!
    sum_i x^i n! / (n + i)! instead, whose terms have no sign to cancel."""
    p = -np.expm1(-x)
    if n == 1:
        return p
    x_sum = np.minimum(x, 750.0)  # e^-x is 0 past this, and so is every term: no inf * 0
    term = np.exp(-x_sum)
    for j in range(1, n):
        term *= x_sum
        term /= j
        p -= term
    small = p < np.minimum(x, 1.0) / 16.0
    if small.any():
        p, xs = np.asarray(p), np.asarray(x)[small]  # a scalar x gives a 0-d p
        # as many terms as the largest x needs: the terms fall by x / (n + i)
        count = _erlang_series_terms(n, float(xs.max()))
        t = xs**n * np.exp(-xs) / math.factorial(n)  # x < n + 1 here: x^n is finite
        acc = t.copy()
        for i in range(1, count + 1):
            t *= xs
            t /= n + i
            acc += t
        p[small] = acc
        return p[()]
    return p


def _expm1_minus(u: float) -> float:
    """expm1(u) - u, summed as its series u^2/2 + u^3/6 + ... where |u| <= 1,
    where the difference cancels."""
    if abs(u) > 1.0:
        return math.expm1(u) - u
    term, acc, n = 0.5 * u * u, 0.0, 2
    while acc + term != acc:
        acc += term
        n += 1
        term *= u / n
    return acc


def _chernoff_end(c: float, side: float) -> float:
    """The root u of expm1(u) - u = c on ``side`` (1 above 0, -1 below): there
    Chernoff bounds the mass of G ~ Gamma(kappa) beyond kappa e^u, on that side,
    by e^(-kappa c).  expm1(u) - u is convex, so Newton from outside the root
    moves monotonically in; it stops where a step no longer does."""
    if side > 0:  # u^2/2 and e^u/2 (from u = 1.7) lie below expm1(u) - u
        u = math.log(2.0 * c) if c > 3.0 else math.sqrt(2.0 * c)
    else:  # -1 - u and, for c <= 1/2, u^2/2 (1 + u/3) lie below it
        r = math.sqrt(2.0 * c)
        u = -1.0 - c if c > 0.5 else -r * (1.0 + 0.5 * r)
    while True:
        nxt = u - (_expm1_minus(u) - c) / math.expm1(u)
        if not side * (u - nxt) > 0.0:
            return u
        u = nxt


def _gamma_rule_ends(kappa: float, tail: float = _RULE_TAIL) -> tuple[float, float]:
    """Ends (lo, hi) in u = ln(G / kappa) beyond which closed-form bounds leave
    at most ``tail`` of G's mass on either side: ``log_rule``'s trapezoid at
    the default, and for tail < 1/2 a bracket of both of G's ``tail``
    quantiles."""
    log_tail = math.log(tail)
    c = -log_tail / kappa
    lo = _chernoff_end(c, -1.0)
    if lo < -1.0:
        # P(G < x) <= x^kappa / Gamma(kappa + 1), tight as x -> 0, solved in logs
        # with 1e-12 to spare, more than the end's rounding.  By Stirling its end
        # lies below every Chernoff end above -1, so it is read only below -1,
        # which also keeps lgamma from kappa past 1e305, where it overflows.
        lo = max(lo, (log_tail - 1e-12 + math.lgamma(kappa + 1.0)) / kappa - math.log(kappa))
    return lo, _chernoff_end(c, 1.0)


@functools.lru_cache(maxsize=8)
def _gamma_log_quantiles(kappa: float, tail: float) -> tuple[float, float]:
    """ln G's ``tail`` and 1 - ``tail`` quantiles, G ~ Gamma(kappa, 1): 64
    halvings of the bracket ``_gamma_rule_ends(kappa, tail)``, in ln G, on the
    law's own ``cdf_of_log``.  The lower one is -inf where it lies below the
    smallest positive float, that is where P(kappa, 5e-324) > tail."""
    law = FadingModel.gamma(kappa, kappa)  # mean kappa: theta = 1, so W = G
    if law.cdf(_LEAST) > tail:
        return -math.inf, math.inf
    lo, hi = (np.full(2, math.log(kappa) + end) for end in _gamma_rule_ends(kappa, tail))
    p = np.array([tail, 1.0 - tail])
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = law.cdf_of_log(mid) < p
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    q_lo, q_hi = 0.5 * (lo + hi)
    return float(q_lo), float(q_hi)


@functools.lru_cache(maxsize=8)
def _gamma_log_rule(kappa: float, s: float) -> tuple[np.ndarray, np.ndarray]:
    """``FadingModel.log_rule``'s nodes u = ln(G / kappa) and weights."""
    lo, hi = _gamma_rule_ends(kappa)
    # ln G's spread sqrt(psi'(kappa)) is above 1 for kappa <= 1: psi'(1) = pi^2/6
    spread = math.sqrt(_zeta(2.0, kappa)) if kappa > 1.0 else 1.0
    nodes = (hi - lo) / (0.25 * min(1.0, spread, 2.0 * s)) + 1.0
    if not nodes <= _RULE_MAX_NODES:
        raise ValueError(f"the law G**(1/{s:g}), G ~ Gamma({kappa:g}), needs a log rule "
                         f"of {nodes:.3g} nodes, more than {_RULE_MAX_NODES}")
    u = np.linspace(lo, hi, math.ceil(nodes))
    weight = np.exp(kappa * (u - np.expm1(u)))
    # past kappa ~ 1e15, ln(kappa) + u rounds neighbours to one ln W: merge them
    first = np.flatnonzero(np.diff(math.log(kappa) + u, prepend=-np.inf))
    u, weight = u[first], np.add.reduceat(weight, first)
    weight /= weight.sum()
    u.flags.writeable = weight.flags.writeable = False
    return u, weight


@dataclass(frozen=True)
class ComplexGainSampler:
    """Complex gain g with |g|^2 ~ model, for the few callers that read a phase.

    A link is its ``FadingModel``, the law of W that every expectation over
    powers draws from.  This wrapper adds a phase, taken as uniform on [0,
    2pi) and independent of W for a fading link; a deterministic link has
    the real gain sqrt(mean power), which the static plug-in formulas assume.

    Draw order, per call of ``size``, by the law of W:

    * exponential (``model.exponential``: Rayleigh, or Gamma or Weibull
      with k = 1): only the next ``2 * size`` standard normals, read as
      ``size`` complex pairs z, and g = sqrt(mean / 2) * z.  That is the
      circularly symmetric CN(0, mean) law itself, whose power is
      exponential, so no power is drawn;
    * any other fading law: first the ``size`` powers W from the model
      (the same draws ``model.sample_power`` makes on that generator), then
      ``2 * size`` standard normals z as above, and g = z * sqrt(W / |z|^2).
      The angle of an isotropic Gaussian pair is uniform and independent
      of its radius, so the law is exact with no trig, all in float64, and
      |g|^2 equals W up to the few roundings of the normalisation;
    * deterministic: the ``size`` powers, which are the mean, and no normal.
    """

    model: FadingModel

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        if self.model.exponential:
            z = rng.standard_normal(2 * size)
            z *= math.sqrt(self.model.mean_power / 2.0)
            return z.view(np.complex128)
        w = self.model.sample_power(rng, size)
        if self.model.shape == "deterministic":
            return np.sqrt(w).astype(np.complex128)
        g = rng.standard_normal(2 * size).view(np.complex128)
        w /= g.real**2 + g.imag**2
        np.sqrt(w, out=w)
        g *= w
        return g


# ---------------------------------------------------------------------------
# E[log2(a + W)]
# ---------------------------------------------------------------------------


def log2_sum(*parts: float) -> float:
    """log2 of the sum of finite parts >= 0, not all 0, in logs: log2 of the
    largest part plus log2 of the sum, in the order given, of the parts over
    it.  No part over the largest passes 1, so nothing overflows up to the
    float limit, and no part is subtracted, so nothing cancels.
    """
    top = max(parts)
    return math.log2(top) + math.log2(sum(p / top for p in parts))


def expected_log_shifted(
    model: FadingModel, a: float, cfg: McConfig | None = None
) -> EstimateResult:
    """Estimate of ``E[log2(a + W)]`` in bits.

    Rayleigh, Gamma and Weibull laws sum log2(a + W), a log-sum-exp of
    log2 a and log2 W, over the law's ``log_rule``, so W itself is never
    formed and may under- or overflow (a Weibull k near 0).  The result
    carries ``stderr=0``, and is measured within max(1.5e-14 bits, 2e-16
    |value|) of 30-digit mpmath for Gamma k from 1e-3 to 1e12 and Weibull
    k from 1e-3 to 3.  Tabulated models use Monte Carlo with ``cfg``, one
    integrand on the law's power draws (substream key ``()``).
    """
    if a < 0:
        raise ValueError(f"shift a must be nonnegative, got {a}")

    if model.shape == "deterministic":
        return EstimateResult(log2_sum(a, model.mean_power), 0.0)

    if model.shape == "tabulated":
        return estimate_expectation(lambda w: np.log2(a + w), [model], cfg)

    lnw, weight = model.log_rule()
    vals = np.logaddexp2(math.log2(a) if a > 0.0 else -math.inf, lnw * LOG2E)
    vals *= weight  # then numpy's pairwise sum: a BLAS dot's order follows its thread count
    return EstimateResult(float(vals.sum()), 0.0)


# ---------------------------------------------------------------------------
# Logarithmic Jensen's gap
# ---------------------------------------------------------------------------


def _gamma_gap_bound(k: float) -> float:
    # log2(e)/k - log2(1 + 1/(2k)), written so that large k cancels nothing
    return LOG2E * (1.0 / k - math.log1p(1.0 / (2.0 * k)))


def _log2_gamma(x: float) -> float:
    """log2 Gamma(x): by lgamma past x = 171, where Gamma(x) overflows."""
    return math.log2(math.gamma(x)) if x < 171.0 else math.lgamma(x) * LOG2E


def _weibull_gap_bound(k: float) -> float:
    if k < _WEIBULL_SERIES_FROM:
        return EULER_GAMMA * LOG2E / k + _log2_gamma(1.0 + 1.0 / k)
    x, acc = 1.0 / k, 0.0
    for coef in _LGAMMA1P_COEF:  # Horner, from the x^41 term down
        acc = acc * x + coef
    return LOG2E * acc * x * x


def jensen_gap_closed_form(model: FadingModel) -> float:
    """Closed-form upper bound on the gap, independent of mean power.

    Rayleigh admits both the Gamma(k=1) and Weibull(k=1) bounds; the
    tighter Weibull value (0.83) is returned.
    """
    if model.shape == "deterministic":
        return 0.0
    if model.shape == "rayleigh":
        return min(_gamma_gap_bound(1.0), _weibull_gap_bound(1.0))
    if model.shape == "gamma":
        return _gamma_gap_bound(model.k)
    if model.shape == "weibull":
        return _weibull_gap_bound(model.k)
    raise NoClosedFormError(f"no closed form for shape {model.shape!r}")


def default_xi_grid(mean_power: float) -> np.ndarray:
    """a = 0 plus 41 log-spaced points spanning 1e-3..1e3 times the mean, the
    top capped at 1e308, where numpy's geomspace would overflow, and the
    bottom floored at 5e-324, where it would underflow to 0."""
    grid = np.geomspace(max(1e-3 * mean_power, _LEAST), min(1e3 * mean_power, 1e308), 41)
    return np.concatenate([[0.0], grid])


@dataclass(frozen=True)
class JensenGapNumeric:
    """Numeric gap at a=0 together with the xi(a) curve used to verify it."""

    gap_at_zero: float
    gap_stderr: float
    xi_curve: tuple[tuple[float, float], ...]
    xi_stderr: tuple[float, ...]


def jensen_gap_numeric(
    model: FadingModel,
    a_grid: Sequence[float] | None = None,
    cfg: McConfig | None = None,
) -> JensenGapNumeric:
    """Compute xi(a) on a grid and the gap xi(0) = log2(E W) - E[log2 W].

    The curve is how callers certify that the supremum sits at a = 0
    (xi is non-increasing).  Models whose log moment could diverge, i.e.
    anything point-mass-like at 0, are rejected with
    ``InfiniteJensenGapError`` at construction time.

    A tabulated model's curve draws its powers once per chunk, on the
    substream key of ``expected_log_shifted``, and evaluates every shift on
    them, one integrand per shift of a single ``estimate_expectation``, so
    each point equals ``expected_log_shifted`` at that shift, bit for bit.
    Its points' errors are therefore positively correlated (log2(a + W)
    increases with W at every a), so a neighbouring difference has a
    smaller error than either stderr, and a monotonicity slack of
    k(stderr_u + stderr_v) is conservative.
    """
    grid = default_xi_grid(model.mean_power) if a_grid is None else np.asarray(
        a_grid, dtype=float
    )
    if np.any(grid < 0):
        raise ValueError("a grid must be nonnegative")
    if 0.0 not in grid:
        grid = np.concatenate([[0.0], grid])

    if model.shape == "tabulated":
        ests = estimate_expectation([lambda w, a=a: np.log2(a + w) for a in grid], [model], cfg)
    else:
        ests = [expected_log_shifted(model, float(a), cfg=cfg) for a in grid]
    xi: list[tuple[float, float]] = []
    errs: list[float] = []
    gap0 = None
    for a, est in zip(grid, ests):
        val = log2_sum(a, model.mean_power) - est.mean
        xi.append((float(a), val))
        errs.append(est.stderr)
        if a == 0.0:
            gap0 = (val, est.stderr)
    return JensenGapNumeric(
        gap_at_zero=gap0[0],
        gap_stderr=gap0[1],
        xi_curve=tuple(xi),
        xi_stderr=tuple(errs),
    )


def log_moment_lower_bound(a: float, b: float, eps: float) -> float:
    """Lower bound on E[ln W] (nats) for any W with CDF <= a*w**b on [0, eps].

    Equals ``ln(eps) + a*eps**b*ln(eps) - a*eps**b/b``; a polynomially
    growing CDF near 0 keeps f(w) ln(w) integrable, so the log moment is
    finite and the Jensen gap of such a model is finite too.
    """
    if a < 0:
        raise ValueError(f"need a >= 0, got {a}")
    if b <= 0:
        raise ValueError(f"need b > 0, got {b}")
    if not 0 < eps <= 1:
        raise ValueError(f"need 0 < eps <= 1, got {eps}")
    ab = a * eps**b
    return math.log(eps) + ab * math.log(eps) - ab / b
