"""Fading power-gain models and their logarithmic Jensen's gap.

A fading model stores the law of the squared channel magnitude
``W = |g|^2`` together with its mean power ``E[W]`` (the SNR or INR of a
link in linear scale).  The quantity certified throughout this package is

    xi(a) = log2(a + E[W]) - E[log2(a + W)],    a >= 0,

which is nonnegative (Jensen), non-increasing in ``a``, and therefore
maximal at ``a = 0``.  The model's logarithmic Jensen's gap is xi(0) =
log2(E[W]) - E[log2 W]; it is scale invariant, so the closed-form bounds
below do not depend on the mean power.  A distribution with an atom at
zero has an infinite gap and is rejected.

Closed-form upper bounds on the gap:

* Gamma shape ``k``:    log2(e)/k - log2(1 + 1/(2k))
* Weibull shape ``k``:  euler_gamma*log2(e)/k + log2(Gamma(1 + 1/k))
* Rayleigh:             the smaller of the two k = 1 values (0.83)
* Deterministic:        0

Nakagami-m magnitude fading makes the power gain Gamma distributed with
shape k = m, so it is covered by the Gamma family; its gap depends on m
rather than being a single constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import quad
from scipy.special import gammainc, gammainccinv, gammaincinv, gammaln

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
_QUAD_TOL = 1e-6  # stated accuracy of the quadrature backend
_GAMMA_MAX = 171.62  # math.gamma(x) overflows past x = 171.624


class NoClosedFormError(ValueError):
    """The shape has no closed-form Jensen-gap bound."""


class InfiniteJensenGapError(ValueError):
    """The model has (or may have) a divergent log moment, i.e. an infinite gap."""


@dataclass(frozen=True)
class TabulatedPdf:
    """Piecewise-linear density of W on a finite grid.

    ``envelope = (a, b)`` declares ``f(w) <= a * w**(b-1)`` on the first
    grid cell.  The envelope is required whenever the grid starts at zero:
    it is what guarantees a finite E[ln W] (the CDF then grows like a
    polynomial near 0, so no mass behaves like an atom at the origin).
    """

    ws: tuple[float, ...]
    fs: tuple[float, ...]
    envelope: tuple[float, float] | None = None

    def __post_init__(self):
        ws = tuple(float(w) for w in self.ws)
        fs = tuple(float(f) for f in self.fs)
        object.__setattr__(self, "ws", ws)
        object.__setattr__(self, "fs", fs)
        if len(ws) != len(fs) or len(ws) < 2:
            raise ValueError("need matching (w, f(w)) grids with at least 2 points")
        w = np.asarray(ws)
        f = np.asarray(fs)
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
            self._check_envelope()

    def _check_envelope(self):
        if self.envelope is None:
            raise InfiniteJensenGapError(
                "infinite logarithmic Jensen's gap: a tabulated pdf whose grid "
                "starts at w=0 may hide a point mass at 0; declare an "
                "envelope (a, b) with f(w) <= a*w**(b-1) on the first cell"
            )
        a, b = self.envelope
        if a < 0 or b <= 0:
            raise ValueError("envelope requires a >= 0 and b > 0")
        w0, w1 = self.ws[0], self.ws[1]
        f0, f1 = self.fs[0], self.fs[1]
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
        w = np.asarray(self.ws)
        f = np.asarray(self.fs)
        lo, hi = w[:-1], w[1:]
        mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
        nodes = mid[:, None] + half[:, None] * x[None, :]
        slope = (f[1:] - f[:-1]) / (hi - lo)
        dens = f[:-1, None] + slope[:, None] * (nodes - lo[:, None])
        vals = fn(nodes) * dens
        return float(np.sum(half[:, None] * wt[None, :] * vals))

    @property
    def mean(self) -> float:
        return self.expect(lambda w: w)

    def _cells(self):
        """(grid, pdf values, cell widths, CDF mass at each grid point)."""
        w = np.asarray(self.ws)
        f = np.asarray(self.fs)
        h = np.diff(w)
        mass = (f[:-1] + f[1:]) * h / 2.0
        return w, f, h, np.concatenate([[0.0], np.cumsum(mass)])

    def cdf(self, w) -> np.ndarray:
        """P(W <= w) of the density normalised to its exact trapezoid mass,
        which is the law ``sample`` draws: quadratic inside each cell."""
        grid, f, h, cum = self._cells()
        w = np.asarray(w, dtype=float)
        cell = np.clip(np.searchsorted(grid, w, side="right") - 1, 0, len(h) - 1)
        t = np.clip(w - grid[cell], 0.0, h[cell])
        slope = (f[1:] - f[:-1])[cell] / h[cell]
        return (cum[cell] + t * (f[:-1][cell] + slope * t / 2.0)) / cum[-1]

    def quantile(self, p) -> np.ndarray:
        """The w with ``cdf(w) = p``, for p in [0, 1]."""
        w, f, h, cum = self._cells()
        u = np.asarray(p, dtype=float) * cum[-1]
        cell = np.clip(np.searchsorted(cum, u, side="right") - 1, 0, len(h) - 1)
        r = u - cum[cell]  # residual mass inside the cell
        f0 = f[:-1][cell]
        slope = (f[1:] - f[:-1])[cell] / h[cell]
        # Solve f0*t + slope*t^2/2 = r for the offset t in [0, h].
        lin = np.abs(slope) < 1e-300
        t = np.empty_like(r)
        t[lin] = r[lin] / np.maximum(f0[lin], 1e-300)
        disc = np.maximum(f0[~lin] ** 2 + 2.0 * slope[~lin] * r[~lin], 0.0)
        t[~lin] = (np.sqrt(disc) - f0[~lin]) / slope[~lin]
        return w[:-1][cell] + np.clip(t, 0.0, h[cell])

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
            if self.k is None or not self.k > 0:
                raise ValueError(f"{self.shape} shape requires k > 0")
        else:  # Rayleigh is stored as Gamma(k=1); other shapes take no k
            object.__setattr__(self, "k", 1.0 if self.shape == "rayleigh" else None)
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

    @property
    def gamma_scale(self) -> float:
        return self.mean_power / self.k

    @property
    def weibull_scale(self) -> float:
        """mean / Gamma(1 + 1/k); past k = 1/170.62, where Gamma overflows,
        by lgamma, and then the scale may underflow to 0."""
        x = 1.0 + 1.0 / self.k
        if x < _GAMMA_MAX:
            return self.mean_power / math.gamma(x)
        return 2.0 ** (math.log2(self.mean_power) - _log2_gamma(x))

    # -- the law of W ----------------------------------------------------

    def _log_scale(self) -> float:
        """ln of the scale that standardises W: Gamma's theta, Weibull's lambda."""
        if self.shape == "weibull":
            return math.log(self.mean_power) - math.lgamma(1.0 + 1.0 / self.k)
        return math.log(self.gamma_scale)

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
        power near 1e308): Gamma as the regularised incomplete gamma
        function of e^t / scale (1 - exp(-e^t / scale) at k = 1), Weibull
        as 1 - exp(-e^(k (t - ln scale))).
        """
        t = np.asarray(t, dtype=float)
        if self.shape == "deterministic":
            return (t >= math.log(self.mean_power)).astype(float)
        with np.errstate(over="ignore"):
            if self.shape == "tabulated":
                return self.table.cdf(np.exp(t))
            if self.shape == "weibull":
                return -np.expm1(-np.exp(self.k * (t - self._log_scale())))
            x = np.exp(t - self._log_scale())
        return -np.expm1(-x) if self.k == 1.0 else gammainc(self.k, x)

    def log_power_range(self, tail: float) -> tuple[float, float]:
        """(lo, hi) with P(ln W < lo) = P(ln W > hi) = ``tail``, from the
        law's quantiles (a tabulated law's support may end sooner).

        Raises ``ValueError`` naming the law when W's ``tail`` quantile
        underflows to 0, as a Gamma law with k near 0 does.
        """
        if self.shape == "deterministic":
            return math.log(self.mean_power), math.log(self.mean_power)
        if self.shape == "weibull":
            e = np.array([-math.log1p(-tail), -math.log(tail)])  # quantiles of E
            lo, hi = self._log_scale() + np.log(e) / self.k
            return float(lo), float(hi)
        if self.shape == "tabulated":
            x, log_scale = self.table.quantile([tail, 1.0 - tail]), 0.0
        else:
            x = np.array([gammaincinv(self.k, tail), gammainccinv(self.k, tail)])
            log_scale = self._log_scale()
        if not x[0] > 0.0:
            law = self.shape + ("" if self.k is None else f" k={self.k:g}")
            raise ValueError(f"{law} law of mean power {self.mean_power:g}: its {tail:g} "
                             "quantile underflows to 0, so ln W has no finite grid")
        lo, hi = log_scale + np.log(x)
        return float(lo), float(hi)

    def sample_power(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` i.i.d. draws of W.

        Every parametric law is drawn exactly from numpy's standard
        exponential E (a ziggurat): Gamma with k in {1, 2} (Rayleigh is
        k = 1) as ``gamma_scale`` times a sum of k independent E (Erlang),
        and Weibull as ``weibull_scale * E**(1/k)``, which consumes the
        same bits as ``rng.weibull`` and agrees with it to 1 ulp (below
        k = 1/170.62, as ``(weibull_scale**k * E)**(1/k)``).  Any
        other Gamma shape uses ``rng.gamma`` (Marsaglia-Tsang).
        """
        if self.shape in ("rayleigh", "gamma"):
            if self.k not in (1.0, 2.0):
                return rng.gamma(self.k, self.gamma_scale, size)
            w = rng.standard_exponential(size)
            if self.k == 2.0:
                w += rng.standard_exponential(size)
            w *= self.gamma_scale
        elif self.shape == "weibull":
            x = 1.0 + 1.0 / self.k
            w = rng.standard_exponential(size)
            if x < _GAMMA_MAX:
                # ``**=`` keeps numpy's scalar-power fast paths (sqrt for k = 2)
                w **= 1.0 / self.k
                w *= self.weibull_scale
            else:
                w *= 2.0 ** (self.k * (math.log2(self.mean_power) - _log2_gamma(x)))  # scale^k
                w **= 1.0 / self.k
        elif self.shape == "deterministic":
            w = np.full(size, self.mean_power)
        else:
            w = self.table.sample(rng, size)
        return w

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draws of W, so that a model is itself a Monte Carlo power sampler."""
        return self.sample_power(rng, size)


@dataclass(frozen=True)
class ComplexGainSampler:
    """Complex gain g with |g|^2 ~ model, for the few callers that read a phase.

    A link is its ``FadingModel``: every expectation over powers draws W
    from the model itself.  This wrapper adds a phase, uniform on [0, 2pi)
    for a fading link; a deterministic link has the real gain
    sqrt(mean power), which is what the static plug-in formulas assume.

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


def _quad(f, lo: float, hi: float, epsrel: float = 1e-10) -> float:
    return quad(f, lo, hi, epsabs=1e-10, epsrel=epsrel, limit=300)[0]


def _quad_split(f, split: float) -> float:
    # Adaptive scheme on [0, inf) split at the (standardized) mean; the
    # split keeps the integrable ln singularity at 0 in its own panel.
    return _quad(f, 0.0, split) + _quad(f, split, np.inf)


def _elog2_gamma(a: float, k: float, scale: float) -> float:
    # Standardized variable x = w/scale keeps the tail well-conditioned for
    # any mean power (direct integration loses the tail beyond ~1e5).
    lognorm = gammaln(k)

    def f(x):
        return math.log2(a + scale * x) * math.exp((k - 1.0) * math.log(x) - x - lognorm)

    if k >= 1.0:
        return _quad_split(f, k)
    # For k < 1 the weight has a pole x^(k-1) at 0 that defeats the first
    # panel (1.9e-5 bits off at k = 1e-3).  Over u = x^k it becomes the
    # bounded e^{-u^(1/k)} / Gamma(k+1); t = ln(u)/k = ln(x) keeps a = 0 in
    # log space, where x = e^t underflows.  That panel is about 1/k bits in
    # size, so only the absolute tolerance may bound its error.
    lognorm1 = gammaln(k + 1.0)
    log_scale = math.log(scale)

    def g(u):
        t = math.log(u) / k
        lg = (log_scale + t) * LOG2E if a == 0.0 else math.log2(a + scale * math.exp(t))
        return lg * math.exp(-math.exp(t) - lognorm1)

    return _quad(g, 0.0, k**k, epsrel=0.0) + _quad(f, k, np.inf)


def _elog2_weibull(a: float, k: float, mean: float) -> float:
    # W = scale * y^(1/k) with y ~ Exp(1), in log2: at small k the scale
    # underflows and y^(1/k) overflows, but log2 W does neither.
    log2_a = math.log2(a) if a > 0.0 else -math.inf
    log2_scale = math.log2(mean) - _log2_gamma(1.0 + 1.0 / k)

    def f(y):
        log2_w = log2_scale + math.log2(y) / k
        lse = max(log2_a, log2_w) + math.log1p(2.0 ** -abs(log2_a - log2_w)) * LOG2E
        return lse * math.exp(-y)

    return _quad_split(f, 1.0)


def _tabulated_log_curve(
    model: FadingModel, shifts: Sequence[float], cfg: McConfig | None
) -> list[EstimateResult]:
    """Monte Carlo ``E[log2(a + W)]`` at every shift a, all on one set of draws.

    Each chunk draws its powers once (substream key ``()``) and evaluates
    every shift on them, so a shift's estimate is bit-identical to the
    estimate of that shift alone.
    """
    integrands = [lambda w, a=a: np.log2(a + w) for a in shifts]
    return estimate_expectation(integrands, [model], cfg or McConfig())


def expected_log_shifted(
    model: FadingModel, a: float, cfg: McConfig | None = None
) -> EstimateResult:
    """Estimate of ``E[log2(a + W)]`` in bits.

    Parametric shapes use quadrature: the result carries ``stderr=0`` and
    is accurate to 1e-6.  Tabulated models use Monte Carlo with ``cfg``
    (the adaptive scheme is for the parametric families), as the one-shift
    case of the curve that ``jensen_gap_numeric`` draws: the shifts of one
    curve share their draws, and each has the value it has here alone.
    """
    if a < 0:
        raise ValueError(f"shift a must be nonnegative, got {a}")

    if model.shape == "deterministic":
        return EstimateResult(math.log2(a + model.mean_power), 0.0, 0, 0)

    if model.shape == "tabulated":
        return _tabulated_log_curve(model, [a], cfg)[0]

    if model.shape in ("rayleigh", "gamma"):
        mean = _elog2_gamma(a, model.k, model.gamma_scale)
    else:
        mean = _elog2_weibull(a, model.k, model.mean_power)
    return EstimateResult(mean, 0.0, 0, 0)


# ---------------------------------------------------------------------------
# Logarithmic Jensen's gap
# ---------------------------------------------------------------------------


def _gamma_gap_bound(k: float) -> float:
    return LOG2E / k - math.log2(1.0 + 1.0 / (2.0 * k))


def _log2_gamma(x: float) -> float:
    """log2 Gamma(x): by lgamma past x = 171, where Gamma(x) overflows."""
    return math.log2(math.gamma(x)) if x < 171.0 else math.lgamma(x) * LOG2E


def _weibull_gap_bound(k: float) -> float:
    return EULER_GAMMA * LOG2E / k + _log2_gamma(1.0 + 1.0 / k)


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
    """a = 0 plus 41 log-spaced points spanning 1e-3..1e3 times the mean."""
    grid = np.geomspace(1e-3 * mean_power, 1e3 * mean_power, 41)
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

    A tabulated model's curve draws its powers once per chunk and evaluates
    every shift on them; each point equals ``expected_log_shifted`` at that
    shift, bit for bit.  Its points' errors are therefore positively
    correlated (log2(a + W) increases with W at every a), so a neighbouring
    difference has a smaller error than either stderr, and a monotonicity
    slack of k(stderr_u + stderr_v) is conservative.
    """
    grid = default_xi_grid(model.mean_power) if a_grid is None else np.asarray(
        a_grid, dtype=float
    )
    if np.any(grid < 0):
        raise ValueError("a grid must be nonnegative")
    if 0.0 not in grid:
        grid = np.concatenate([[0.0], grid])

    if model.shape == "tabulated":
        ests = _tabulated_log_curve(model, grid, cfg)
    else:
        ests = [expected_log_shifted(model, float(a), cfg=cfg) for a in grid]
    xi: list[tuple[float, float]] = []
    errs: list[float] = []
    gap0 = None
    for a, est in zip(grid, ests):
        val = math.log2(a + model.mean_power) - est.mean
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
