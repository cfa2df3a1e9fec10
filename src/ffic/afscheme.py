"""n-phase amplify-and-forward feedback scheme for the symmetric FF-IC.

Transmitter 2 sends fresh data only in phase 1; in every later phase it
retransmits (power-scaled by 1/sqrt(1+INR)) the interference-plus-noise it
learned through feedback.  Receiver 1 then faces a banded (two-tap)
covariance whose determinant obeys a three-term recursion; receiver 2
combines its phase outputs with weights that cancel all but the final
phase's interference and noise exactly.

This module evaluates the scheme numerically:

* determinant sequences of the receiver-1 covariance (log-space recursion,
  safe for hundreds of phases),
* asymptotics of the tridiagonal Toeplitz plug-in |A_n| = a|A_{n-1}| -
  b^2 |A_{n-2}|, whose growth rate converges to
  log2(a + sqrt(a^2 - 4 b^2)) - 1 and never drops below log2(a) - 1,
* the achievable rates of both users and the corner-point gaps against
  the symmetric feedback outer bound (within 2 + 3*c_JG bits per user),
  read from the pentagon ``regions.nphase_outer_region`` declares,
* the exact telescoping-cancellation identity, verified symbol by symbol,
* the closed-form capacity sandwich of the 2-tap fast-fading ISI channel
  (width exactly 2 + 3*c_JG bits), its achievable n-symbol rate and its
  n -> infinity limit.

A two-tap recursion |K(i)| = d_i |K(i-1)| - e_i |K(i-2)| on given powers
runs through ``_log2_det``.  Its expectation over fading powers, the rate
of ``r1_rate``, ``ky1_growth`` and ``isi_achievable_rate``, is computed by
density evolution, with no random draw.  The ratio r_i = |K(i)|/|K(i-1)|
is driven by one state q_i = 1 - W(i)/r_i in (0, 1], a Markov chain that
advances one link at a time:

* ISI: q -> A = 1 + q W_c -> q' = A / (A + W_d), from A_1 = 1, and
  log2 r = log2 A - log2 q';
* receiver 1: q -> X = 1 + q W12 -> B = 1 + X W21 / s -> q' = B / (B + W11),
  with s = 1 + INR, from X_0 = s, and log2 r = log2 B - log2 q'.

Each stage's variable lives on a uniform grid in ln(A - 1), ln(X - 1),
ln(B - 1) or ln(q / (1 - q)), spanning the range its laws' 1e-12 and
1 - 1e-12 quantiles allow.  A stage is a transition matrix between two
grids, read off one link's CDF (``FadingModel.cdf_of_log``) at the cell
edges with each source cell at its midpoint, so the chain's laws and
every E log2 A, E log2 B and E log2 q' carry an O(h^2) error in the cell
width h.  The rate is computed on two nested grids, of ``DE_CELLS`` cells
each, and extrapolated (Richardson: (4 fine - coarse) / 3); its reported
error bound is the two grids' whole difference, three times the
correction.  Once the law of q moves by less than 1e-13 (L1) in a step,
and by less than in the step before, the chain is stationary: the
remaining steps take the last step's value, and their geometric tail,
extrapolated from the last two moves, joins the bound.  The n -> infinity
rate reads the stationary law p = p T itself, with T the product of the
stage matrices, found by Grassmann-Taksar-Heyman elimination, so it
needs no number of steps to mix and reads the same bytes on any number
of BLAS threads.  A channel whose links are all deterministic
takes the exact scalar recursion instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fading import ComplexGainSampler, FadingModel, expected_log_shifted, log2_sum
from .mc import EstimateResult, McConfig, estimate_expectation, substream
from .regions import ChannelSpec, nphase_outer_region

__all__ = [
    "PhaseDraw",
    "DetSequence",
    "TridiagGrowth",
    "CancellationReport",
    "CornerGapResult",
    "DE_CELLS",
    "ky1_dets",
    "ky1_conditional_log2det",
    "ky1_growth",
    "khat_plugin_params",
    "r1_rate",
    "r2_rate",
    "tridiag_growth",
    "cancellation_check",
    "nphase_corner_gap",
    "isi_bounds",
    "isi_achievable_rate",
    "isi_achievable_limit",
]

# substream families for this module's estimators
_AF_R2 = 42
_AF_CANCEL = 46

LN2 = math.log(2.0)
_LOG_NORMAL = 700.0  # e^x is a normal float for |x| below this
# Cells per variable of density evolution's two grids.  A fine-grid matrix
# (512 KiB) is no larger than a Monte Carlo chunk of complex gains, so the
# chain adds nothing to a run's peak memory.
DE_CELLS = (128, 256)
_TAIL = 1e-12  # law mass a grid leaves out on either side (it stays, in the end cell)
_STATIONARY = 1e-13  # L1 move of the law of q per step below which it is stationary
_BLOCK = 32  # rows of a transition matrix built at once, which bounds the temporaries


@dataclass(frozen=True)
class PhaseDraw:
    """One realization of the per-phase link gains g(1..n)."""

    g11: np.ndarray
    g21: np.ndarray
    g22: np.ndarray
    g12: np.ndarray

    def __post_init__(self):
        n = len(self.g11)
        if not (len(self.g21) == len(self.g22) == len(self.g12) == n) or n < 1:
            raise ValueError("phase draws must have equal length >= 1")

    @classmethod
    def draw(cls, ch: ChannelSpec, n: int, rng: np.random.Generator) -> "PhaseDraw":
        links = (ch.g11, ch.g21, ch.g22, ch.g12)
        return cls(*(ComplexGainSampler(m).sample(rng, n) for m in links))


@dataclass(frozen=True)
class DetSequence:
    """Determinants |K(1)| .. |K(n)| with per-step growth rates.

    ``values`` may overflow to inf past a few hundred phases at high SNR;
    ``log2_values`` is always finite and is what the recursion propagates.
    """

    log2_values: np.ndarray

    @property
    def values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp2(self.log2_values)

    @property
    def growth(self) -> np.ndarray:
        steps = np.arange(1, len(self.log2_values) + 1, dtype=float)
        return self.log2_values / steps


def _log2_det(steps, out=None) -> float:
    """log2 |K(n)| of the recursion |K(i)| = d_i |K(i-1)| - c_i u_i |K(i-2)|.

    The module's one determinant loop, on scalars.  ``steps`` yields
    (d_i, c_i, u_i), with c_i <= d_i and u_i <= r_{i-1}, for i = 1..n; from
    |K(0)| = 1 and |K(-1)| = 0, |K(1)| = d_1.  It propagates the ratio r_i =
    |K(i)|/|K(i-1)| = d_i - c_i (u_i / r_{i-1}), which no product overflows,
    and accumulates its log2; ``out`` receives every log2 |K(i)|.  A ratio
    that is not positive and finite (a broken covariance, or a d_i past the
    float limit) raises ``ValueError``.
    """
    ratio, log2k = math.inf, 0.0  # |K(0)| / |K(-1)|
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (d, c, u) in enumerate(steps):
            ratio = d - c * (u / ratio)
            if not 0.0 < ratio < math.inf:
                raise ValueError("non-positive, infinite or NaN determinant ratio in a two-tap "
                                 "recursion; the covariance is broken or the powers overflow")
            log2k += math.log2(ratio)
            if out is not None:
                out[i] = log2k
    return log2k


def _ky1_steps(phases, inr: float):
    """(d_i, c_i, u_i) of receiver 1's covariance from the per-phase powers
    (|g11(i)|^2, |g21(i)|^2, |g12(i)|^2) that ``phases`` yields:

        |K(1)| = 1 + |g11(1)|^2 + |g21(1)|^2 and for i >= 2
        d_i = |g11(i)|^2 + |g21(i)|^2 (|g12(i-1)|^2 + 1)/(1+INR) + 1,
        c_i = |g21(i)|^2 |g12(i-1)|^2 / (1+INR), u_i = |g11(i-1)|^2.
    """
    s = 1.0 + inr
    w11_prev, w21, w12_prev = next(phases)
    yield 1.0 + w11_prev + w21, 0.0, 0.0
    for w11, w21, w12 in phases:
        yield w11 + w21 / s * (w12_prev + 1.0) + 1.0, w21 / s * w12_prev, w11_prev
        w11_prev, w12_prev = w11, w12


def ky1_dets(draw: PhaseDraw, inr: float) -> DetSequence:
    """Receiver 1's determinant sequence (``_ky1_steps``) for one gain draw."""
    powers = (np.abs(g) ** 2 for g in (draw.g11, draw.g21, draw.g12))
    log2k = np.empty(len(draw.g11))
    _log2_det(_ky1_steps(zip(*powers), inr), out=log2k)
    return DetSequence(log2_values=log2k)


def ky1_conditional_log2det(draw: PhaseDraw, inr: float) -> float:
    """log2 det of the conditional covariance: exactly the product of
    (|g21(i)|^2/(1+INR) + 1) for i >= 2 times (|g21(1)|^2 + 1)."""
    w21 = np.abs(draw.g21) ** 2
    s = 1.0 + inr
    terms = np.log2(w21 / s + 1.0)
    return float(np.sum(terms[1:]) + np.log2(w21[0] + 1.0))


# ---------------------------------------------------------------------------
# Density evolution of the ratio state
# ---------------------------------------------------------------------------


def _log1p_exp(x: np.ndarray) -> np.ndarray:
    """ln(1 + e^x), for any x."""
    return np.logaddexp(0.0, x)


def _log_q(z: np.ndarray) -> np.ndarray:
    """ln q from z = ln(q / (1 - q))."""
    return -np.logaddexp(0.0, -z)


@dataclass(frozen=True)
class _Stage:
    """One link's stage of a chain: target = shift(source) + sign * ln W."""

    law: FadingModel
    sign: int
    shift: Callable[[np.ndarray], np.ndarray]

    def matrix(self, shifts: np.ndarray, edges: np.ndarray) -> np.ndarray:
        """Row i: P(target in cell j | shift = shifts[i]) over the cells
        between ``edges``, the end cells reaching to -inf and +inf."""
        inner = edges[1:-1]
        out = np.empty((len(shifts), len(edges) - 1))
        for i in range(0, len(shifts), _BLOCK):
            shift = shifts[i:i + _BLOCK, None]
            if self.sign > 0:  # P(target <= t) = P(ln W <= t - shift)
                cdf = self.law.cdf_of_log(inner - shift)
            else:  # P(target <= t) = 1 - P(ln W < shift - t)
                cdf = 1.0 - self.law.cdf_of_log(shift - inner)
            out[i:i + _BLOCK] = np.diff(cdf, axis=1, prepend=0.0, append=1.0)
        return out


def _isi_chain(snr: float, inr: float, shape: str, k: float | None) -> tuple[_Stage, ...]:
    """q -> ln(A - 1) = ln q + ln W_c -> ln(q'/(1 - q')) = ln A - ln W_d."""
    return (_Stage(FadingModel(shape, inr, k=k), 1, _log_q),
            _Stage(FadingModel(shape, snr, k=k), -1, _log1p_exp))


def _receiver1_chain(ch: ChannelSpec) -> tuple[_Stage, ...]:
    """q -> ln(X - 1) = ln q + ln W12 -> ln(B - 1) = ln X + ln W21 - ln s
    -> ln(q'/(1 - q')) = ln B - ln W11."""
    log_s = math.log1p(ch.inr2)
    return (_Stage(ch.g12, 1, _log_q),
            _Stage(ch.g21, 1, lambda y: _log1p_exp(y) - log_s),
            _Stage(ch.g11, -1, _log1p_exp))


def _edges(chain: tuple[_Stage, ...], cells: int) -> list[np.ndarray]:
    """Cell edges of every stage's target: the first step enters stage 1
    with shift 0 (A_1 = 1, X_0 = s); each range widens around the chain
    until it holds every step's."""
    m = len(chain)
    law_ranges = [stage.law.log_power_range(_TAIL) for stage in chain]

    def target_range(j: int, s_lo: float, s_hi: float) -> tuple[float, float]:
        """Where stage j's target lies for a shift in [s_lo, s_hi]."""
        w_lo, w_hi = law_ranges[j]
        if chain[j].sign > 0:
            return s_lo + w_lo, s_hi + w_hi
        return s_lo - w_hi, s_hi - w_lo

    ranges = [None] * m
    ranges[1] = target_range(1, 0.0, 0.0)
    settled, j = 0, 2 % m
    while settled < m:
        # every shift increases with its source
        lo, hi = target_range(j, *(float(chain[j].shift(x)) for x in ranges[j - 1]))
        old = ranges[j]
        ranges[j] = (lo, hi) if old is None else (min(lo, old[0]), max(hi, old[1]))
        settled = settled + 1 if ranges[j] == old else 0
        j = (j + 1) % m
    return [np.linspace(lo, max(hi, lo + 1.0), cells + 1) for lo, hi in ranges]


def _grids(chain: tuple[_Stage, ...], cells: int):
    """(cell edges of every stage's target, stage matrices, ln A or ln B at
    the last stage's sources, -ln q at the cells of q) on grids of ``cells``
    cells; matrix j maps a law on stage j - 1's cells to one on stage j's."""
    edges = _edges(chain, cells)
    points = [(e[1:] + e[:-1]) / 2.0 for e in edges]
    mats = [stage.matrix(stage.shift(points[j - 1]), edges[j]) for j, stage in enumerate(chain)]
    return edges, mats, chain[-1].shift(points[-2]), _log1p_exp(-points[-1])


def _evolve(chain: tuple[_Stage, ...], steps: int, cells: int) -> tuple[float, float]:
    """The sum of E log2 r_i over ``steps`` steps of the chain on grids of
    ``cells`` cells, and a bound on the part past stationarity."""
    m = len(chain)
    edges, mats, log_a, log_inv_q = _grids(chain, cells)
    # |E log2 r| moves by at most this times the L1 move of the law of q
    lip = (np.max(log_a) + np.max(log_inv_q)) / LN2
    p, mean_log_a = chain[1].matrix(np.zeros(1), edges[1])[0], 0.0
    total, move, run = 0.0, math.inf, 0
    while run < steps:
        prev, prev_move = p, move
        for j in (range(2, m) if run == 0 else range(m)):
            if j == m - 1:
                mean_log_a = p @ log_a
            p = p @ mats[j]
        last = (mean_log_a + p @ log_inv_q) / LN2
        total += last
        run += 1
        move = float(np.sum(np.abs(p - prev))) if run > 1 else math.inf
        if move <= _STATIONARY and move < prev_move:
            break
    ratio = move / prev_move if run > 1 else math.inf
    last_error = lip * move / (1.0 - ratio) if ratio < 1.0 else math.inf
    remaining = steps - run
    return total + remaining * last, remaining * last_error if remaining else 0.0


def _gth(t: np.ndarray) -> np.ndarray:
    """The stationary law p = p T of the stochastic matrix T by
    Grassmann-Taksar-Heyman elimination: no subtraction, and every sum in
    one fixed order, so no BLAS thread count changes its bytes."""
    a = t.copy()
    for k in range(len(a) - 1, 0, -1):
        a[:k, k] /= np.sum(a[k, :k])
        a[:k, :k] += a[:k, k, None] * a[k, None, :k]
    p = np.ones(len(a))
    for k in range(1, len(a)):
        p[k] = np.sum(p[:k] * a[:k, k])
    return p / np.sum(p)


def _stationary(chain: tuple[_Stage, ...], cells: int) -> float:
    """E log2 r under the stationary law p of q on grids of ``cells`` cells,
    p = p T with T the step's matrix."""
    _, mats, log_a, log_inv_q = _grids(chain, cells)
    p = _gth(functools.reduce(np.matmul, mats))
    law_a = functools.reduce(np.matmul, mats[:-1], p)  # the law at the last stage's sources
    return float((law_a @ log_a + p @ log_inv_q) / LN2)


def _extrapolate(coarse: float, fine: float, error: float, scale: float) -> EstimateResult:
    """Richardson's value of two nested grids, bounded by their difference."""
    return EstimateResult(float((4.0 * fine - coarse) / 3.0 / scale),
                          float((abs(fine - coarse) + error) / scale))


def _chain_rate(chain: tuple[_Stage, ...], n: int) -> EstimateResult:
    """(1/n) sum over the first n steps of E log2 r_i."""
    (coarse, coarse_error), (fine, fine_error) = (_evolve(chain, n, cells) for cells in DE_CELLS)
    return _extrapolate(coarse, fine, coarse_error + fine_error, n)


def _chain_limit(chain: tuple[_Stage, ...]) -> EstimateResult:
    """E log2 r of the stationary chain, the n -> infinity rate."""
    coarse, fine = (_stationary(chain, cells) for cells in DE_CELLS)
    return _extrapolate(coarse, fine, 0.0, 1.0)


def ky1_growth(ch: ChannelSpec, n: int, cfg: McConfig | None = None) -> EstimateResult:
    """(1/n) E[log2 |K(n)|], the unconditional determinant growth.

    At every n this dominates the static plug-in growth minus 3*c_JG,
    which is the inequality the constant-gap analysis rests on.  ``cfg``
    is not used: the result is deterministic (``samples=0``).
    """
    if not ch.is_symmetric():
        raise ValueError("the n-phase scheme is defined for symmetric channels")
    if n < 1:
        raise ValueError("n must be >= 1")
    links = (ch.g11, ch.g21, ch.g12)
    if all(m.shape == "deterministic" for m in links):
        phases = itertools.repeat(tuple(m.mean_power for m in links), n)
        return EstimateResult(_log2_det(_ky1_steps(phases, ch.inr2)) / n, 0.0)
    return _chain_rate(_receiver1_chain(ch), n)


def _elog2(model: FadingModel, a: float) -> float:
    """E log2(a + W) without a draw: the law's log rule, or a table's own rule."""
    if model.shape == "tabulated":
        return model.table.expect(lambda w: np.log2(a + w))
    return expected_log_shifted(model, a).mean


def r1_rate(ch: ChannelSpec, n: int, cfg: McConfig | None = None) -> EstimateResult:
    """Achievable rate of user 1: (1/n) E[log2(|K(n)| / |K_cond(n)|)].

    ``ky1_growth`` less the conditional part, which is the closed form
    ((n-1) E log2(1 + W21/s) + E log2(1 + W21)) / n, whose log rule is
    measured within 1.5e-14 bits: the stated error is the growth's.  ``cfg``
    is not used: the result is deterministic (``samples=0``).  At every n it
    is at least log2(1+SNR+INR) - 3*c_JG - 2 - (log2(1+INR) - 1)/n: the
    growth is at least log2(1+SNR+INR) - 1 - 3*c_JG (``tridiag_growth``),
    and by Jensen the conditional part is at most 1 + (log2(1+INR) - 1)/n.
    """
    growth = ky1_growth(ch, n)
    s = 1.0 + ch.inr2
    cond = ((n - 1) * (_elog2(ch.g21, s) - math.log2(s)) + _elog2(ch.g21, 1.0)) / n
    return EstimateResult(growth.mean - cond, growth.stderr)


def khat_plugin_params(snr: float, inr: float) -> tuple[float, float]:
    """(a, b) of the static plug-in: a = 1+SNR+INR, b = sqrt(SNR)*INR/sqrt(1+INR).

    a > 2 b always holds here (arithmetic mean >= geometric mean), so the
    Toeplitz growth limit applies.
    """
    return 1.0 + snr + inr, math.sqrt(snr) * inr / math.sqrt(1.0 + inr)


@dataclass(frozen=True)
class TridiagGrowth:
    """Growth of the tridiagonal Toeplitz determinant sequence."""

    dets: DetSequence
    limit_estimate: float
    limit_closed_form: float


def tridiag_growth(a: float, b: float, n: int) -> TridiagGrowth:
    """|A_n| = a |A_{n-1}| - b^2 |A_{n-2}| with A_0 = 1, A_1 = a.

    Requires a > 2|b| (a^2 > 4 b^2, never squared).  The per-step growth
    (1/i) log2 |A_i| converges to log2(a + sqrt(a^2 - 4 b^2)) - 1 = log2(a/2
    + sqrt((a/2 - |b|)(a/2 + |b|))) and is >= log2(a) - 1 at every i.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not a > 2.0 * abs(b):
        raise ValueError(f"need a > 2|b|, got a={a}, b={b}")
    b = abs(b)  # the ratio |A_i|/|A_{i-1}| stays above a/2 > b
    log2k = np.empty(n)
    _log2_det(itertools.repeat((a, b, b), n), out=log2k)
    dets = DetSequence(log2_values=log2k)
    closed = math.log2(0.5 * a + math.sqrt(0.5 * a - b) * math.sqrt(0.5 * a + b))
    return TridiagGrowth(dets, float(dets.growth[-1]), closed)


def _e1(x: float) -> float:
    """The exponential integral E1(x), x > 0: its power series up to x = 1,
    else its continued fraction, summed from 20 + 80/x terms down (Zhang &
    Jin, Computation of Special Functions, 1996, routine E1XB).  On 20,000
    points from 1e-300 to 700 it equals scipy.special.exp1 to the last bit."""
    if x <= 1.0:
        acc = term = 1.0
        for k in range(1, 26):
            term = -term * k * x / (k + 1.0) ** 2
            acc += term
            if abs(term) <= abs(acc) * 1e-15:
                break
        return -float(np.euler_gamma) - math.log(x) + x * acc
    t0 = 0.0
    for k in range(20 + int(80.0 / x), 0, -1):
        t0 = k / (1.0 + k / (x + t0))
    return math.exp(-x) * (1.0 / (x + t0))


def r2_rate(ch: ChannelSpec, cfg: McConfig | None = None) -> EstimateResult:
    """Achievable rate of user 2: E[log2+( |g_d|^2 / (1+INR) )].

    The telescoped point-to-point channel leaves only the final phase's
    interference and noise, hence the 1+INR denominator s.  On a link with
    W = theta E^(1/k), E ~ Exp(1) (Rayleigh, Gamma k = 1, every Weibull k),
    P(W > w) = e^(-(w/theta)^k), theta = SNR / Gamma(1 + 1/k), so by parts
    it is exactly E1(x) / (k ln 2), x = (s/theta)^k (``_e1``): formed directly where
    every factor is a normal float (s/SNR at k = 1), else from ln x, and
    E1(x) = -gamma - ln x below e^-700.  A static link gives log2(max(SNR/s,
    1)) itself.  Other laws are drawn.
    """
    if not ch.is_symmetric():
        raise ValueError("the n-phase scheme is defined for symmetric channels")
    s, k = 1.0 + ch.inr2, ch.g11.k
    if ch.g11.shape == "deterministic":
        return EstimateResult(float(np.log2(max(ch.snr1 / s, 1.0))), 0.0)
    if ch.g11.exponential or ch.g11.shape == "weibull":
        log_gamma, log_ratio = math.lgamma(1.0 + 1.0 / k), math.log(s) - math.log(ch.snr1)
        log_x = k * (log_ratio + log_gamma)
        if max(abs(log_ratio), abs(log_ratio + log_gamma), abs(log_x), log_gamma) < _LOG_NORMAL:
            e1 = _e1((s / ch.snr1 * math.exp(log_gamma)) ** k)
        elif log_x < -_LOG_NORMAL:
            e1 = -np.euler_gamma - log_x
        else:  # E1(x) underflows to 0 long before x = e^700
            e1 = _e1(math.exp(min(log_x, _LOG_NORMAL)))
        return EstimateResult(float(e1) / (k * LN2), 0.0)

    def f(wd):
        return np.log2(np.maximum(wd / s, 1.0))

    return estimate_expectation(f, [ch.g11], cfg, stream_key=(_AF_R2,))


# ---------------------------------------------------------------------------
# Telescoping cancellation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CancellationReport:
    n: int
    blocks: int
    seed: int
    max_residual: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "N": self.blocks,
            "seed": self.seed,
            "max_residual": self.max_residual,
        }


def cancellation_check(
    n: int,
    blocks: int,
    seed: int,
    snr: float = 1.0,
    inr: float = 10.0,
    zero_noise: bool = False,
) -> CancellationReport:
    """Verify receiver 2's combining identity symbol by symbol.

    Simulates the transmission table literally (N symbols per phase,
    per-symbol gains and noise) and subtracts the closed form

        g22(1) * prod_{j=2..n}(-g22(j)/sqrt(1+INR)) * X2
        + g12(n) X1(n) + Z2(n)

    from the combined output Y2(n) + sum_i prod_{j>i}(-g22(j)/sqrt(1+INR))
    * Y2(i).  The identity is algebraic (and independent of INR), so the
    residual is floating-point noise only.
    """
    if n < 2:
        raise ValueError("need at least two phases to telescope")
    if blocks < 1:
        raise ValueError("need at least one symbol per phase")
    rng = substream(seed, (_AF_CANCEL,))
    shape = (n, blocks)

    def cn(mean: float, shape: tuple[int, ...]) -> np.ndarray:
        """CN(0, mean) draws: per-symbol Rayleigh gains, and at mean 1 the
        symbols and the noise."""
        g = ComplexGainSampler(FadingModel.rayleigh(mean)).sample(rng, math.prod(shape))
        return g.reshape(shape)

    g22, g12 = cn(snr, shape), cn(inr, shape)
    x1, x2 = cn(1.0, shape), cn(1.0, (blocks,))
    z2 = np.zeros(shape, dtype=complex) if zero_noise else cn(1.0, shape)

    s = math.sqrt(1.0 + inr)
    x2_tx = np.empty(shape, dtype=complex)
    x2_tx[0] = x2
    for i in range(1, n):
        x2_tx[i] = (g12[i - 1] * x1[i - 1] + z2[i - 1]) / s
    y2 = g22 * x2_tx + g12 * x1 + z2

    coeff = -g22 / s
    combined = y2[n - 1].copy()
    prod = np.ones(blocks, dtype=complex)
    for i in range(n - 2, -1, -1):
        prod = prod * coeff[i + 1]
        combined += prod * y2[i]

    tail_prod = np.prod(coeff[1:], axis=0)
    closed = g22[0] * tail_prod * x2 + g12[n - 1] * x1[n - 1] + z2[n - 1]

    scale = max(float(np.max(np.abs(combined))), float(np.max(np.abs(closed))), 1.0)
    resid = float(np.max(np.abs(combined - closed))) / scale
    return CancellationReport(n=n, blocks=blocks, seed=seed, max_residual=resid)


# ---------------------------------------------------------------------------
# Corner points and the ISI sandwich
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CornerGapResult:
    """Corner points of the symmetric feedback outer bound vs the scheme."""

    outer_corners: tuple[tuple[float, float], tuple[float, float]]
    achieved_corners: tuple[tuple[float, float], tuple[float, float]]
    gap_r1: float
    gap_r2: float
    stderr: float

    @property
    def per_user_gap(self) -> float:
        return max(self.gap_r1, self.gap_r2)

    def to_json(self) -> dict:
        return {
            "outer_corners": [list(c) for c in self.outer_corners],
            "achieved_corners": [list(c) for c in self.achieved_corners],
            "gap_r1": self.gap_r1,
            "gap_r2": self.gap_r2,
            "per_user_gap": self.per_user_gap,
            "stderr": self.stderr,
        }


def nphase_corner_gap(
    ch: ChannelSpec, c_jg: float, cfg: McConfig | None = None
) -> CornerGapResult:
    """Per-user gap between the outer pentagon's corners and the scheme.

    The outer region (``regions.nphase_outer_region``) has two non-trivial
    corners, (sym1, sym3 - sym1) and its swap; the scheme achieves
    (log2(1+SNR+INR) - 2 - 3*c_JG, E[log2+(|g_d|^2/(1+INR))]) and its
    swap, so each user's corner gap is at most 2 + 3*c_JG.
    """
    region = nphase_outer_region(ch, cfg)
    r1max, total = (region.constraint(f"nphase_outer_sym{i}") for i in (1, 3))
    r2 = r2_rate(ch, cfg)

    outer_r1 = r1max.bound
    outer_r2 = total.bound - r1max.bound
    ach_r1 = log2_sum(1.0, ch.snr1, ch.inr1) - 2.0 - 3.0 * c_jg
    ach_r2 = r2.mean

    gap_r1 = outer_r1 - ach_r1
    gap_r2 = outer_r2 - ach_r2
    # the sum bound already holds the full-power term's error, once
    stderr = math.hypot(total.bound_stderr, r2.stderr)
    return CornerGapResult(
        outer_corners=((outer_r1, outer_r2), (outer_r2, outer_r1)),
        achieved_corners=((ach_r1, ach_r2), (ach_r2, ach_r1)),
        gap_r1=gap_r1,
        gap_r2=gap_r2,
        stderr=stderr,
    )


def isi_bounds(snr: float, inr: float, c_jg: float) -> tuple[float, float]:
    """Capacity sandwich of the 2-tap fast-fading ISI channel.

    Returns (log2(1+SNR+INR) - 1 - 3*c_JG, log2(1+SNR+INR) + 1); the
    width is 2 + 3*c_JG exactly.  log2(1+SNR+INR) is a ``log2_sum``.
    """
    if not all(map(math.isfinite, (snr, inr, c_jg))):
        raise ValueError(f"snr, inr and c_jg must be finite, got {snr}, {inr} and {c_jg}")
    if snr < 0 or inr < 0:
        raise ValueError("snr and inr must be nonnegative")
    base = log2_sum(1.0, snr, inr)
    return base - 1.0 - 3.0 * c_jg, base + 1.0


def isi_achievable_rate(
    snr: float,
    inr: float,
    n: int,
    cfg: McConfig | None = None,
    shape: str = "rayleigh",
    k: float | None = None,
) -> EstimateResult:
    """(1/n) E[log2 |K_Y(n)|] for Y(l) = g_d(l) X(l) + g_c(l) X(l-1) + Z(l).

    Gaussian unit-power inputs, X(0) = 0, receiver-only channel knowledge;
    the conditional covariance is the identity, so this is the achievable
    rate, and it lies inside the closed-form sandwich for moderate n.
    |K_Y| has d_1 = 1 + |g_d(1)|^2, d_l = 1 + |g_d(l)|^2 + |g_c(l)|^2 and
    e_l = |g_c(l)|^2 |g_d(l-1)|^2.  ``cfg`` is not used: the result is
    deterministic (``samples=0``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    chain = _isi_chain(snr, inr, shape, k)
    if shape == "deterministic":
        steps = itertools.chain([(1.0 + snr, 0.0, 0.0)],
                                itertools.repeat((1.0 + snr + inr, inr, snr), n - 1))
        return EstimateResult(_log2_det(steps) / n, 0.0)
    return _chain_rate(chain, n)


def isi_achievable_limit(
    snr: float, inr: float, shape: str = "rayleigh", k: float | None = None
) -> EstimateResult:
    """lim (1/n) E[log2 |K_Y(n)|], the rate the ISI sandwich states: the
    per-symbol E log2 r under the chain's stationary law, solved for on
    both grids, with their difference as its error bound.

    A static (deterministic) channel gives the Toeplitz limit
    log2(a + sqrt(a^2 - 4 b^2)) - 1 with a = 1+SNR+INR, b^2 = SNR*INR, taken
    as the ``log2_sum`` of 1/2, SNR/2, INR/2 and sqrt((SNR/2 - INR/2)^2 +
    SNR/2 + INR/2 + 1/4), which neither cancels where a rounds to 2b
    (SNR = INR = 1e16) nor overflows.
    """
    chain = _isi_chain(snr, inr, shape, k)
    if shape == "deterministic":
        half_snr, half_inr = 0.5 * snr, 0.5 * inr
        half_root = math.hypot(half_snr - half_inr, math.sqrt(half_snr + half_inr + 0.25))
        return EstimateResult(log2_sum(0.5, half_snr, half_inr, half_root), 0.0)
    return _chain_limit(chain)
