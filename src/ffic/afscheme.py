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
* the exact telescoping-cancellation identity, verified symbol by symbol,
* the closed-form capacity sandwich of the 2-tap fast-fading ISI channel
  (width exactly 2 + 3*c_JG bits).

Every two-tap recursion runs through ``_log2_det``.  A Monte Carlo chunk
allocates its powers, d_i, e_i and the loop's arrays once and refills them
in place every phase, bit-identically to fresh arrays per phase; the
finiteness check runs once, on the final sum (see ``_log2_det``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fading import ComplexGainSampler, FadingModel
from .mc import EstimateResult, McConfig, estimate_draws, estimate_expectation, substream
from .regions import ChannelSpec, RateConstraint, RateRegion

__all__ = [
    "PhaseDraw",
    "DetSequence",
    "TridiagGrowth",
    "CancellationReport",
    "CornerGapResult",
    "ky1_dets",
    "ky1_conditional_log2det",
    "ky1_growth",
    "khat_plugin_params",
    "r1_rate",
    "r2_rate",
    "tridiag_growth",
    "cancellation_check",
    "nphase_corner_gap",
    "nphase_outer_region",
    "isi_bounds",
    "isi_achievable_rate",
]

# substream families for this module's estimators
_AF_R1 = 40
_AF_GROWTH = 41
_AF_R2 = 42
_AF_CORNER = 43
_AF_ISI = 44
_AF_CANCEL = 46


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

    @property
    def phases(self) -> int:
        return len(self.g11)

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


def _log2_det(steps, out=None):
    """log2 |K(n)| of the recursion |K(i)| = d_i |K(i-1)| - e_i |K(i-2)|.

    The module's one determinant loop.  ``steps`` yields (d_i, e_i) for
    i = 1..n, scalars or arrays of draws; from |K(0)| = 1 and |K(-1)| = 0,
    |K(1)| = d_1.  It propagates the ratio |K(i)|/|K(i-1)| and accumulates
    its log2, finite for any n; ``out`` receives every log2 |K(i)|.  The
    ratio, its log2 and the returned sum are three arrays shaped like d_1,
    updated in place; ``steps`` may refill the same d and e buffers every
    time, as each is read before the next is asked for.

    Overflowing powers turn into inf and NaN, so numpy's warnings are off
    and the sum is checked once, after the loop.  That suffices: a ratio
    that is not positive and finite has a log2 of NaN or +-inf, and a sum
    that takes one never turns finite again (inf + finite is inf, inf - inf
    and NaN + anything are NaN).
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for i, (d, e) in enumerate(steps):
            if i == 0:
                ratio = np.full(np.shape(d), np.inf)  # |K(0)| / |K(-1)|
                step = np.empty_like(ratio)
                log2k = np.zeros_like(ratio)
            np.divide(e, ratio, out=ratio)
            np.subtract(d, ratio, out=ratio)
            np.log2(ratio, out=step)
            log2k += step
            if out is not None:
                out[i] = log2k
    if not math.isfinite(np.sum(log2k)):
        raise ValueError("non-positive, infinite or NaN determinant ratio in a two-tap "
                         "recursion; the covariance is broken or the powers overflow")
    return log2k


def _ky1_steps(phases, inr: float):
    """(d_i, e_i) of receiver 1's covariance from the per-phase powers
    (|g11(i)|^2, |g21(i)|^2, |g12(i)|^2) that ``phases`` yields:

        |K(1)| = 1 + |g11(1)|^2 + |g21(1)|^2 and for i >= 2
        d_i = |g11(i)|^2 + |g21(i)|^2 (|g12(i-1)|^2 + 1)/(1+INR) + 1,
        e_i = |g11(i-1)|^2 |g21(i)|^2 |g12(i-1)|^2 / (1+INR).

    d_i and e_i are refilled in two buffers shaped like the powers.  Phase
    i-1's |g11|^2 and |g12|^2 are read after phase i is drawn, so
    ``phases`` must not draw phase i into their arrays.
    """
    s = 1.0 + inr
    w11_prev, w21, w12_prev = next(phases)
    d, e = np.empty_like(w11_prev), np.empty_like(w11_prev)
    np.add(1.0, w11_prev, out=d)
    d += w21
    yield d, 0.0
    for w11, w21, w12 in phases:
        np.add(w12_prev, 1.0, out=d)
        d *= w21
        d /= s
        d += w11
        d += 1.0
        np.multiply(w11_prev, w21, out=e)
        e *= w12_prev
        e /= s
        yield d, e
        w11_prev, w12_prev = w11, w12


def ky1_dets(draw: PhaseDraw, inr: float, n: int | None = None) -> DetSequence:
    """Receiver 1's determinant sequence (``_ky1_steps``) for one gain draw."""
    n = draw.phases if n is None else n
    if not 1 <= n <= draw.phases:
        raise ValueError(f"n must be in [1, {draw.phases}]")
    powers = (np.abs(g[:n]) ** 2 for g in (draw.g11, draw.g21, draw.g12))
    log2k = np.empty(n)
    _log2_det(_ky1_steps(zip(*powers), inr), out=log2k)
    return DetSequence(log2_values=log2k)


def ky1_conditional_log2det(draw: PhaseDraw, inr: float) -> float:
    """log2 det of the conditional covariance: exactly the product of
    (|g21(i)|^2/(1+INR) + 1) for i >= 2 times (|g21(1)|^2 + 1)."""
    w21 = np.abs(draw.g21) ** 2
    s = 1.0 + inr
    terms = np.log2(w21 / s + 1.0)
    return float(np.sum(terms[1:]) + np.log2(w21[0] + 1.0))


def _mc_phase_rates(
    ch: ChannelSpec, n: int, cfg: McConfig, family: int, conditional: bool
) -> EstimateResult:
    """(1/n) E[log2 |K(n)|  (- log2 |K_cond(n)| if conditional)].

    Vectorized over draws; only squared magnitudes enter the determinants,
    so each phase consumes one power draw per relevant link.  A chunk
    draws every phase's |g21|^2 into one array and its |g11|^2, |g12|^2
    into one of two pairs in turn, keeping the previous phase's for e_i.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    s = 1.0 + ch.inr2

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        cond = np.zeros(size)

        def phases():
            nonlocal cond
            pairs = [(np.empty(size), np.empty(size)) for _ in range(2)]
            w21, term = np.empty(size), np.empty(size)
            for i in range(n):
                w11, w12 = pairs[i % 2]
                ch.g11.sample_power(rng, size, out=w11)
                ch.g21.sample_power(rng, size, out=w21)
                if conditional:
                    if i:
                        np.divide(w21, s, out=term)
                        term += 1.0
                    else:
                        np.add(w21, 1.0, out=term)
                    np.log2(term, out=term)
                    cond += term
                ch.g12.sample_power(rng, size, out=w12)
                yield w11, w21, w12

        log2k = _log2_det(_ky1_steps(phases(), ch.inr2))
        if conditional:
            log2k -= cond
        log2k /= n
        return log2k

    return estimate_draws(draw, cfg, (family,))


def r1_rate(ch: ChannelSpec, n: int, cfg: McConfig | None = None) -> EstimateResult:
    """Achievable rate of user 1: (1/n) E[log2(|K(n)| / |K_cond(n)|)].

    For n large this sits above log2(1+SNR+INR) - 3*c_JG - 2.
    """
    if not ch.is_symmetric():
        raise ValueError("the n-phase scheme is defined for symmetric channels")
    cfg = cfg or McConfig(samples=100_000)
    return _mc_phase_rates(ch, n, cfg, _AF_R1, conditional=True)


def ky1_growth(ch: ChannelSpec, n: int, cfg: McConfig | None = None) -> EstimateResult:
    """(1/n) E[log2 |K(n)|], the unconditional determinant growth.

    At every n this dominates the static plug-in growth minus 3*c_JG,
    which is the inequality the constant-gap analysis rests on.
    """
    if not ch.is_symmetric():
        raise ValueError("the n-phase scheme is defined for symmetric channels")
    cfg = cfg or McConfig(samples=100_000)
    return _mc_phase_rates(ch, n, cfg, _AF_GROWTH, conditional=False)


def khat_plugin_params(snr: float, inr: float) -> tuple[float, float]:
    """(a, b) of the static plug-in: a = 1+SNR+INR, b = sqrt(SNR)*INR/sqrt(1+INR).

    a^2 > 4 b^2 always holds here (arithmetic mean >= geometric mean), so
    the Toeplitz growth limit applies.
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

    Requires a^2 > 4 b^2.  The per-step growth (1/i) log2 |A_i| converges
    to log2(a + sqrt(a^2 - 4 b^2)) - 1 and satisfies >= log2(a) - 1 at
    every i.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if a <= 0 or not a * a > 4.0 * b * b:
        raise ValueError(f"need a > 0 and a^2 > 4 b^2, got a={a}, b={b}")
    b2 = b * b
    log2k = np.empty(n)
    _log2_det(itertools.repeat((a, b2), n), out=log2k)
    dets = DetSequence(log2_values=log2k)
    closed = math.log2(a + math.sqrt(a * a - 4.0 * b2)) - 1.0
    return TridiagGrowth(dets, float(dets.growth[-1]), closed)


def r2_rate(ch: ChannelSpec, cfg: McConfig | None = None) -> EstimateResult:
    """Achievable rate of user 2: E[log2+( |g_d|^2 / (1+INR) )].

    The telescoped point-to-point channel leaves only the final phase's
    interference and noise, hence the 1+INR denominator.
    """
    if not ch.is_symmetric():
        raise ValueError("the n-phase scheme is defined for symmetric channels")
    cfg = cfg or McConfig()
    inr = ch.inr2

    def f(gd):
        w = gd.real**2 + gd.imag**2
        return np.log2(np.maximum(w / (1.0 + inr), 1.0))

    return estimate_expectation(f, [ComplexGainSampler(ch.g11)], cfg, stream_key=(_AF_R2,))


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

    def cn(size):
        return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / math.sqrt(2.0)

    # per-symbol gains: |g|^2 exponential with the given means
    g22 = np.sqrt(rng.exponential(snr, shape)) * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    g12 = np.sqrt(rng.exponential(inr, shape)) * np.exp(1j * rng.uniform(0, 2 * np.pi, shape))
    x1 = cn(shape)
    x2 = cn(blocks)
    z2 = np.zeros(shape, dtype=complex) if zero_noise else cn(shape)

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


# r2_rate and the pentagon and corner terms read only |g|^2 but draw complex
# gains: the benchmark's `recursion` gate declares
# fading.ComplexGainSampler.sample as a layer that must record a span.
def _m2(g: np.ndarray) -> np.ndarray:
    return g.real**2 + g.imag**2


def _full(gd: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """log2(1 + |g_d|^2 + |g_c|^2): a user's full-power bound."""
    return np.log2(1.0 + _m2(gd) + _m2(gc))


def _ratio(gd: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """log2(1 + |g_d|^2 / (1 + |g_c|^2)): the interference-limited part."""
    return np.log2(1.0 + _m2(gd) / (1.0 + _m2(gc)))


def _cross(gd: np.ndarray, gc: np.ndarray) -> np.ndarray:
    """log2(1 + 2|g_d||g_c| / (1 + |g_d|^2 + |g_c|^2)): coherent gain over _full."""
    return np.log2(1.0 + 2.0 * np.sqrt(_m2(gd) * _m2(gc)) / (1.0 + _m2(gd) + _m2(gc)))


def _corner_terms(ch: ChannelSpec, cfg: McConfig):
    """E _full, E _ratio and E _cross on (_AF_CORNER, 0..2): the pentagon's
    corner is (full, ratio + cross) and its sum bound full + (ratio + cross)."""
    if not ch.is_symmetric():
        raise ValueError("the n-phase corners are defined for symmetric channels")
    links = [ComplexGainSampler(ch.g11), ComplexGainSampler(ch.g21)]
    return tuple(estimate_expectation(f, links, cfg, stream_key=(_AF_CORNER, i))
                 for i, f in enumerate((_full, _ratio, _cross)))


def nphase_outer_region(ch: ChannelSpec, cfg: McConfig | None = None):
    """Symmetric feedback outer bound relaxed to a pentagon.

    Three constraints: per-user full-power bounds and one sum bound; its
    two non-trivial corners are what the n-phase scheme is measured
    against (``nphase_corner_gap``, on the same estimates).
    """
    full, ratio, cross = _corner_terms(ch, cfg or McConfig())
    sum_se = math.sqrt(full.stderr**2 + ratio.stderr**2 + cross.stderr**2)
    return RateRegion(
        kind="nphase_outer_sym",
        constraints=(
            RateConstraint(1, 0, full.mean, full.stderr, "nphase_outer_sym1"),
            RateConstraint(0, 1, full.mean, full.stderr, "nphase_outer_sym2"),
            RateConstraint(1, 1, full.mean + (ratio.mean + cross.mean), sum_se,
                           "nphase_outer_sym3"),
        ),
    )


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

    The outer region has two non-trivial corners; the scheme achieves
    (log2(1+SNR+INR) - 2 - 3*c_JG, E[log2+(|g_d|^2/(1+INR))]) and its
    swap, so each user's corner gap is at most 2 + 3*c_JG.
    """
    cfg = cfg or McConfig()
    full, ratio, cross = _corner_terms(ch, cfg)
    r2 = r2_rate(ch, cfg)

    outer_r1 = full.mean
    outer_r2 = ratio.mean + cross.mean
    ach_r1 = math.log2(1.0 + ch.snr1 + ch.inr1) - 2.0 - 3.0 * c_jg
    ach_r2 = r2.mean

    gap_r1 = outer_r1 - ach_r1
    gap_r2 = outer_r2 - ach_r2
    stderr = math.sqrt(
        full.stderr**2 + ratio.stderr**2 + cross.stderr**2 + r2.stderr**2
    )
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
    width is 2 + 3*c_JG exactly.
    """
    if snr < 0 or inr < 0:
        raise ValueError("snr and inr must be nonnegative")
    base = math.log2(1.0 + snr + inr)
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
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = cfg or McConfig(samples=100_000)
    dmodel = FadingModel(shape, snr, k=k)
    cmodel = FadingModel(shape, inr, k=k)

    def steps(rng: np.random.Generator, size: int):
        # |g_d|^2 alternates between two arrays: e_l reads the previous symbol's
        wd_prev, wd, wc, d, e = (np.empty(size) for _ in range(5))
        dmodel.sample_power(rng, size, out=wd_prev)
        np.add(1.0, wd_prev, out=d)
        yield d, 0.0  # X(0) = 0: the first symbol has no trailing tap
        for _ in range(1, n):
            dmodel.sample_power(rng, size, out=wd)
            cmodel.sample_power(rng, size, out=wc)
            np.add(1.0, wd, out=d)
            d += wc
            np.multiply(wc, wd_prev, out=e)
            yield d, e
            wd_prev, wd = wd, wd_prev

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        log2k = _log2_det(steps(rng, size))
        log2k /= n
        return log2k

    return estimate_draws(draw, cfg, (_AF_ISI,))
