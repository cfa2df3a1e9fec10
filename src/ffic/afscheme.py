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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fading import ComplexGainSampler, FadingModel
from .mc import EstimateResult, McConfig, _estimate_draws, estimate_expectation, substream
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
_AF_PENTAGON = 45
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
    ``params`` carries (a, b) when the sequence is the Toeplitz plug-in.
    """

    log2_values: np.ndarray
    params: tuple[float, float] | None = None

    @property
    def values(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp2(self.log2_values)

    @property
    def growth(self) -> np.ndarray:
        steps = np.arange(1, len(self.log2_values) + 1, dtype=float)
        return self.log2_values / steps


def _det_ratio(ratio, d, e):
    """One step of |K(i)| = d |K(i-1)| - e |K(i-2)|, on ratio = |K(i-1)|/|K(i-2)|.

    Returns |K(i)|/|K(i-1)|, elementwise for arrays of draws.  A NaN, as
    from inf - inf once the powers overflow, fails the check too.
    """
    ratio = d - e / ratio
    if not np.min(ratio) > 0.0:
        raise ValueError(
            "non-positive or NaN determinant ratio in a two-tap recursion; "
            "the covariance construction is broken or the powers overflow"
        )
    return ratio


def ky1_dets(draw: PhaseDraw, inr: float, n: int | None = None) -> DetSequence:
    """Determinant sequence of receiver 1's covariance for one gain draw.

    |K(1)| = 1 + |g11(1)|^2 + |g21(1)|^2 and for i >= 2

        |K(i)| = d_i |K(i-1)| - e_i |K(i-2)|,
        d_i = |g11(i)|^2 + |g21(i)|^2 (|g12(i-1)|^2 + 1)/(1+INR) + 1,
        e_i = |g11(i-1)|^2 |g21(i)|^2 |g12(i-1)|^2 / (1+INR).
    """
    n = draw.phases if n is None else n
    if not 1 <= n <= draw.phases:
        raise ValueError(f"n must be in [1, {draw.phases}]")
    w11 = np.abs(draw.g11) ** 2
    w21 = np.abs(draw.g21) ** 2
    w12 = np.abs(draw.g12) ** 2
    s = 1.0 + inr

    log2k = np.empty(n)
    ratio = 1.0 + w11[0] + w21[0]
    log2k[0] = np.log2(ratio)
    for i in range(1, n):
        d = w11[i] + w21[i] * (w12[i - 1] + 1.0) / s + 1.0
        e = w11[i - 1] * w21[i] * w12[i - 1] / s
        ratio = _det_ratio(ratio, d, e)
        log2k[i] = log2k[i - 1] + np.log2(ratio)
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
    so each phase consumes one power draw per relevant link.
    """
    s = 1.0 + ch.inr2

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        w11 = ch.g11.sample_power(rng, size)
        w21 = ch.g21.sample_power(rng, size)
        log2k = np.log2(1.0 + w11 + w21)
        cond = np.log2(w21 + 1.0) if conditional else 0.0
        ratio = 1.0 + w11 + w21
        w11_prev = w11
        w12_prev = ch.g12.sample_power(rng, size)
        for _ in range(1, n):
            w11 = ch.g11.sample_power(rng, size)
            w21 = ch.g21.sample_power(rng, size)
            d = w11 + w21 * (w12_prev + 1.0) / s + 1.0
            e = w11_prev * w21 * w12_prev / s
            ratio = _det_ratio(ratio, d, e)
            log2k += np.log2(ratio)
            if conditional:
                cond += np.log2(w21 / s + 1.0)
            w11_prev = w11
            w12_prev = ch.g12.sample_power(rng, size)
        return (log2k - cond) / n

    return _estimate_draws(draw, cfg, (family,))


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
    log2k = np.empty(n)
    ratio = float(a)
    log2k[0] = math.log2(ratio)
    b2 = b * b
    for i in range(1, n):
        ratio = _det_ratio(ratio, a, b2)
        log2k[i] = log2k[i - 1] + math.log2(ratio)
    dets = DetSequence(log2_values=log2k, params=(a, b))
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
        return np.maximum(np.log2(w / (1.0 + inr)), 0.0)

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


def nphase_outer_region(ch: ChannelSpec, cfg: McConfig | None = None):
    """Symmetric feedback outer bound relaxed to a pentagon.

    Three constraints: per-user full-power bounds and one sum bound; its
    two non-trivial corners are what the n-phase scheme is measured
    against.
    """
    if not ch.is_symmetric():
        raise ValueError("the pentagon outer bound is defined for symmetric channels")
    cfg = cfg or McConfig()
    links = [ComplexGainSampler(ch.g11), ComplexGainSampler(ch.g21)]
    full = estimate_expectation(_full, links, cfg, stream_key=(_AF_PENTAGON, 0))
    ratio = estimate_expectation(_ratio, links, cfg, stream_key=(_AF_PENTAGON, 1))
    coh = estimate_expectation(
        lambda gd, gc: np.log2(
            _m2(gd) + _m2(gc) + 2.0 * np.sqrt(_m2(gd) * _m2(gc)) + 1.0
        ),
        links, cfg, stream_key=(_AF_PENTAGON, 2),
    )
    sum_se = math.hypot(ratio.stderr, coh.stderr)
    return RateRegion(
        kind="nphase_outer_sym",
        constraints=(
            RateConstraint(1, 0, full.mean, full.stderr, "nphase_outer_sym1"),
            RateConstraint(0, 1, full.mean, full.stderr, "nphase_outer_sym2"),
            RateConstraint(1, 1, ratio.mean + coh.mean, sum_se, "nphase_outer_sym3"),
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
    if not ch.is_symmetric():
        raise ValueError("corner analysis is defined for symmetric channels")
    cfg = cfg or McConfig()
    snr, inr = ch.snr1, ch.inr1
    links = [ComplexGainSampler(ch.g11), ComplexGainSampler(ch.g21)]
    full = estimate_expectation(_full, links, cfg, stream_key=(_AF_CORNER, 0))
    ratio = estimate_expectation(_ratio, links, cfg, stream_key=(_AF_CORNER, 1))
    cross = estimate_expectation(
        lambda gd, gc: np.log2(
            1.0 + 2.0 * np.sqrt(_m2(gd) * _m2(gc)) / (1.0 + _m2(gd) + _m2(gc))
        ),
        links, cfg, stream_key=(_AF_CORNER, 2),
    )
    r2 = r2_rate(ch, cfg)

    outer_r1 = full.mean
    outer_r2 = ratio.mean + cross.mean
    ach_r1 = math.log2(1.0 + snr + inr) - 2.0 - 3.0 * c_jg
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
    cfg = cfg or McConfig(samples=100_000)
    dmodel = FadingModel(shape, snr, k=k)
    cmodel = FadingModel(shape, inr, k=k)

    def draw(rng: np.random.Generator, size: int) -> np.ndarray:
        wd_prev = dmodel.sample_power(rng, size)
        log2k = np.log2(1.0 + wd_prev)  # first symbol has no trailing tap
        ratio = 1.0 + wd_prev
        for _ in range(1, n):
            wd = dmodel.sample_power(rng, size)
            wc = cmodel.sample_power(rng, size)
            ratio = _det_ratio(ratio, 1.0 + wd + wc, wc * wd_prev)
            log2k += np.log2(ratio)
            wd_prev = wd
        return log2k / n

    return _estimate_draws(draw, cfg, (_AF_ISI,))
