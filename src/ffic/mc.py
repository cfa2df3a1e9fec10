"""Seeded, reproducible Monte Carlo expectation engine.

Estimates ``E[f(g_1, ..., g_m)]`` for a function of up to four independent
link draws, each a power W = |g|^2 or a complex gain g, whichever its
sampler returns.  The reproducibility contract is: a fixed
``(seed, partitions, samples)`` triple produces bit-identical results no
matter how the partitions are scheduled, because

* partition ``p`` draws from a counter-based substream (Philox) derived
  deterministically from ``(seed, stream_key, p)``, and
* partial sums are combined with a fixed-order pairwise reduction, which
  also bounds floating accumulation error at 10^6 .. 10^8 samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = ["McConfig", "EstimateResult", "estimate_expectation", "substream"]


@dataclass(frozen=True)
class McConfig:
    """Sampling budget and seed for one expectation."""

    samples: int = 1_000_000
    seed: int = 42
    partitions: int = 1

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 1 <= self.partitions <= self.samples:
            raise ValueError(
                f"partitions must be in [1, samples], got {self.partitions}"
            )
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")

    def with_samples(self, samples: int) -> "McConfig":
        return replace(self, samples=samples, partitions=min(self.partitions, samples))


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo (or quadrature) estimate of one expectation.

    ``stderr`` is sample standard deviation / sqrt(samples); it is zero
    exactly when the integrand is constant, and zero by convention for
    quadrature results (which are accurate to the stated 1e-6 tolerance).
    """

    mean: float
    stderr: float
    samples: int
    seed: int


def substream(seed: int, key: Sequence[int] = ()) -> np.random.Generator:
    """Counter-based generator keyed by ``(seed, key)``.

    Distinct keys give statistically independent streams; the mapping is a
    pure function of its arguments, which is what makes partitioned runs
    auditable and scheduling-independent.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


def _partition_sizes(total: int, parts: int) -> list[int]:
    base, extra = divmod(total, parts)
    return [base + (1 if p < extra else 0) for p in range(parts)]


def _pairwise_moments(moments: Sequence[tuple]) -> tuple:
    """Fixed-order pairwise reduction (independent of partition count parity)
    of (count, sum, sum of squared deviations), merged by Chan-Golub-LeVeque."""
    if len(moments) == 1:
        return moments[0]
    mid = len(moments) // 2
    na, sa, m2a = _pairwise_moments(moments[:mid])
    nb, sb, m2b = _pairwise_moments(moments[mid:])
    delta = sb / nb - sa / na
    return na + nb, sa + sb, m2a + m2b + delta * delta * (na * nb / (na + nb))


class _MomentAccumulator:
    """Streaming mean/stderr over partitions with a fixed-order reduction.

    Each partition contributes its count, sum and sum of squared
    deviations from its own mean; these merge pairwise, so the variance
    stays accurate when the mean dwarfs the spread.  A constant integrand
    is detected exactly so its estimate is the value itself with stderr 0;
    summing would otherwise leave ~1e-9 rounding residue at sample counts
    that are not powers of two.
    """

    def __init__(self):
        self._moments: list[tuple[int, float, float]] = []
        self._consts: list[float | None] = []

    def add(self, out: np.ndarray) -> None:
        total = float(np.sum(out))  # numpy's reduction is itself pairwise
        dev = out - total / out.size
        dev *= dev
        self._moments.append((out.size, total, float(np.sum(dev))))
        self._consts.append(float(out[0]) if np.all(out == out[0]) else None)

    def result(self, n_total: int, seed: int) -> EstimateResult:
        first = self._consts[0]
        if first is not None and all(c == first for c in self._consts):
            return EstimateResult(first, 0.0, n_total, seed)
        _, total, m2 = _pairwise_moments(self._moments)
        var = m2 / (n_total - 1) if n_total > 1 else 0.0
        return EstimateResult(total / n_total, math.sqrt(var / n_total), n_total, seed)


def _estimate_draws(
    draw: Callable[[np.random.Generator, int], np.ndarray],
    cfg: McConfig,
    stream_key: Sequence[int] = (),
) -> EstimateResult:
    """Mean and CLT standard error of the per-draw values ``draw(rng, n)``.

    The one partition loop of the package: partition ``p`` of
    ``cfg.partitions`` passes ``substream(seed, stream_key + (p,))`` and its
    size to ``draw``, which returns that many real values.
    """
    acc = _MomentAccumulator()
    for p, n in enumerate(_partition_sizes(cfg.samples, cfg.partitions)):
        acc.add(draw(substream(cfg.seed, tuple(stream_key) + (p,)), n))
    return acc.result(cfg.samples, cfg.seed)


def estimate_expectation(
    f: Callable[..., np.ndarray],
    samplers: Sequence,
    cfg: McConfig,
    stream_key: Sequence[int] = (),
) -> EstimateResult:
    """Unbiased estimate of ``E[f(g_1, ..., g_m)]`` with CLT standard error.

    ``f`` must be vectorized: it receives one array per sampler (all of
    the same length) and returns a real array of per-draw values.
    ``samplers`` are objects with ``sample(rng, size)``, between one and
    four of them; each returns either powers (a ``FadingModel``) or
    complex gains (a ``ComplexGainSampler``).  Each partition draws from
    ``substream(seed, stream_key + (p,))``, sampler by sampler in list
    order.

    Raises ``ValueError`` if the integrand produces a non-finite value;
    the offending draw is reported.
    """
    m = len(samplers)
    if not 1 <= m <= 4:
        raise ValueError(f"need between 1 and 4 gain samplers, got {m}")

    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        draws = [s.sample(rng, n) for s in samplers]
        out = np.asarray(f(*draws), dtype=np.float64)
        if out.shape != (n,):
            raise ValueError(
                f"integrand must return one real value per draw, got shape {out.shape}"
            )
        bad = ~np.isfinite(out)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(
                f"non-finite integrand value {out[i]} in substream "
                f"{rng.bit_generator.seed_seq.spawn_key}, draw {i}, "
                f"link draws {tuple(d[i].item() for d in draws)}"
            )
        return out

    return _estimate_draws(draw, cfg, stream_key)
