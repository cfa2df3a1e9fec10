"""Seeded, reproducible Monte Carlo expectation engine.

Estimates ``E[f(g_1, ..., g_m)]`` for a function of up to four independent
link draws, each a power W = |g|^2 or a complex gain g, whichever its
sampler returns: one estimate per integrand, and several integrands on
the same samplers share each chunk's draws.  The reproducibility contract
is: a fixed ``(seed, samples)`` pair produces bit-identical results on any
number of threads, because

* the draws are cut into chunks of ``CHUNK`` draws (the last chunk holds
  the remainder), and chunk ``c`` draws from its own SFC64 generator,
  seeded by ``SeedSequence(entropy=seed, spawn_key=stream_key + (c,))``,
  and
* per-chunk moments are combined in chunk order by a fixed-order pairwise
  reduction, which also bounds floating accumulation error at
  10^6 .. 10^8 samples.

Scheduling independence needs no counter-based (seekable) generator such
as Philox: no chunk skips ahead into a shared stream, each builds its own
generator from its key, so the fast SFC64 serves as well.

The chunks of one estimate run on up to ``thread_budget()`` threads, at
most one per full chunk: numpy's samplers and ufuncs release the GIL, and
each chunk owns its generator.  That budget is the process's only one,
shared with the CLI's grid pool: ``FFIC_THREADS`` if set, else the CPUs
in the affinity mask.  Code already running on a ``parallel_map`` thread
runs its chunks inline, so pools never nest and nothing is
oversubscribed.

Importing the module pins glibc's mmap and trim thresholds (``mallopt``)
at 4 MiB and 8 MiB, well above a chunk's arrays, so that every chunk's
arrays come from a warm heap instead of freshly faulted pages; a libc
without ``mallopt`` is left as it is.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["McConfig", "EstimateResult", "estimate_expectation", "substream"]

# Draws per chunk: the unit of the stream layout, of the moment merge and
# of thread scheduling.  It fixes the layout, so changing it changes every
# estimate.
CHUNK = 2**15

# glibc's malloc maps a block above its mmap threshold afresh, and hands a
# free heap top above its trim threshold back to the system; both
# thresholds start at 128 KiB and rise to the size of any mapped block
# freed.  A chunk's arrays (256 KiB of powers, 512 KiB of complex gains)
# sit at that edge, so whether every chunk faulted its arrays in afresh
# depended on the process's history: 55k-103k minor faults per pass of the
# benchmark's `tight` or `certify` workload on one thread.  Pinned above
# eight chunks of complex gains, the thresholds keep them in the heap.
_MMAP_THRESHOLD = 8 * 16 * CHUNK  # 4 MiB: eight chunks of complex gains
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # mallopt parameters of glibc's malloc.h


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds; a libc without mallopt is left alone."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_pin_heap_thresholds()


@dataclass(frozen=True)
class McConfig:
    """Sampling budget and seed for one expectation."""

    samples: int = 1_000_000
    seed: int = 42

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a non-negative 64-bit integer")


@dataclass(frozen=True)
class EstimateResult:
    """Monte Carlo (or deterministic) estimate of one expectation.

    With ``samples > 0``, ``stderr`` is sample standard deviation /
    sqrt(samples), and zero exactly when the integrand is constant.  With
    ``samples=0``, the default, nothing was drawn and ``stderr`` is the
    stated error bound: density evolution's (``afscheme``) carries its grid
    and stationarity error, and 0 means exact, or, for a log-rule result
    (``fading``), measured within about 1e-14 bits.
    """

    mean: float
    stderr: float
    samples: int = 0
    seed: int = 0


def substream(seed: int, key: Sequence[int] = ()) -> np.random.Generator:
    """SFC64 generator seeded by ``SeedSequence(entropy=seed, spawn_key=key)``.

    Distinct keys give statistically independent streams.  The mapping is a
    pure function of its arguments, which makes chunked runs auditable and
    scheduling-independent without a counter-based generator: each chunk
    seeds its own generator from its key instead of skipping ahead in a
    shared stream.  Bit-identity holds within one numpy version's SFC64 and
    samplers.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.SFC64(ss))


def thread_budget() -> int:
    """Threads this process may use: ``FFIC_THREADS`` if set, else the CPUs
    in its affinity mask."""
    raw = os.environ.get("FFIC_THREADS")
    if raw is not None:
        return max(1, int(raw))
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool_thread = threading.local()


def _mark_pool_thread() -> None:
    _pool_thread.active = True


def parallel_map(fn: Callable, items: Sequence, max_workers: int | None = None) -> list:
    """``[fn(x) for x in items]`` on up to ``thread_budget()`` threads.

    At most ``max_workers`` threads run (default: one per item).  Output
    order is input order, and an exception raised by ``fn`` is raised
    here.  On a thread of such a pool, and when one worker is all it may
    use, it runs inline on the calling thread.
    """
    workers = min(thread_budget(), len(items) if max_workers is None else max_workers)
    if workers <= 1 or getattr(_pool_thread, "active", False):
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers, initializer=_mark_pool_thread) as pool:
        return list(pool.map(fn, items))


def _chunk_moments(out: np.ndarray, links: Sequence[np.ndarray]) -> tuple:
    """(count, sum, sum of squared deviations from the chunk mean, the value
    if every draw equals it else None) of one chunk's per-draw values.

    Raises ``ValueError`` naming the first non-finite value and its link
    draws if the sum is not finite; only then are the values searched.
    """
    total = float(np.sum(out))  # numpy's reduction is itself pairwise
    if not math.isfinite(total):
        i = int(np.argmax(~np.isfinite(out)))
        if math.isfinite(out[i]):
            raise ValueError("non-finite sum of finite values")
        raise ValueError(f"non-finite value {out[i]} at draw {i}, "
                         f"link draws {tuple(d[i].item() for d in links)}")
    dev = out - total / out.size
    dev *= dev
    # A constant chunk has equal ends, so the full compare runs only then.
    const = float(out[0]) if out[0] == out[-1] and np.all(out == out[0]) else None
    return out.size, total, float(np.sum(dev)), const


def _pairwise_moments(moments: Sequence[tuple]) -> tuple:
    """Fixed-order pairwise reduction of (count, sum, sum of squared
    deviations), merged by Chan-Golub-LeVeque."""
    if len(moments) == 1:
        return moments[0]
    mid = len(moments) // 2
    na, sa, m2a = _pairwise_moments(moments[:mid])
    nb, sb, m2b = _pairwise_moments(moments[mid:])
    delta = sb / nb - sa / na
    return na + nb, sa + sb, m2a + m2b + delta * delta * (na * nb / (na + nb))


def _estimate(moments: Sequence[tuple], cfg: McConfig) -> EstimateResult:
    """The estimate from one integrand's per-chunk moments, in chunk order."""
    first = moments[0][3]
    if first is not None and all(m[3] == first for m in moments):
        return EstimateResult(first, 0.0, cfg.samples, cfg.seed)
    _, total, m2 = _pairwise_moments([m[:3] for m in moments])
    var = m2 / (cfg.samples - 1) if cfg.samples > 1 else 0.0
    return EstimateResult(total / cfg.samples, math.sqrt(var / cfg.samples),
                          cfg.samples, cfg.seed)


def estimate_expectation(
    f: Callable[..., np.ndarray] | Sequence[Callable[..., np.ndarray]],
    samplers: Sequence,
    cfg: McConfig | None = None,
    stream_key: Sequence[int] = (),
) -> EstimateResult | list[EstimateResult]:
    """Unbiased estimate of ``E[f(g_1, ..., g_m)]`` with CLT standard error.

    ``f`` must be vectorized: it receives one array per sampler (all of
    the same length) and returns a real array of per-draw values.
    ``samplers`` are objects with ``sample(rng, size)``, between one and
    four of them: a link's ``FadingModel`` returns its powers W, and a
    ``ComplexGainSampler`` wrapping one returns complex gains, for the
    integrands that read a phase.

    The one chunk loop of the package: chunk ``c`` draws ``CHUNK`` draws,
    or the remainder for the last chunk, from ``substream(seed, stream_key
    + (c,))``, sampler by sampler in list order.  Chunks run on
    ``parallel_map``, on at most one thread per full chunk, and each is
    reduced to its moments where it ran, so memory is bounded by ``CHUNK``
    draws per thread for any ``cfg.samples``.  The moments merge pairwise
    in chunk order, which keeps the variance accurate when the mean dwarfs
    the spread.  A constant integrand is detected exactly so its estimate
    is the value itself with stderr 0; summing would otherwise leave ~1e-9
    rounding residue at sample counts that are not powers of two.  As the
    package's only draws, it alone reads ``cfg=None`` as ``McConfig()``.

    Given a sequence of integrands, which must not write into their
    arguments, each chunk's draws are made once and the integrands are
    evaluated and reduced one at a time on them, so only one integrand's
    values are held at once: the result is one estimate per integrand, in
    order, each bit-identical to its lone estimate.

    A ``ValueError`` raised by a sampler or an integrand is re-raised
    naming the chunk's substream key, and so is a non-finite value, with
    its draw and link draws: every estimate gets that check, at no extra
    pass.  With a sequence, an integrand's error also names its index.
    """
    m = len(samplers)
    if not 1 <= m <= 4:
        raise ValueError(f"need between 1 and 4 gain samplers, got {m}")
    cfg = cfg or McConfig()
    key = tuple(stream_key)
    single = callable(f)
    fs = [f] if single else list(f)

    def chunk(c: int) -> list[tuple]:
        sub = key + (c,)
        where = f"in substream {sub}"
        try:
            n = min(CHUNK, cfg.samples - c * CHUNK)
            rng = substream(cfg.seed, sub)
            draws = [s.sample(rng, n) for s in samplers]
            moments = []
            for i, g in enumerate(fs):
                if not single:
                    where = f"in substream {sub}, row {i}"
                out = np.asarray(g(*draws), dtype=np.float64)
                if out.shape != (n,):
                    raise ValueError(
                        f"integrand must return one real value per draw, got shape {out.shape}"
                    )
                moments.append(_chunk_moments(out, draws))
                del out  # the next integrand's values are not held beside these
            return moments
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc

    # A thread pays for its start-up only with a full chunk of its own, so
    # an estimate of fewer than two full chunks runs inline.
    per_chunk = parallel_map(chunk, range(-(-cfg.samples // CHUNK)), cfg.samples // CHUNK)
    results = [_estimate(moments, cfg) for moments in zip(*per_chunk)]
    return results[0] if single else results
