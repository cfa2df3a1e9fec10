"""In-memory span tracer for the ffic benchmark.

Spans are recorded from the benchmark's side only: ``Tracer.installed()``
wraps the public functions of ``ffic.fading``, ``ffic.mc``,
``ffic.regions``, ``ffic.afscheme`` and ``ffic.cli`` (plus a few methods)
at every module that binds them, and puts the originals back on exit.
Nothing under ``src/`` knows it is being traced, and an uninstalled tracer
costs nothing.

A span is ``(id, name, start_ns, end_ns, parent, thread, run_id, attrs)``.
``cli._parallel_map`` is wrapped so that work running on its pool threads
is parented to the ``cli.main`` span that started the pool
(``ThreadPoolExecutor`` does not carry context across threads); every
item it runs gets a ``cli.pool_item`` span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import statistics
import sys
import threading
import time
from typing import Callable, NamedTuple

MODULES = ("fading", "mc", "regions", "afscheme", "cli")
REGION_BUILDERS = (
    "nofb_inner", "nofb_outer", "nofb_achievable", "fb_inner", "fb_outer",
    "imac_regions", "static_equivalent", "symmetric_sweep",
)
AFSCHEME_FNS = (
    "r1_rate", "ky1_growth", "isi_achievable_rate", "nphase_corner_gap",
    "r2_rate", "tridiag_growth", "cancellation_check",
)
# Builders that evaluate their own constraint terms (static_equivalent and
# symmetric_sweep delegate to these).
TERM_BUILDERS = REGION_BUILDERS[:6]


class Span(NamedTuple):
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    thread: int
    run_id: str
    attrs: dict

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size_attrs(args, kwargs) -> dict:
    # sample(self, rng, size) and sample_power(self, rng, size)
    return {"draws": int(_arg(args, kwargs, 2, "size"))}


def _estimate_attrs(args, kwargs) -> dict:
    # estimate_expectation(f, samplers, cfg, stream_key=())
    return {"draws": int(_arg(args, kwargs, 2, "cfg").samples)}


def _channel_attrs(args, kwargs) -> dict:
    ch = args[0] if args else kwargs.get("ch")
    if hasattr(ch, "snr1"):
        return {"snr": ch.snr1, "inr": ch.inr1}
    return {}


# (module, class, method, span attributes)
METHODS = (
    ("fading", "ComplexGainSampler", "sample", _size_attrs),
    ("fading", "FadingModel", "sample_power", _size_attrs),
    ("fading", "TabulatedPdf", "sample", _size_attrs),
    ("regions", "RateRegion", "vertices", None),
)


class Tracer:
    """Collects the spans of one traced pass in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        # next() on itertools.count and list.append are single C calls, so
        # pool threads can record spans without a lock.
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, fn: Callable, attrs: Callable | None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            extra = attrs(args, kwargs) if attrs else {}
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                self.spans.append(Span(sid, name, t0, t1, parent,
                                       threading.get_ident(), self.run_id, extra))

        return traced

    @contextlib.contextmanager
    def _adopt(self, parent: int | None):
        """Parent this thread's next spans to ``parent`` (a span of another thread)."""
        stack = self._stack()
        depth = len(stack)
        if parent is not None:
            stack.append(parent)
        try:
            yield
        finally:
            del stack[depth:]

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced target for the duration of the block."""
        import ffic
        from ffic import cli

        mods = {name: getattr(ffic, name) for name in MODULES}
        # every loaded ffic module, so a binding added in a new module is patched too
        scan = [m for n, m in sys.modules.items() if n == "ffic" or n.startswith("ffic.")]
        patches: list[tuple[object, str, object]] = []

        def patch(owner, attr, original, wrapped):
            patches.append((owner, attr, original))
            setattr(owner, attr, wrapped)

        try:
            for short, cls_name, meth, attrs in METHODS:
                cls = getattr(mods[short], cls_name)
                fn = cls.__dict__[meth]
                patch(cls, meth, fn, self._record(f"{short}.{cls_name}.{meth}", fn, attrs))

            for short, mod in mods.items():
                for attr in getattr(mod, "__all__", None) or ["main"]:
                    fn = getattr(mod, attr)
                    if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                        continue  # classes, and names re-exported from elsewhere
                    wrapped = self._record(f"{short}.{attr}", fn, _target_attrs(short, attr))
                    bindings = [(m, a) for m in scan for a, v in vars(m).items() if v is fn]
                    for m, a in bindings:
                        patch(m, a, fn, wrapped)

            orig_map = cli._parallel_map
            pool_item = self._record("cli.pool_item", lambda fn, x: fn(x), None)

            def parallel_map(fn, items):
                stack = self._stack()
                parent = stack[-1] if stack else None

                def item(x):
                    with self._adopt(parent):
                        return pool_item(fn, x)

                return orig_map(item, items)

            patch(cli, "_parallel_map", orig_map, parallel_map)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def _target_attrs(short: str, attr: str):
    if (short, attr) == ("mc", "estimate_expectation"):
        return _estimate_attrs
    if short == "regions" and attr in REGION_BUILDERS:
        return _channel_attrs
    return None


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


def _union_ns(intervals: list[tuple[int, int]]) -> int:
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo >= reach:
            total, reach = total + hi - lo, hi
        elif hi > reach:
            total, reach = total + hi - reach, hi
    return total


def self_seconds(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[int, int]]] = {}
    by_id = {s.id: s for s in spans}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            lo, hi = max(s.start_ns, p.start_ns), min(s.end_ns, p.end_ns)
            if hi > lo:
                children.setdefault(s.parent, []).append((lo, hi))
    return {
        s.id: (s.end_ns - s.start_ns - _union_ns(children.get(s.id, []))) / 1e9
        for s in spans
    }


def layer_metrics(spans: list[Span], threads: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see perfbench/README.md)."""
    own = self_seconds(spans)
    by_id = {s.id: s for s in spans}
    names: dict[str, list[Span]] = {}
    for s in spans:
        names.setdefault(s.name, []).append(s)

    def calls(name):
        return float(len(names.get(name, ())))

    def busy(name):
        return sum((s.seconds for s in names.get(name, ())), 0.0)

    def self_busy(name):
        return sum((own[s.id] for s in names.get(name, ())), 0.0)

    def draws(name):
        return float(sum(s.attrs.get("draws", 0) for s in names.get(name, ())))

    m: dict[str, float] = {}

    def cs(name, with_self=True):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = busy(name)
        if with_self:
            m[f"{name}.self_s"] = self_busy(name)

    cs("fading.ComplexGainSampler.sample")
    m["fading.ComplexGainSampler.sample.draws"] = draws("fading.ComplexGainSampler.sample")
    cs("fading.FadingModel.sample_power", with_self=False)
    m["fading.FadingModel.sample_power.draws"] = draws("fading.FadingModel.sample_power")
    for name in ("fading.TabulatedPdf.sample", "fading.expected_log_shifted",
                 "fading.jensen_gap_numeric"):
        cs(name, with_self=False)

    est = "mc.estimate_expectation"
    cs(est)
    m[f"{est}.draws"] = draws(est)
    m[f"{est}.ns_per_draw"] = busy(est) / m[f"{est}.draws"] * 1e9 if m[f"{est}.draws"] else 0.0
    m["mc.substream.calls"] = calls("mc.substream")

    for b in REGION_BUILDERS:
        cs(f"regions.{b}")
    term_builders = {f"regions.{b}" for b in TERM_BUILDERS}
    direct = [s.parent for s in names.get(est, ())
              if s.parent in by_id and by_id[s.parent].name in term_builders]
    m["regions.estimates_per_build"] = len(direct) / len(set(direct)) if direct else 0.0
    cs("regions.region_gap", with_self=False)
    cs("regions.RateRegion.vertices", with_self=False)

    for fn in AFSCHEME_FNS:
        cs(f"afscheme.{fn}")
    m["afscheme.phase_draws"] = float(sum(
        s.attrs.get("draws", 0) for s in names.get("fading.FadingModel.sample_power", ())
        if s.parent in by_id and by_id[s.parent].name.startswith("afscheme.")
    ))

    cs("cli.main")
    main_s = busy("cli.main")
    m["cli.pool_busy_frac"] = busy("cli.pool_item") / (main_s * threads) if main_s else 0.0
    return m


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
