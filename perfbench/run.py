"""ffic benchmark: one workload, timed end to end, or traced layer by layer.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Runs from the root of a checkout and imports ``ffic`` from its ``src/``.
Passes of the workload repeat for ``--seconds``; every pass after the
first must reproduce the first one's outputs bit for bit. The last line
of stdout is one JSON object: ``correct``, ``attempted`` and ``failed``
count correctness checks, and ``metrics`` holds the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``) named in
BENCHMARK.json. The exit code is 0 only when every check passed; 2 when
``ffic`` cannot be imported, with no result printed. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
TRACE_DIR = HERE / "traces"
WORKLOAD_NAMES = ("certify", "tight", "recursion")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
REFERENCE_SEEDS = range(1, 33)


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pin_threads() -> int:
    """Cap native thread pools at 1 and ffic's grid pool at nproc; return the cap."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    n = nproc()
    threads = max(1, min(int(os.environ.get("FFIC_THREADS", n)), n))
    os.environ["FFIC_THREADS"] = str(threads)
    return threads


def load():
    """Import ffic from this checkout's src/ and return the workloads module."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import ffic

    if Path(ffic.__file__).resolve().parent != SRC / "ffic":
        raise ImportError(f"ffic was imported from {ffic.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int) -> float:
    """Process start through `import ffic` and building the inputs, in a fresh process."""
    t0 = time.time_ns()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return (int(proc.stdout.split()[-1]) - t0) / 1e9


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def timed_pass(work, tracer=None):
    """One pass of the workload: (wall s, cpu s, outputs)."""
    ctx = tracer.installed() if tracer else contextlib.nullcontext()
    with ctx:
        c0, t0 = _cpu(), time.perf_counter()
        out = work.run()
        t1, c1 = time.perf_counter(), _cpu()
    return t1 - t0, c1 - c0, out


class Checks:
    """Counts correctness checks; remembers the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def reference_checks(checks: Checks, cert: dict, ref: dict, k_sigma: float) -> None:
    """A certified value may differ from its reference by k_sigma times the larger
    of its reported stderr and the reference's seed-to-seed SD, plus the
    quadrature tolerance (for values without Monte Carlo noise)."""
    missing = sorted(set(ref) ^ set(cert))
    checks.add(f"certified values match the reference names (differ: {missing[:5]})",
               not missing)
    for name, (value, se) in cert.items():
        if name not in ref:
            continue
        ref_value, ref_sd = ref[name]
        tol = k_sigma * max(se or 0.0, ref_sd) + 1e-6
        checks.add(f"{name} = {value!r} within {tol:.3g} of reference {ref_value!r}",
                   abs(value - ref_value) <= tol)


def load_reference(workload) -> dict:
    entry = json.loads(REFERENCE.read_text())[workload.name]
    if entry["samples"] != workload.samples:
        raise ValueError(f"reference for {workload.name} was made at "
                         f"{entry['samples']} samples, workload uses {workload.samples}")
    return entry["values"]


def provenance(args, threads: int, samples: int) -> dict:
    import numpy
    import scipy

    import ffic

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "ffic").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "samples": samples,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": nproc(), "ffic_threads": threads,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "ffic": ffic.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def write_spans(name: str, tracers) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"{name}.jsonl.gz"
    with gzip.open(path, "wt") as fh:
        for tracer in tracers:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
    return path


# ---------------------------------------------------------------------------
# Run modes
# ---------------------------------------------------------------------------


def run_benchmark(args, wl, threads: int) -> int:
    from tracer import Tracer, layer_metrics, median_metrics

    cls = wl.WORKLOADS[args.workload]
    checks = Checks()
    setup = [] if args.trace else [setup_seconds(args.workload, args.seed)
                                   for _ in range(SETUP_REPEATS)]
    work = cls(args.seed)
    print("provenance " + json.dumps(provenance(args, threads, work.samples), sort_keys=True))

    plain, traced, tracers = [], [], []
    first, max_stderr = None, 0.0
    start = time.perf_counter()
    i = 0
    while True:
        # traced runs alternate plain and traced passes; overhead is their difference
        tracer = Tracer(f"{args.workload}:seed={args.seed}:pass={i}") if args.trace and i % 2 else None
        try:
            wall, cpu, out = timed_pass(work, tracer)
        except Exception as exc:  # an exception is a failed check
            traceback.print_exc()
            checks.add(f"pass {i} raised {exc!r}", False)
            break
        (traced if tracer else plain).append((wall, cpu))
        if tracer:
            tracers.append(tracer)
        if first is None:
            first = repr(out)
            try:
                cert, found = work.evaluate(out)
                for label, ok in found:
                    checks.add(label, ok)
                reference_checks(checks, cert, load_reference(work), wl.K_SIGMA)
                max_stderr = max(se for _, se in cert.values() if se is not None)
            except Exception as exc:
                traceback.print_exc()
                checks.add(f"evaluating the outputs raised {exc!r}", False)
        else:
            checks.add(f"pass {i} ({'traced' if tracer else 'plain'}) reproduces pass 0 "
                       "bit for bit", repr(out) == first)
        i += 1
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break

    if args.trace:
        per_pass = []
        for tracer, (wall, _) in zip(tracers, traced):
            m = layer_metrics(tracer.spans, threads)
            m["trace.wall_s"] = wall
            per_pass.append(m)
        metrics = median_metrics(per_pass) if per_pass else {}
        if metrics:
            metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                           - statistics.median(w for w, _ in plain))
        for tracer in tracers:
            seen = {s.name for s in tracer.spans}
            for layer in cls.layers:
                checks.add(f"traced pass recorded {layer}", layer in seen)
        if tracers:
            print(f"spans written to {write_spans(args.workload, tracers)}")
    else:
        metrics = {
            "wall_s": statistics.median(w for w, _ in plain) if plain else 0.0,
            "setup_s": statistics.median(setup),
            "cpu_s": statistics.median(c for _, c in plain) if plain else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "max_stderr_bits": max_stderr,
        }

    declared = {m["name"]: m["unit"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]}
    checks.add("every declared metric was measured", set(declared) <= set(metrics))
    result = {name: {"value": metrics.get(name, 0.0), "unit": unit}
              for name, unit in declared.items()}

    for label in checks.failures:
        print(f"FAILED: {label}", file=sys.stderr)
    print(f"passes {len(plain)} plain + {len(traced)} traced")
    for name, m in result.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    failed = len(checks.failures)
    print(f"fail_frac {failed / max(checks.attempted, 1):.6g} failed/attempted")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": max(checks.attempted, 1),
                      "failed": failed, "metrics": result}))
    return 0 if correct else 1


def write_reference(args, wl) -> int:
    """Record each certified value's mean and seed-to-seed spread over REFERENCE_SEEDS."""
    cls = wl.WORKLOADS[args.workload]
    runs = []
    for seed in REFERENCE_SEEDS:
        work = cls(seed)
        cert, found = work.evaluate(work.run())
        bad = [label for label, ok in found if not ok]
        if bad:
            print(f"seed {seed}: checks failed: {bad}", file=sys.stderr)
            return 1
        runs.append(cert)
    values = {
        name: [statistics.fmean(r[name][0] for r in runs),
               statistics.stdev(r[name][0] for r in runs)]
        for name in runs[0]
    }
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    ref[cls.name] = {"samples": cls.samples, "seeds": [REFERENCE_SEEDS.start,
                                                       REFERENCE_SEEDS.stop - 1],
                     "values": values}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(values)} reference values for {cls.name} to {REFERENCE}")
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    codes = []
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        codes.append(subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)]).returncode)
    return max(codes)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate reference.json for the workload")
    args = p.parse_args(argv)

    threads = pin_threads()
    if args.workload == "all":
        return run_all(args)
    try:
        wl = load()
    except ImportError as exc:
        print(f"error: cannot import ffic from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        wl.WORKLOADS[args.workload](args.seed)
        print(time.time_ns())
        return 0
    if args.write_reference:
        return write_reference(args, wl)
    return run_benchmark(args, wl, threads)


if __name__ == "__main__":
    sys.exit(main())
