"""Print the ROADMAP baseline tables from one traced certify run.

    FFIC_THREADS=1 python3 perfbench/run.py --workload certify --seed 1 --seconds 1 --trace 1
    python3 perfbench/tables.py [perfbench/traces/certify.jsonl.gz]

Table 1 is the time of one region build per kind at SNR 1e3, alpha = 0.5
(the median build of that kind at that grid point; the 2-sample builds
that static_equivalent makes on the plug-in channel are left out), with
its Monte Carlo samples per expectation and the time scaled linearly to
1M samples.
Table 2 is the cost of each sampling and estimation layer per 1M draws.
"""

from __future__ import annotations

import gzip
import json
import statistics
import sys
from pathlib import Path

from tracer import TERM_BUILDERS, Span, self_seconds

DEFAULT = Path(__file__).resolve().parent / "traces" / "certify.jsonl.gz"
SNR, INR = 1e3, 1e3 ** 0.5
# self time of the sampler is phase synthesis; of the estimator, integrand,
# reduction and substream set-up
WITH_SELF = ("fading.ComplexGainSampler.sample", "mc.estimate_expectation")


def read_spans(path: Path) -> dict[str, list[Span]]:
    """Spans grouped by run id (one group per traced pass)."""
    runs: dict[str, list[Span]] = {}
    with gzip.open(path, "rt") as fh:
        for line in fh:
            s = Span(**json.loads(line))
            runs.setdefault(s.run_id, []).append(s)
    return runs


def main(argv: list[str]) -> int:
    path = Path(argv[0]) if argv else DEFAULT
    builds: dict[str, list[float]] = {}
    samples: dict[str, set[int]] = {}
    layer_s: dict[str, float] = {}
    layer_draws: dict[str, float] = {}
    per_call: dict[str, list[float]] = {}
    for spans in read_spans(path).values():
        own = self_seconds(spans)
        by_id = {s.id: s for s in spans}
        for s in spans:
            short = s.name.removeprefix("regions.")
            parent = by_id.get(s.parent)
            plug_in = parent is not None and parent.name == "regions.static_equivalent"
            if (short in TERM_BUILDERS and not plug_in and s.attrs.get("snr") == SNR
                    and abs(s.attrs.get("inr", 0.0) - INR) < 1e-9):
                builds.setdefault(short, []).append(s.seconds)
            if s.name == "mc.estimate_expectation" and parent is not None:
                samples.setdefault(parent.name.removeprefix("regions."), set()).add(
                    s.attrs["draws"])
            rows = [(s.name, s.seconds)]
            if s.name in WITH_SELF:
                rows.append((s.name + " (self)", own[s.id]))
            for name, secs in rows if "draws" in s.attrs else ():
                layer_s[name] = layer_s.get(name, 0.0) + secs
                layer_draws[name] = layer_draws.get(name, 0.0) + s.attrs["draws"]
            if s.name in ("regions.region_gap", "regions.RateRegion.vertices"):
                per_call.setdefault(s.name, []).append(s.seconds)

    print(f"Region build at SNR {SNR:g}, INR {INR:.4g} (alpha = 0.5), from {path}")
    print("| region | builds | samples | time | time at 1M samples |")
    print("| --- | --- | --- | --- | --- |")
    for kind in TERM_BUILDERS:
        if kind not in builds:
            continue
        t = statistics.median(builds[kind])
        n = max(samples[kind])
        print(f"| `{kind}` | {len(builds[kind])} | {n} | {t * 1e3:.1f} ms | {t * 1e6 / n:.3f} s |")
    print()
    print("Per-layer cost per 1M draws")
    print("| layer | time per 1M draws |")
    print("| --- | --- |")
    for name in sorted(layer_s):
        print(f"| `{name}` | {layer_s[name] / layer_draws[name] * 1e9:.1f} ms |")
    for name, secs in sorted(per_call.items()):
        print(f"| `{name}` per call | {statistics.median(secs) * 1e6:.0f} us |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
