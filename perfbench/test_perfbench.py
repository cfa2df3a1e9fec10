"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Traced and plain passes must give bit-identical outputs, the tracer must
see every layer a workload declares and parent pool-thread spans to
``cli.main``, and a run must emit every metric BENCHMARK.json names, with
its unit.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

wl = run.load()
from tracer import Tracer  # noqa: E402  (needs the path set by run.load)

import ffic  # noqa: E402

TINY = 2_000
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_traced_pass_is_bit_identical_and_sees_every_layer(name):
    work = wl.WORKLOADS[name](seed=3, samples=TINY)
    _, _, plain = run.timed_pass(work)
    tracer = Tracer("test")
    _, _, traced = run.timed_pass(work, tracer)
    assert repr(traced) == repr(plain)

    assert set(work.layers) <= {s.name for s in tracer.spans}


def test_pool_thread_spans_are_parented_to_cli_main():
    tracer = Tracer("test")
    with tracer.installed():
        code, _ = wl._cli(["gap-check", "--kind", "nofb", "--samples", str(TINY)])
    assert code == 0
    by_id = {s.id: s for s in tracer.spans}
    (main,) = [s for s in tracer.spans if s.name == "cli.main"]
    assert any(s.thread != main.thread for s in tracer.spans)
    for s in tracer.spans:
        root = s
        while root.parent is not None:
            root = by_id[root.parent]
        assert root is main, f"{s.name} is not under cli.main"


def test_tracer_patches_every_binding_and_restores_it():
    bindings = [(m, "estimate_expectation")
                for m in (ffic, ffic.mc, ffic.fading, ffic.regions, ffic.afscheme)]
    bindings += [(ffic.cli, "fb_inner"), (ffic.cli, "r1_rate"),
                 (ffic.fading.ComplexGainSampler, "sample")]
    before = [getattr(owner, attr) for owner, attr in bindings]
    with Tracer("test").installed():
        assert all(getattr(o, a) is not f for (o, a), f in zip(bindings, before))
    assert all(getattr(o, a) is f for (o, a), f in zip(bindings, before))


def _result(args, cwd=run.ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_emits_every_declared_metric_with_its_unit(trace, section):
    code, lines = _result(["--workload", "tight", "--seed", "5", "--seconds", "0",
                           "--trace", str(trace)])
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    code, lines = _result(["--workload", "certify", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)
