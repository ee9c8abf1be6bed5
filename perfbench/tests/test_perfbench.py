"""Tests of the benchmark itself: tracing changes no result, every workload
runs and passes at a tiny size, and the output of `run.py` follows
BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from hilb import generating_series, load_ring, perverse_filtration, preset, save_ring  # noqa: E402
from hilb import surface_ring, wreath_ring  # noqa: E402
from hostspeed import Sampler  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def fresh(name: str):
    """A copy of a preset with empty memos."""
    return load_ring(save_ring(preset(name)))


def test_wrapped_and_unwrapped_reports_are_byte_equal():
    plain = wreath_ring.check_associativity(fresh("a0"), 2).to_json()
    tracer = Tracer()
    tracer.install()
    try:
        traced = wreath_ring.check_associativity(fresh("a0"), 2).to_json()
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.stats["wreath_ring.check_associativity"].calls == 1
    assert tracer.stats["wreath_ring.cup"].calls > 0


def test_every_binding_is_wrapped_and_restored():
    original = surface_ring.diagonal_push
    tracer = Tracer()
    tracer.install()
    try:
        assert perverse_filtration.diagonal_push is surface_ring.diagonal_push
        assert wreath_ring.diagonal_push is surface_ring.diagonal_push
        assert surface_ring.diagonal_push is not original
        assert perverse_filtration.cup is wreath_ring.cup
        perverse_filtration.check_multiplicativity(fresh("d4"), 3)
    finally:
        tracer.uninstall()
    assert surface_ring.diagonal_push is original
    assert perverse_filtration.diagonal_push is original
    # the multiplicativity kernel calls diagonal_push through its own binding
    assert tracer.stats["surface_ring.diagonal_push"].calls > 0


def test_generators_are_timed_over_their_iteration():
    ring = fresh("a0")
    tracer = Tracer()
    tracer.install()
    try:
        generating_series.brute_force_poincare(ring, 4)
    finally:
        tracer.uninstall()
    reps = tracer.stats["wreath_ring.iter_orbit_reps"]
    brute = tracer.stats["generating_series.brute_force_poincare"]
    assert reps.calls == 1
    assert reps.incl_s > 0.5 * brute.incl_s
    # self times partition the outermost span
    assert tracer.self_total() == pytest.approx(brute.incl_s, rel=1e-6)


def test_host_speed_sampling_changes_no_report():
    plain = wreath_ring.check_associativity(fresh("a0"), 2).to_json()
    sampler = Sampler()
    sampler.start()
    try:
        sampled = wreath_ring.check_associativity(fresh("a0"), 2).to_json()
        probe_s, speed = sampler.section(0)
        empty = sampler.section(sampler.mark())
    finally:
        sampler.stop()
    assert sampled == plain
    assert probe_s == pytest.approx(sum(sampler.samples))
    assert speed > 0
    # a section without samples gets a probe's speed and no probe time
    assert empty[0] == 0.0 and empty[1] > 0


def _child(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", "3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "ready"
    return json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_workload_passes_at_a_tiny_size(workload):
    result = _child(workload, 0)
    assert result["checks"]
    assert all(c["passed"] and c["error"] is None for c in result["checks"])
    assert all(0 < c["coverage"] <= 1 for c in result["checks"])
    if workload == "sampled":
        assert all("sampled" in c["mode"] for c in result["checks"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_reports_every_layer(workload):
    layers = _child(workload, 1)["layers"]
    for module, names in TARGETS.items():
        for name in names:
            for metric in ("calls", "self_s", "incl_s"):
                assert f"{module}.{name}.{metric}" in layers
    assert layers["trace.self_share"] >= 0.9


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_reports_the_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "series",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }


def test_runner_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mult",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
