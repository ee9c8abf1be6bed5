"""Benchmark runner: closed loop, one client, one cold process per pass.

    python3 perfbench/run.py --workload mult --seed 1 --seconds 30 --trace 0

Runs passes of one workload (see workloads.py and README.md) one after
another, each in a fresh interpreter started by this script, until
`--seconds` of passes have run (at least MIN_PASSES).  Never more than one
pass process runs beside this one.  The last line of standard output is
one JSON object: `correct`, `attempted` and `failed` count the workload's
checks over all passes, and `metrics` holds the end-to-end metrics
(`--trace 0`) or the per-layer metrics (`--trace 1`).  The lines before it
describe the run for a human reader.

`wall_s` and `setup_s` are medians over the run's untraced passes, each
pass's time corrected to a reference host speed: neighbours on a shared
host slow a pass down by up to 2.3x, and each pass samples how much while
it runs (hostspeed.py).  The raw times are printed too.

With `--trace 1` the passes alternate untraced and traced, so that the
tracing overhead (`trace.overhead_s`) is the difference of the fastest
traced and the fastest untraced pass, taken on the same host at the same
time, in raw seconds.

Exits 2 without a result when the library source is not beside it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
MIN_PASSES = 3
PASS_TIMEOUT_S = 60


def run_pass(workload: str, seed: int, traced: bool) -> dict | None:
    """One pass in a fresh interpreter; None when it crashed or timed out.

    `setup_s` runs from the process launch to its `ready` line: interpreter
    start, `import hilb` and preset construction.  The `corrected_` times
    are set-up and timed section at the reference host speed (hostspeed.py).
    """
    cmd = [sys.executable, str(CHILD), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or ready.strip() != "ready" or not out.strip():
        return None
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s
    result["corrected_setup_s"] = (setup_s - result["setup_probe_s"]) * result["setup_speed"]
    result["corrected_wall_s"] = (result["wall_s"] - result["probe_s"]) * result["speed"]
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until `seconds` are used; returns (untraced, traced, crashed).

    A pass (with `--trace 1`, an untraced and a traced pass) starts only if
    the previous one, repeated, would end within `seconds`, so a run never
    overshoots by more than the minimum number of passes.
    """
    kinds = (False, True) if trace else (False,)
    min_cycles = 1 if trace else MIN_PASSES
    plain: list[dict] = []
    traced: list[dict] = []
    crashed = 0
    began = perf_counter()
    for cycles in itertools.count(1):
        cycle_start = perf_counter()
        for kind in kinds:
            result = run_pass(workload, seed, kind)
            if result is None:
                crashed += 1
            else:
                (traced if kind else plain).append(result)
        now = perf_counter()
        if cycles >= min_cycles and now - began + (now - cycle_start) > seconds:
            return plain, traced, crashed


def git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def _fastest(results: list[dict]) -> dict:
    """The pass with the least wall time."""
    return min(results, key=lambda r: r["wall_s"])


def _task_medians(results: list[dict]) -> dict[str, float]:
    """Each task's median raw time over the passes."""
    labels = [label for label, _ in results[0]["tasks"]]
    return {label: statistics.median(dict(r["tasks"])[label] for r in results)
            for label in labels}


def end_to_end(plain: list[dict], passed_share: float) -> dict:
    checks = [c for r in plain for c in r["checks"]]
    return {
        "wall_s": (_median(plain, "corrected_wall_s"), "s"),
        "setup_s": (_median(plain, "corrected_setup_s"), "s"),
        "peak_rss_mb": (_median(plain, "rss_mb"), "MB"),
        "passed_share": (passed_share, "share"),
        "coverage_share": (statistics.fmean(c["coverage"] for c in checks), "share"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """The layers of the fastest traced pass, so that they add up to its wall time."""
    fastest = _fastest(traced)
    out = {}
    for name, value in fastest["layers"].items():
        unit = "count" if name.endswith(".calls") else (
            "s" if name.endswith("_s") else "share")
        out[name] = (value, unit)
    out["trace.wall_s"] = (fastest["wall_s"], "s")
    untraced = min(r["wall_s"] - r["probe_s"] for r in plain)
    out["trace.overhead_s"] = (fastest["wall_s"] - untraced, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hilb benchmark runner")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hilb" / "__init__.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'hilb'}", file=sys.stderr)
        return 2

    # compile bytecode once so that no pass's setup_s pays for it
    subprocess.run([sys.executable, str(CHILD), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-only"],
                   cwd=ROOT, stdout=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S, check=True)
    plain, traced, crashed = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    if not plain or (args.trace and not traced):
        print("error: every pass crashed", file=sys.stderr)
        return 1

    checks = [c for r in plain + traced for c in r["checks"]]
    attempted = len(checks) + crashed  # a crashed pass is one failed check
    failed = attempted - sum(c["passed"] for c in checks)
    if args.trace:
        metrics = per_layer(plain, traced)
    else:
        metrics = end_to_end(plain, (attempted - failed) / attempted)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "git_sha": git_sha(),
        "passes": len(plain), "traced_passes": len(traced), "crashed_passes": crashed,
        "wall_s_samples": [r["wall_s"] for r in plain],
        "corrected_wall_s_samples": [r["corrected_wall_s"] for r in plain],
        "raw_median_wall_s": _median(plain, "wall_s"),
        "raw_median_setup_s": _median(plain, "setup_s"),
        "corrected_setup_s_samples": [r["corrected_setup_s"] for r in plain],
    }))
    for label, seconds in _task_medians(plain).items():
        print(f"  task {label}: {seconds:.4f} s (median, raw)")
    for c in checks:
        if not c["passed"]:
            print(f"  FAILED {c['label']}: {c['error'] or c['mode']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
