"""One cold benchmark pass in a fresh interpreter.

Imports `hilb` from the checkout's `src`, builds the workload (presets
included), prints `ready`, runs the workload's tasks in the timed section,
then prints one JSON line: wall time, peak RSS, every check's verdict and,
with `--trace 1`, the per-layer summary.  An untraced pass also samples the
host's speed (hostspeed.py) through set-up and the timed section, and
reports for each the time its probes took and the mean speed factor.
`run.py` starts one of these per pass, because the library's memos live on
module-level singletons and a second pass in the same process would time
warm memos.

    python3 perfbench/child.py --workload mult --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import Sampler  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="cut-down sizes, for tests")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up (compiles bytecode before timing)")
    args = parser.parse_args(argv)

    # Untraced passes sample the host's speed from here on, set-up included;
    # traced passes do not, so that the probe shows up in no layer.
    sampler = None if args.trace or args.setup_only else Sampler()
    if sampler:
        sampler.start()
    import workloads

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    tasks = workloads.build(args.workload, args.seed, tiny=args.tiny)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    setup_probe_s, setup_speed = sampler.section(0) if sampler else (0.0, 1.0)
    self_before = tracer.self_total() if tracer else 0.0
    checks = []
    task_s = []
    begin = sampler.mark() if sampler else 0
    start = perf_counter()
    for task in tasks:
        t0 = perf_counter()
        try:
            checks.extend(task())
        except Exception as exc:  # a raising task is a failed check, not a lost run
            traceback.print_exc()
            checks.append(workloads.Check(task.label, error=f"{type(exc).__name__}: {exc}"))
        task_s.append((task.label, perf_counter() - t0))
    wall = perf_counter() - start
    probe_s, speed = sampler.section(begin) if sampler else (0.0, 1.0)
    if sampler:
        sampler.stop()
    layers = None
    if tracer:
        layers = tracer.summary()
        layers["trace.self_share"] = (tracer.self_total() - self_before) / wall
        tracer.uninstall()

    result = {
        "wall_s": wall,
        "probe_s": probe_s,
        "speed": speed,
        "setup_probe_s": setup_probe_s,
        "setup_speed": setup_speed,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "tasks": task_s,
        "checks": [
            {"label": c.label, "passed": c.passed, "mode": c.mode,
             "coverage": c.coverage, "error": c.error}
            for c in (check.evaluate() for check in checks)
        ],
        "layers": layers,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
