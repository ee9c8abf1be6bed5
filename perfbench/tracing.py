"""Per-layer tracing from outside the library.

`Tracer.install()` replaces each traced public function of `hilb` with a
timing wrapper, in every `hilb.*` namespace that binds it: a name imported
by another module (`diagonal_push` in `wreath_ring`, `cup` in
`perverse_filtration`) is a second binding that a patch of the home module
alone would miss.  Methods are patched on their class.

Spans nest on one stack.  A span's self time is its duration minus the time
covered by the spans it caused; inclusive time counts only the outermost
active span of each function, so recursion is not counted twice.  Generator
functions are timed over their iteration: every resumption is a span, and
creating the generator costs nothing.  The spans are aggregated in memory
per function, because millions of calls would not fit as single records,
and `summary()` writes them out once, at the end of a pass.
"""

from __future__ import annotations

import functools
import inspect
import sys
from time import perf_counter

# module -> traced functions ("Class.method" for methods).  `cli` and
# `report` are thin and off every hot path, so they stay untraced.
TARGETS = {
    "wreath_ring": (
        "cup",
        "cup_class",
        "sn_act",
        "act_class",
        "invariant_project",
        "iter_orbit_reps",
        "enumerate_wreath_basis",
        "check_associativity",
        "check_unit_laws",
        "check_equivariance",
        "check_graded_commutativity",
    ),
    "perverse_filtration": ("check_multiplicativity", "perversity", "perversity_class"),
    "surface_ring": ("SurfaceRing.mul_class", "diagonal_push", "preset"),
    "symmetric_groups": ("orbits", "graph_defect", "enumerate_sn"),
    "exact_poly": ("TruncatedSeries.__mul__", "geometric_factor"),
    "generating_series": (
        "brute_force_poincare",
        "partition_sum",
        "closed_form",
        "refined_goettsche",
        "compare_series",
    ),
}

# The function whose distinct (x, y) argument pairs are counted: useful work
# over attempts for its memo.
DISTINCT_PAIRS = "wreath_ring.cup"


class _Stat:
    __slots__ = ("calls", "self_s", "incl_s", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.active = 0


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, _Stat] = {}
        self.pairs: set = set()
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Wrap every target in every loaded `hilb` namespace that binds it."""
        import hilb  # noqa: F401  (loads every submodule the package exports)

        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "hilb" or name.startswith("hilb.")]
        for module, names in TARGETS.items():
            home = sys.modules[f"hilb.{module}"]
            for qualname in names:
                key = f"{module}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(home, cls_name)
                    original = owner.__dict__[attr]
                    self._patch(owner, attr, self._wrap(key, original))
                    continue
                original = getattr(home, qualname)
                wrapper = self._wrap(key, original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            self._patch(ns, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, _Stat())
        stack = self._stack
        pairs = self.pairs if key == DISTINCT_PAIRS else None

        def close(start: float, frame: list[float]) -> None:
            dur = perf_counter() - start
            stack.pop()
            stat.active -= 1
            stat.self_s += dur - frame[0]
            if not stat.active:
                stat.incl_s += dur
            if stack:
                stack[-1][0] += dur

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                stat.calls += 1
                inner = fn(*args, **kwargs)
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    stat.active += 1
                    start = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(start, frame)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            if pairs is not None:
                pairs.add(args[1:3])
            frame = [0.0]
            stack.append(frame)
            stat.active += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(start, frame)

        return wrapper

    def self_total(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def summary(self) -> dict[str, float]:
        """`<module>.<function>.<calls|self_s|incl_s>` for every target."""
        out: dict[str, float] = {}
        for key, stat in self.stats.items():
            out[f"{key}.calls"] = stat.calls
            out[f"{key}.self_s"] = stat.self_s
            out[f"{key}.incl_s"] = stat.incl_s
        calls = self.stats[DISTINCT_PAIRS].calls
        out[f"{DISTINCT_PAIRS}.distinct_ratio"] = len(self.pairs) / calls if calls else 0.0
        return out
