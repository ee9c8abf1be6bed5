"""The four benchmark workloads, as tables of library calls.

Each workload is a list of tasks.  A task calls the public entry points that
`hilb verify` or `hilb series` call and returns a list of `Check`s, one per
verdict.  Tasks are kept small (one suite, or one n of a series), so that
`run.py` can print each task's time.  Everything a task computes runs inside the timed section; turning its results into
verdicts (coverage arithmetic, comparison against the stored reference
renderings) happens afterwards, in `Check.evaluate`.

The library is imported inside the task constructors, never at module level:
`build` runs after the tracer has installed its wrappers, so the names it
binds are the wrapped ones.

Sizes are chosen so that one pass of every workload takes one to three
seconds on a 2-CPU x86 host with Python 3.11: a 30-second run then holds
about ten cold passes.  See README.md for why each workload exists and
which layers it exercises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import factorial
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# (suite, preset, n).  a0 is the odd preset: its associativity check adds the
# global pass with Koszul signs, which fits the default limit at n = 2.
AXIOMS = [
    ("associativity", "a0", 2),
    ("unit-laws", "a0", 3),
    ("equivariance", "a0", 3),
    ("graded-commutativity", "a0", 3),
    ("associativity", "d4", 3),
    ("unit-laws", "d4", 3),
    ("equivariance", "d4", 2),
    ("graded-commutativity", "d4", 2),
]

# (preset, n), every one exhaustive under the default limit.
MULT = [(name, n) for name in ("a0", "d4", "e6", "e7", "e8") for n in (1, 2, 3)] + [
    ("a0", 4),
    ("d4", 4),
    ("e8", 4),
    ("k3", 3),
    ("abelian", 3),
]

# (preset, closed-form case, largest n): closed = refined = brute force =
# partition sum through s^n.  Then refined products alone at a larger bound.
SERIES_FAMILIES = [
    ("a0", "a0", 5),
    ("d4", "dynkin4", 4),
    ("e6", "dynkin6", 4),
    ("e7", "dynkin7", 3),
    ("e8", "dynkin8", 3),
]
SERIES_REFINED = [("d4", 12), ("k3", 12)]

# (suite, preset, n): the default limit sends each of these to sampling.
SAMPLED = [
    ("multiplicativity", "k3", 4),
    ("multiplicativity", "d4", 5),
    ("equivariance", "e8", 3),
]
SAMPLE_SIZE = 10_000

WORKLOADS = ("axioms", "mult", "series", "sampled")


@dataclass
class Check:
    """One verdict: `value` is a CheckReport or a tuple of series renderings."""

    label: str
    value: object = None
    ring: object = None
    n: int = 0
    reference: str | None = None
    error: str | None = None
    passed: bool = field(default=False, init=False)
    mode: str = field(default="", init=False)
    coverage: float = field(default=0.0, init=False)

    def evaluate(self) -> "Check":
        if self.error is not None:
            return self
        if isinstance(self.value, tuple):  # series renderings that must agree
            first = self.value[0]
            self.passed = all(v == first for v in self.value)
            if self.reference is not None:
                self.passed = self.passed and first == self.reference
            self.mode = "exact"
            self.coverage = 1.0
            return self
        report = self.value
        self.passed = report.passed
        self.mode = report.info.get("mode", "exhaustive")
        self.coverage = _coverage(report, self.ring, self.n)
        return self


def _coverage(report, ring, n: int) -> float:
    """Share of the suite's input space the report checked."""
    if "sampled" not in report.info.get("mode", ""):
        return 1.0
    from hilb.wreath_ring import basis_count

    basis = basis_count(ring, n)
    if report.suite == "multiplicativity":
        return min(1.0, report.info["checked"] / basis**2)
    if report.suite == "equivariance":
        return min(1.0, report.info["sampled_triples"] / (basis**2 * factorial(n)))
    if report.suite == "associativity":
        return min(1.0, report.info["sampled_triples"] / basis**3)
    if report.suite == "graded-commutativity":
        return min(1.0, report.info["pairs_checked"] / report.info["invariant_basis_size"] ** 2)
    raise ValueError(f"no coverage rule for sampled suite {report.suite!r}")


def _reference(name: str) -> str:
    return (REFERENCE_DIR / f"{name}.series").read_text(encoding="utf-8")


def build(workload: str, seed: int, tiny: bool = False):
    """Construct the presets and return the workload's list of task thunks.

    Each thunk runs one task and returns its list of Checks; the caller
    times the thunks and evaluates the Checks afterwards.  `tiny` cuts every
    size down to a fraction of a second, for the benchmark's own tests.
    """
    from hilb import preset

    if workload == "axioms":
        return [_suite_task(suite, preset(p), 2 if tiny else n, seed)
                for suite, p, n in AXIOMS]
    if workload == "mult":
        return [_suite_task("multiplicativity", preset(p), n, seed)
                for p, n in MULT if not tiny or n <= 2]
    if workload == "series":
        tasks = [task for p, case, top in SERIES_FAMILIES
                 for task in _family_tasks(preset(p), case, 2 if tiny else top, tiny)]
        tasks += [_refined_task(preset(p), 2 if tiny else bound, tiny)
                  for p, bound in SERIES_REFINED]
        return tasks
    if workload == "sampled":
        size = 50 if tiny else SAMPLE_SIZE
        return [_suite_task(suite, preset(p), n, seed, size) for suite, p, n in SAMPLED]
    raise ValueError(f"unknown workload {workload!r}; choose one of {', '.join(WORKLOADS)}")


def _suite_task(suite: str, ring, n: int, seed: int, sample_size: int | None = None):
    from hilb.perverse_filtration import check_multiplicativity
    from hilb.wreath_ring import (
        check_associativity,
        check_equivariance,
        check_graded_commutativity,
        check_unit_laws,
    )

    label = f"{suite} {ring.name} n={n}"
    extra = {} if sample_size is None else {"sample_size": sample_size}
    if suite == "unit-laws":
        def run():
            return check_unit_laws(ring, n)
    else:
        check = {
            "associativity": check_associativity,
            "equivariance": check_equivariance,
            "graded-commutativity": check_graded_commutativity,
            "multiplicativity": check_multiplicativity,
        }[suite]

        def run():
            return check(ring, n, seed=seed, **extra)

    def task():
        return [Check(label, run(), ring, n)]

    task.label = label
    return task


def _family_tasks(ring, case: str, top: int, tiny: bool):
    """closed = refined through s^top (and both = the stored rendering), then
    one task per n: brute-force orbit count = partition sum = closed
    coefficient."""
    from hilb.exact_poly import to_text
    from hilb.generating_series import (
        SeriesSpec,
        brute_force_poincare,
        closed_form,
        compare_series,
        partition_sum,
        poly_render,
        refined_goettsche,
        ring_dims,
    )

    reference = None if tiny else _reference(f"closed_{case}_s{top}")
    label = f"series {ring.name}"
    closed = {}  # filled by the first task, read by the per-n tasks

    def products():
        closed[top] = closed_form(SeriesSpec.parse(case, top))
        refined = refined_goettsche(ring_dims(ring), top)
        agree = "equal" if compare_series(closed[top], refined, top).equal else "unequal"
        return [
            Check(f"{label} s<={top} closed=refined=reference",
                  (to_text(closed[top]), to_text(refined)), reference=reference),
            Check(f"{label} s<={top} compare_series", (agree, "equal")),
        ]

    products.label = f"{label} s<={top} products"
    tasks = [products]
    for n in range(top + 1):
        def orbit_count(n=n):
            return [Check(
                f"{label} n={n} brute=partition-sum=closed",
                (
                    poly_render(brute_force_poincare(ring, n)),
                    poly_render(partition_sum(ring_dims(ring), n)),
                    poly_render(closed[top].coefficient_of_s(n)),
                ),
            )]

        orbit_count.label = f"{label} n={n} orbit count"
        tasks.append(orbit_count)
    return tasks


def _refined_task(ring, bound: int, tiny: bool):
    from hilb.exact_poly import to_text
    from hilb.generating_series import refined_goettsche, ring_dims

    reference = None if tiny else _reference(f"refined_{ring.name}_s{bound}")
    label = f"refined {ring.name} s<={bound}"

    def task():
        text = to_text(refined_goettsche(ring_dims(ring), bound))
        return [Check(label, (text,), reference=reference)]

    task.label = label
    return task
