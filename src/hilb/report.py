"""Machine-readable pass/fail records for every property suite, and the one
driver that turns an exhaustive suite's checks into its record."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

# Rendered inputs a witness may carry, in sort order after the excess.
WITNESS_FIELDS = ("x", "y", "z", "tau", "detail")


@dataclass
class CheckReport:
    """Outcome of one verification suite.

    A failing report always carries at least one witness.  Witnesses are
    plain JSON-ready dicts (rendered inputs, integer perversities, bounds).
    Suites that go through `run_suite` list them deduplicated and sorted
    worst-first by `witness_key`, so reports are deterministic and diffable.
    """

    suite: str
    passed: bool
    witnesses: list[dict] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.passed and not self.witnesses:
            raise ValueError("failing report must carry a witness")

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_json(self) -> str:
        payload = {
            "suite": self.suite,
            "status": self.status,
            "witnesses": self.witnesses,
            "info": self.info,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: {self.status}"]
        for key in sorted(self.info):
            lines.append(f"  {key} = {self.info[key]}")
        for w in self.witnesses:
            parts = ", ".join(f"{k}={w[k]}" for k in sorted(w))
            lines.append(f"  witness: {parts}")
        return "\n".join(lines)


def witness_key(w: dict) -> tuple:
    """Worst excess first, then the rendered inputs; a missing field reads ""."""
    return (-w["excess"],) + tuple(w.get(k, "") for k in WITNESS_FIELDS)


def run_suite(suite: str, info: dict, found: Iterable[dict | None]) -> CheckReport:
    """Collect the witnesses of one exhaustive suite run into its report.

    `found` yields a witness dict, or None, for each input the run checked.
    Repeated witnesses are kept once.
    """
    unique = {tuple(sorted(w.items())): w for w in found if w is not None}
    ordered = sorted(unique.values(), key=witness_key)
    return CheckReport(suite, not ordered, ordered, info)
