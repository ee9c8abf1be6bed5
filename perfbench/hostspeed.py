"""How fast the host runs this process, sampled while a pass runs.

On a shared host the neighbours of this benchmark's core slow every
instruction down, by up to 2.3x, and switch on and off within seconds.
Process CPU time grows with wall time meanwhile and the kernel reports no
steal time, so neither clock sees it.  A `Sampler` measures it: every
`INTERVAL_S` of wall time a SIGALRM handler runs `probe()`, a fixed loop of
dict look-ups and stores (the kind of work the library's memos do), in the
pass's own thread, between the library's bytecodes.  The probe's time over
`REFERENCE_S` is the host's slowdown at that moment.

For a section of a pass, `Sampler.section()` gives the probes' own time
and the speed, the mean of `REFERENCE_S / probe time` over the samples
taken in it.  At the reference speed the section would have taken its
wall time less the probes' time, times the speed.  The samples are evenly
spaced in wall time, so the mean weights each moment by how long the
section spent in it.  On the
2-CPU x86 host this was written on, this cut the spread (quartile distance
over median) of single `mult` passes from 0.22 to 0.03.  The probe slows
down about as much as the library does, not exactly as much, so a run on a
busy host still reads a little slower than on a quiet one.
"""

from __future__ import annotations

import signal
from statistics import fmean
from time import perf_counter

INTERVAL_S = 0.05
# The probe's time on an idle core of the 2-CPU Xeon host the benchmark was
# written on, with Python 3.11.  It fixes the scale of the corrected seconds.
REFERENCE_S = 3.0e-3
PROBE_KEYS = tuple((i * 2654435761) % 1_000_003 for i in range(20_000))


def probe() -> float:
    """Seconds taken by one fixed round of memo-style dict work."""
    start = perf_counter()
    memo = {}
    for k in PROBE_KEYS:
        key = (k * 7) % 65521
        v = memo.get(key)
        if v is None:
            memo[key] = k & 255
        else:
            memo[key] = v + 1
    return perf_counter() - start


class Sampler:
    """Runs `probe()` every `INTERVAL_S` from a SIGALRM handler."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(probe())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> int:
        """The start of a section: the number of samples taken so far."""
        return len(self.samples)

    def section(self, begin: int) -> tuple[float, float]:
        """(probe seconds, speed) of the section from mark `begin` to now.

        A section of `wall` seconds would have taken `(wall - probe seconds)
        * speed` at the reference speed.  A section shorter than the interval
        may hold no sample; a probe taken now stands in for one.
        """
        taken = self.samples[begin:]
        return sum(taken), fmean(REFERENCE_S / p for p in taken or [probe()])
