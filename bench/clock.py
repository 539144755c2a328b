"""Host-speed-normalised timing: a fixed reference loop between steps.

The 2-vCPU VM this benchmark was built on runs the same code up to 2.3
times slower for spells of a few milliseconds to minutes (README.md,
Host noise). Repeating a unit cannot remove a spell that outlasts the
run, so every unit measures the host's speed as it goes: between its
steps it times :func:`reference`, a fixed mix of Python dict and float
work and small NumPy calls like the simulator's, and divides each
interval it reports by how much slower the reference ran around that
interval than :data:`REFERENCE_S`. A reported time is thus "seconds on
this host at full speed"; the raw times are reported beside them.

A probe runs only at a step boundary, at most once per
:data:`PROBE_EVERY_S`, and probe time is left out of every interval. A
probe runs the reference twice and times the second run: the first
refills the caches the workload evicted, so the sample does not depend
on how much the workload touched since the last probe, which differs
between a workload that probes every few cells and one that probes
after every query.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

__all__ = ["Clock", "REFERENCE_S", "reference"]

#: Time of a warm :func:`reference` run on the baseline VM (Python
#: 3.11.7, NumPy 2.4.6, Xeon at 2.0 GHz) at full speed: the fast mode
#: of 48867 probes over a minute (25th percentile 46.5 us; in slow
#: spells the probe took 79-86 us).
REFERENCE_S = 45e-6
#: Least time between two probes; a probe (two reference runs) takes
#: 90-170 us, so the probes add at most about 5 % to a unit's wall time.
PROBE_EVERY_S = 0.003
#: Probes on each side of an interval whose median gives its speed.
WINDOW = 3

_KEYS = [(i, i & 7) for i in range(256)]
_TABLE = {key: float(key[0]) for key in _KEYS}
_VECTOR = np.linspace(0.0, 1.0, 64)


def reference() -> float:
    """The fixed reference work: tuple hashing, dict lookups, float
    arithmetic and small-array NumPy calls. It allocates no container
    objects, so it never moves the garbage collector's schedule."""
    total = 0.0
    for key in _KEYS:
        total += _TABLE[key] * key[1]
    vector = _VECTOR
    for _ in range(20):
        vector = np.maximum(vector * 0.99, 0.1)
    return total + float(vector[0])


class Clock:
    """Probes the host's speed between steps; scales intervals by it."""

    def __init__(self, every_s: float = PROBE_EVERY_S) -> None:
        self.every_s = every_s
        #: Start and end of every probe, in time order, and its sample:
        #: the time of its second (warm) reference run.
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.samples: list[float] = []
        self._due = 0.0
        for _ in range(WINDOW):  # warm-up, not recorded
            reference()

    def probe(self, force: bool = False) -> None:
        """Take a sample, if one is due (or ``force``)."""
        start = time.perf_counter()
        if start < self._due and not force:
            return
        reference()
        warm = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.samples.append(end - warm)
        self._due = end + self.every_s

    def burst(self) -> None:
        """``WINDOW`` probes in a row: at a unit's ends, so that every
        interval has probes on both sides."""
        for _ in range(WINDOW):
            self.probe(force=True)

    def slowdown(self, start: float, end: float) -> float:
        """How much slower than full speed the host ran over an interval:
        the median probe among the interval's own and ``WINDOW`` on each
        side, over :data:`REFERENCE_S`."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        window = self.samples[max(0, first - WINDOW): last + WINDOW]
        if not window:
            raise RuntimeError("no probe near the interval")
        return statistics.median(window) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """The interval's duration at full host speed (it holds no probe)."""
        return (end - start) / self.slowdown(start, end)

    def raw_wall(self, start: float, end: float) -> float:
        """``[start, end]`` less the probes in it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        probing = sum(self.ends[i] - self.starts[i] for i in range(first, last))
        return end - start - probing

    def scaled_wall(self, start: float, end: float) -> float:
        """``[start, end]`` less its probes, each stretch between two
        probes scaled by the host's speed around it."""
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_left(self.starts, end)
        total, cursor = 0.0, start
        for i in range(first, last):
            total += self.scaled(cursor, self.starts[i])
            cursor = self.ends[i]
        return total + self.scaled(cursor, end)
