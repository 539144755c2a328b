"""Process-wide metrics: counters, gauges, bounded-reservoir histograms.

DICER is driven entirely by black-box signals, so the reproduction's own
runtime behaviour — controller decisions, solver-cache effectiveness,
campaign throughput — deserves the same first-class visibility production
cache-partitioning controllers give theirs. This module is the numeric
half of :mod:`repro.obs` (the structured half is
:mod:`repro.obs.events`): named instruments registered in a
:class:`MetricsRegistry` and snapshotted into the telemetry file at the
end of a campaign.

Telemetry must never tax the simulation hot path. The process-wide
default registry is a :class:`NullRegistry` whose instruments are
preallocated no-op singletons: ``get_registry().counter("x").inc()``
costs two attribute lookups and allocates nothing (asserted by tests).
Enabling telemetry swaps in a live :class:`MetricsRegistry`; call sites
look up instruments through :func:`get_registry` each time, so a swap at
any point takes effect immediately without re-wiring.

Instrument semantics follow the conventional trio:

* :class:`Counter` — monotonically increasing count (decisions, cache
  hits, campaign cells);
* :class:`Gauge` — last-write-wins level (cache size, worker count);
* :class:`Histogram` — distribution over observations (solve latency,
  checkpoint duration), with exact count/sum/min/max and percentiles
  estimated from a bounded reservoir so memory stays O(1) over
  arbitrarily long campaigns.
"""

from __future__ import annotations

import threading
import time
from collections import deque

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "get_registry",
    "set_registry",
]


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (must be >= 0: counters never go down)."""
        if n < 0:
            raise ValueError(f"counter increment must be >= 0, got {n}")
        self._value += n

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, object]:
        """One JSON-ready row describing this instrument."""
        return {"name": self.name, "type": "counter", "value": self._value}


class Gauge:
    """Last-write-wins level (sizes, configuration, rates)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def set(self, value: float) -> None:
        self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def snapshot(self) -> dict[str, object]:
        """One JSON-ready row describing this instrument."""
        return {"name": self.name, "type": "gauge", "value": self._value}


class Timer:
    """Context manager observing elapsed seconds into a histogram."""

    __slots__ = ("_histogram", "_t0")

    def __init__(self, histogram: "Histogram") -> None:
        self._histogram = histogram
        self._t0 = 0.0

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._histogram.observe(time.perf_counter() - self._t0)
        return False


class Histogram:
    """Distribution summary with a bounded percentile reservoir.

    ``count``/``sum``/``min``/``max`` are exact over every observation;
    percentiles are computed from the most recent ``max_samples``
    observations (a sliding-window reservoir), which bounds memory while
    staying faithful for the steady workloads campaigns produce.
    """

    __slots__ = ("name", "_count", "_sum", "_min", "_max", "_reservoir")

    def __init__(self, name: str, max_samples: int = 2048) -> None:
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        self.name = name
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")
        self._reservoir: deque[float] = deque(maxlen=max_samples)

    def observe(self, value: float) -> None:
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._reservoir.append(value)

    def time(self) -> Timer:
        """``with histogram.time(): ...`` observes the block's duration."""
        return Timer(self)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q: float) -> float:
        """Reservoir percentile ``q`` in [0, 100] (nearest-rank)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        rank = min(len(ordered) - 1, int(q / 100.0 * len(ordered)))
        return ordered[rank]

    def snapshot(self) -> dict[str, object]:
        """One JSON-ready row describing this instrument."""
        return {
            "name": self.name,
            "type": "histogram",
            "count": self._count,
            "sum": self._sum,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Namespace of live instruments, memoised by name.

    Instrument creation is locked (serve's heartbeat probes nodes on
    worker threads); updates are plain attribute writes — the GIL makes them
    safe enough for telemetry, and campaign workers are *processes*, so
    cross-worker aggregation happens at the reporting layer instead.
    """

    enabled = True

    def __init__(self, *, max_samples: int = 2048) -> None:
        self._lock = threading.Lock()
        self._max_samples = max_samples
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(
                    name, Histogram(name, self._max_samples)
                )
        return instrument

    def snapshot(self) -> list[dict[str, object]]:
        """All instruments as JSON-ready rows, sorted by name."""
        rows = (
            [c.snapshot() for c in self._counters.values()]
            + [g.snapshot() for g in self._gauges.values()]
            + [h.snapshot() for h in self._histograms.values()]
        )
        return sorted(rows, key=lambda r: str(r["name"]))

    def clear(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


class _NullTimer:
    """Reentrant no-op context manager (stateless, shared)."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc) -> bool:
        return False


class _NullInstrument:
    """No-op counter/gauge/histogram, one shared instance for all names."""

    __slots__ = ()

    name = ""
    count = 0
    sum = 0.0
    mean = 0.0

    @property
    def value(self) -> float:
        return 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def time(self) -> _NullTimer:
        return _NULL_TIMER

    def percentile(self, q: float) -> float:
        return 0.0

    def snapshot(self) -> dict[str, object]:
        return {}


_NULL_TIMER = _NullTimer()
_NULL_INSTRUMENT = _NullInstrument()


class NullRegistry(MetricsRegistry):
    """Disabled registry: every lookup returns the shared no-op instrument.

    This is the default, so instrumented hot paths (the contention
    solver's cache, the server's event loop) pay only a method call per
    update — no dictionary lookups, no allocation (asserted by
    ``tests/obs/test_metrics.py``).
    """

    enabled = False

    def __init__(self) -> None:  # no locks, no dicts
        pass

    def counter(self, name: str) -> Counter:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return _NULL_INSTRUMENT  # type: ignore[return-value]

    def snapshot(self) -> list[dict[str, object]]:
        return []

    def clear(self) -> None:
        pass


#: The shared disabled registry (also the process default).
NULL_REGISTRY = NullRegistry()

_registry: MetricsRegistry = NULL_REGISTRY


def get_registry() -> MetricsRegistry:
    """The process-wide registry (a no-op unless telemetry is enabled)."""
    return _registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` process-wide; returns the previous one."""
    global _registry
    previous = _registry
    _registry = registry
    return previous
