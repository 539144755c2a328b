"""Tests for the metrics half of repro.obs."""

import tracemalloc

import pytest

from repro import obs
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
)


class TestCounter:
    def test_inc_accumulates(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").inc(-1)

    def test_snapshot_shape(self):
        c = Counter("x")
        c.inc(4)
        assert c.snapshot() == {"name": "x", "type": "counter", "value": 4.0}


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("x")
        g.set(7)
        g.set(3)
        assert g.value == 3.0
        assert g.snapshot()["type"] == "gauge"


class TestHistogram:
    def test_exact_aggregates(self):
        h = Histogram("x")
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == 16.0
        assert snap["min"] == 1.0
        assert snap["max"] == 10.0
        assert snap["mean"] == 4.0

    def test_percentiles_ordered(self):
        h = Histogram("x")
        for v in range(100):
            h.observe(float(v))
        assert h.percentile(0) == 0.0
        assert h.percentile(50) <= h.percentile(90) <= h.percentile(99)
        assert h.percentile(99) <= 99.0

    def test_reservoir_bounded_but_count_exact(self):
        h = Histogram("x", max_samples=8)
        for v in range(1000):
            h.observe(float(v))
        assert h.count == 1000
        assert len(h._reservoir) == 8
        # The sliding window keeps the most recent observations.
        assert h.percentile(0) >= 992.0

    def test_empty_snapshot_is_finite(self):
        snap = Histogram("x").snapshot()
        assert snap["count"] == 0
        assert snap["min"] == 0.0 and snap["max"] == 0.0

    def test_timer_observes_elapsed(self):
        h = Histogram("x")
        with h.time():
            pass
        assert h.count == 1
        assert h.sum >= 0.0

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            Histogram("x", max_samples=0)
        with pytest.raises(ValueError):
            Histogram("x").percentile(101)


class TestRegistry:
    def test_instruments_memoised_by_name(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_snapshot_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("z.count").inc()
        reg.gauge("a.level").set(1)
        reg.histogram("m.dist").observe(2.0)
        snap = reg.snapshot()
        assert [row["name"] for row in snap] == sorted(
            row["name"] for row in snap
        )
        assert {row["type"] for row in snap} == {
            "counter", "gauge", "histogram",
        }

    def test_clear_drops_instruments(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.clear()
        assert reg.snapshot() == []

    def test_default_is_null(self):
        assert isinstance(get_registry(), NullRegistry)
        assert not get_registry().enabled

    def test_set_registry_roundtrip(self):
        live = MetricsRegistry()
        previous = set_registry(live)
        try:
            assert get_registry() is live
        finally:
            set_registry(previous)


class TestNullRegistry:
    def test_all_operations_are_noops(self):
        reg = NULL_REGISTRY
        reg.counter("x").inc(5)
        reg.gauge("x").set(5)
        reg.histogram("x").observe(5)
        with reg.histogram("x").time():
            pass
        assert reg.counter("x").value == 0.0
        assert reg.histogram("x").percentile(99) == 0.0
        assert reg.snapshot() == []

    def test_hot_path_allocates_nothing(self):
        """The disabled-telemetry invariant: no allocation.

        ``get_registry().counter(name).inc()`` and ``with
        get_registry().histogram(name).time():`` must not allocate on the
        hot path — the null registry hands back shared singletons, so a
        tight instrumented loop leaves traced memory untouched.
        """
        assert not get_registry().enabled  # default state

        def hot_loop():
            for _ in range(10_000):
                get_registry().counter("hot.path").inc()
                get_registry().gauge("hot.gauge").set(1.0)
                get_registry().histogram("hot.hist").observe(1.0)
                with get_registry().histogram("hot.timed").time():
                    pass

        hot_loop()  # warm up (interned strings, method caches)
        tracemalloc.start()
        try:
            # Compare two traced passes so one-time bookkeeping (loop
            # iterator, tracemalloc internals) cancels out: the steady
            # state must add exactly zero bytes.
            hot_loop()
            first, _ = tracemalloc.get_traced_memory()
            hot_loop()
            second, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert second - first == 0


class TestModuleHelpers:
    def test_helpers_route_to_registry(self):
        registry, _ = obs.enable()
        obs.counter("a").inc(2)
        obs.gauge("b").set(3)
        obs.histogram("c").observe(4)
        assert registry.counter("a").value == 2
        assert registry.gauge("b").value == 3
        assert registry.histogram("c").count == 1
        assert obs.enabled()
        obs.disable()
        assert not obs.enabled()
