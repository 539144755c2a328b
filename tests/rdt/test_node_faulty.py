"""Unit tests for the node-boundary fault injector (DESIGN.md §14).

Covers the serve-facing surface added on top of the §8 counter faults:
``inject``/``restore`` armed state, ``unavailable_kind``, partition
self-healing, one-shot hangs, and ``rebind`` (the boundary outliving the
per-evaluation simulators behind it).
"""

from __future__ import annotations

import pytest

from repro.rdt.faulty import (
    NodeFaultKind,
    NodeFaultyRdt,
    RdtUnavailableError,
)
from repro.rdt.sample import PeriodSample


class _StubRdt:
    """Minimal healthy backend; counts delegated calls."""

    total_ways = 20
    finished = False

    def __init__(self):
        self.samples = 0
        self.applies = 0

    def apply(self, allocation):
        self.applies += 1

    def sample(self, period_s):
        self.samples += 1
        return PeriodSample(
            duration_s=period_s,
            hp_ipc=1.0,
            hp_mem_bytes_s=0.0,
            total_mem_bytes_s=0.0,
            hp_llc_occupancy_bytes=0.0,
        )


class TestInjectedCrash:
    def test_crash_persists_until_restore(self):
        inner = _StubRdt()
        boundary = NodeFaultyRdt(inner)
        boundary.inject("crash")
        assert not boundary.available
        assert boundary.unavailable_kind is NodeFaultKind.CRASH
        for _ in range(3):
            with pytest.raises(RdtUnavailableError) as err:
                boundary.sample(0.1)
            assert err.value.kind is NodeFaultKind.CRASH
        with pytest.raises(RdtUnavailableError):
            boundary.apply(None)
        assert inner.samples == 0 and inner.applies == 0
        boundary.restore()
        assert boundary.available
        assert boundary.unavailable_kind is None
        boundary.sample(0.1)
        assert inner.samples == 1

    def test_injections_are_logged(self):
        boundary = NodeFaultyRdt(_StubRdt())
        boundary.inject("crash")
        boundary.restore()
        boundary.inject(NodeFaultKind.HANG)
        assert [kind for _, kind in boundary.injected] == [
            NodeFaultKind.CRASH,
            NodeFaultKind.HANG,
        ]


class TestInjectedPartition:
    def test_partition_heals_after_bounded_calls(self):
        inner = _StubRdt()
        boundary = NodeFaultyRdt(inner, partition_calls=2)
        boundary.inject("partition")
        assert boundary.unavailable_kind is NodeFaultKind.PARTITION
        for _ in range(2):
            with pytest.raises(RdtUnavailableError) as err:
                boundary.sample(0.1)
            assert err.value.kind is NodeFaultKind.PARTITION
        # The partition healed on its own: the next call goes through.
        boundary.sample(0.1)
        assert inner.samples == 1
        assert boundary.available


class TestInjectedHang:
    def test_hang_blocks_then_fails_exactly_once(self):
        inner = _StubRdt()
        boundary = NodeFaultyRdt(inner, hang_s=0.0)
        boundary.inject("hang")
        # An armed hang is not "unavailable": only the call discovers it.
        assert boundary.available
        with pytest.raises(RdtUnavailableError) as err:
            boundary.sample(0.1)
        assert err.value.kind is NodeFaultKind.HANG
        boundary.sample(0.1)  # one-shot: the next call is clean
        assert inner.samples == 1

    def test_restore_clears_an_armed_hang(self):
        inner = _StubRdt()
        boundary = NodeFaultyRdt(inner, hang_s=0.0)
        boundary.inject("hang")
        boundary.restore()
        boundary.sample(0.1)
        assert inner.samples == 1


class TestPersistentInjection:
    def test_persistent_partition_holds_until_restore(self):
        inner = _StubRdt()
        boundary = NodeFaultyRdt(inner, partition_calls=2)
        boundary.inject("partition", persistent=True)
        assert boundary.unavailable_kind is NodeFaultKind.PARTITION
        for _ in range(5):  # well past partition_calls: no self-heal
            with pytest.raises(RdtUnavailableError) as err:
                boundary.sample(0.1)
            assert err.value.kind is NodeFaultKind.PARTITION
        assert not boundary.available
        boundary.restore()
        boundary.sample(0.1)
        assert inner.samples == 1

    def test_persistent_hang_fails_every_call_until_restore(self):
        inner = _StubRdt()
        boundary = NodeFaultyRdt(inner, hang_s=0.0)
        boundary.inject("hang", persistent=True)
        # Unlike the one-shot hang, the node counts as unavailable...
        assert boundary.unavailable_kind is NodeFaultKind.HANG
        for _ in range(3):  # ...and every call fails, not just the next
            with pytest.raises(RdtUnavailableError) as err:
                boundary.sample(0.1)
            assert err.value.kind is NodeFaultKind.HANG
        with pytest.raises(RdtUnavailableError):
            boundary.apply(None)
        assert inner.samples == 0 and inner.applies == 0
        boundary.restore()
        boundary.sample(0.1)
        assert inner.samples == 1


class TestRebind:
    def test_rebind_swaps_inner_but_keeps_armed_state(self):
        first, second = _StubRdt(), _StubRdt()
        boundary = NodeFaultyRdt(first)
        boundary.sample(0.1)
        boundary.inject("crash")
        boundary.rebind(second)
        with pytest.raises(RdtUnavailableError):
            boundary.sample(0.1)  # the crash outlives the rebind
        boundary.restore()
        boundary.sample(0.1)
        assert first.samples == 1
        assert second.samples == 1
        assert boundary.total_ways == second.total_ways


class TestKnobs:
    def test_knobs_fail_while_down_and_forward_when_up(self):
        from repro.rdt.simulated import SimulatedRdt
        from repro.sim.partition import PartitionSpec
        from repro.sim.platform import TABLE1_PLATFORM
        from repro.sim.server import Server
        from repro.workloads.mix import make_mix

        apps = make_mix("omnetpp1", "lbm1", n_be=2).apps()
        server = Server(TABLE1_PLATFORM, apps, PartitionSpec.unmanaged(3, 20))
        boundary = NodeFaultyRdt(SimulatedRdt(server))
        boundary.inject("crash")
        for knob in (boundary.apply_be_throttle, boundary.apply_be_prefetch):
            with pytest.raises(RdtUnavailableError) as err:
                knob(0.5)
            assert err.value.kind is NodeFaultKind.CRASH
        assert server.mba_scale is None and server.prefetch is None
        boundary.restore()
        boundary.apply_be_throttle(0.5)
        boundary.apply_be_prefetch(0.5)
        assert server.mba_scale is not None
        assert server.prefetch[0] == 0.0 and server.prefetch[1] > 0.0
        assert boundary.time_s == server.time
