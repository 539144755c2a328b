"""Tests for the simulator-bound RDT backend."""

import pytest

from repro import obs
from repro.core.allocation import Allocation
from repro.rdt.simulated import SimulatedRdt
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM, bytes_to_gbps
from repro.sim.server import Server
from repro.workloads.mix import make_mix


def make_backend(hp="milc1", be="gcc_base6", n_be=9):
    mix = make_mix(hp, be, n_be=n_be)
    server = Server(
        TABLE1_PLATFORM,
        mix.apps(),
        PartitionSpec.hp_be(19, n_be + 1, 20),
    )
    return SimulatedRdt(server), server


class TestSampling:
    def test_advances_simulated_time(self):
        backend, server = make_backend()
        backend.sample(1.0)
        assert server.time == pytest.approx(1.0)

    def test_sample_fields_plausible(self):
        backend, _ = make_backend()
        s = backend.sample(1.0)
        assert s.duration_s == pytest.approx(1.0)
        assert 0 < s.hp_ipc < 3
        assert s.total_mem_bytes_s >= s.hp_mem_bytes_s > 0
        # The flagship pair saturates under CT.
        assert bytes_to_gbps(s.total_mem_bytes_s) > 50.0
        assert s.hp_llc_occupancy_bytes > 0

    def test_consecutive_samples_are_deltas(self):
        backend, server = make_backend()
        backend.sample(1.0)
        s2 = backend.sample(1.0)
        assert s2.duration_s == pytest.approx(1.0)
        assert server.time == pytest.approx(2.0)

    def test_period_validated(self):
        backend, _ = make_backend()
        with pytest.raises(ValueError):
            backend.sample(0.0)

    def test_finishes(self):
        backend, server = make_backend(hp="namd1", be="povray1", n_be=1)
        while not backend.finished:
            backend.sample(10.0)
        assert server.all_completed

    def test_degenerate_sample_after_completion(self):
        backend, _ = make_backend(hp="namd1", be="povray1", n_be=1)
        while not backend.finished:
            backend.sample(10.0)
        s = backend.sample(1.0)  # must not raise or divide by zero
        assert s.duration_s > 0
        # The dt <= 0 clamp must still yield a fully valid sample.
        assert s.duration_s == pytest.approx(1e-9)
        assert s.hp_ipc >= 0.0
        assert s.total_mem_bytes_s >= s.hp_mem_bytes_s >= 0.0

    def test_degenerate_sample_counted_in_telemetry(self):
        backend, _ = make_backend(hp="namd1", be="povray1", n_be=1)
        while not backend.finished:
            backend.sample(10.0)
        registry, _ = obs.enable()
        try:
            backend.sample(1.0)
            assert registry.counter(
                "rdt.simulated.degenerate_samples"
            ).value == 1
            assert registry.counter("rdt.simulated.samples").value == 1
        finally:
            obs.disable()


class TestApply:
    def test_apply_changes_partition(self):
        backend, server = make_backend()
        backend.apply(Allocation(hp_ways=2, total_ways=20))
        assert server.partition.hp_ways == 2.0

    def test_apply_affects_next_sample(self):
        backend, _ = make_backend()
        sat = backend.sample(1.0)
        backend.apply(Allocation(hp_ways=1, total_ways=20))
        relieved = backend.sample(1.0)
        assert relieved.total_mem_bytes_s < sat.total_mem_bytes_s

    def test_total_ways(self):
        backend, _ = make_backend()
        assert backend.total_ways == 20

    def test_be_throttle(self):
        backend, _ = make_backend(hp="namd1", be="lbm1")
        before = backend.sample(1.0)
        backend.apply_be_throttle(0.3)
        after = backend.sample(1.0)
        assert after.be_mem_bytes_s < before.be_mem_bytes_s
        with pytest.raises(ValueError):
            backend.apply_be_throttle(0.0)


class TestPrefetchKnob:
    def test_be_prefetch_cuts_be_traffic(self):
        # lbm BEs are waste-heavy streamers: squelching their prefetchers
        # removes useless link bytes.
        backend, _ = make_backend(hp="namd1", be="lbm1")
        before = backend.sample(1.0)
        backend.apply_be_prefetch(1.0)
        after = backend.sample(1.0)
        assert after.be_mem_bytes_s < before.be_mem_bytes_s

    def test_level_zero_restores_unthrottled_point(self):
        backend, server = make_backend()
        backend.apply_be_prefetch(0.75)
        assert server.prefetch is not None
        backend.apply_be_prefetch(0.0)
        assert server.prefetch is None

    def test_hp_core_never_throttled(self):
        backend, server = make_backend()
        backend.apply_be_prefetch(0.5)
        assert server.prefetch[0] == 0.0

    def test_level_validated(self):
        backend, _ = make_backend()
        with pytest.raises(ValueError):
            backend.apply_be_prefetch(1.5)
        with pytest.raises(ValueError):
            backend.apply_be_prefetch(-0.1)


class TestPerCoreFields:
    def test_arrays_cover_every_core(self):
        backend, server = make_backend(n_be=4)
        s = backend.sample(1.0)
        n = server.n_active
        assert len(s.core_ipcs) == n
        assert len(s.core_mem_bytes_s) == n
        assert len(s.core_occupancy_ways) == n

    def test_core_zero_matches_hp_aggregates(self):
        backend, _ = make_backend()
        s = backend.sample(1.0)
        assert s.core_ipcs[0] == pytest.approx(s.hp_ipc)
        assert s.core_mem_bytes_s[0] == pytest.approx(s.hp_mem_bytes_s)

    def test_core_traffic_sums_to_total(self):
        backend, _ = make_backend()
        s = backend.sample(1.0)
        assert sum(s.core_mem_bytes_s) == pytest.approx(
            s.total_mem_bytes_s, rel=1e-9
        )

    def test_occupancy_within_the_cache(self):
        backend, _ = make_backend(n_be=4)
        s = backend.sample(1.0)
        assert all(w >= 0.0 for w in s.core_occupancy_ways)
        assert sum(s.core_occupancy_ways) <= 20.0 + 1e-9
