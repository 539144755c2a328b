"""Tests for the noise decorator and the generic control loop."""

import pytest

from repro.core.cbp import CbpPolicy
from repro.core.config import DicerConfig
from repro.core.dicer import DicerController
from repro.core.mba import MbaDicerController
from repro.experiments.runner import initial_partition
from repro.rdt.faulty import FaultyRdt
from repro.rdt.harness import drive
from repro.rdt.noisy import NoisyRdt
from repro.rdt.simulated import SimulatedRdt
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import Server
from repro.workloads.mix import make_mix


def make_backend(hp="milc1", be="gcc_base6", n_be=9):
    mix = make_mix(hp, be, n_be=n_be)
    server = Server(
        TABLE1_PLATFORM, mix.apps(), PartitionSpec.hp_be(19, n_be + 1, 20)
    )
    return SimulatedRdt(server), server


class TestNoisyRdt:
    def test_zero_noise_is_identity(self):
        backend, _ = make_backend()
        noisy = NoisyRdt(backend, ipc_noise=0.0, bw_noise=0.0, seed=1)
        s = noisy.sample(1.0)
        assert s.hp_ipc > 0
        # With zero sigma the jitter factor is exactly 1.
        clean_backend, _ = make_backend()
        clean = clean_backend.sample(1.0)
        assert s.hp_ipc == pytest.approx(clean.hp_ipc)
        assert s.total_mem_bytes_s == pytest.approx(clean.total_mem_bytes_s)

    def test_noise_perturbs_deterministically(self):
        a = NoisyRdt(make_backend()[0], ipc_noise=0.05, seed=7).sample(1.0)
        b = NoisyRdt(make_backend()[0], ipc_noise=0.05, seed=7).sample(1.0)
        c = NoisyRdt(make_backend()[0], ipc_noise=0.05, seed=8).sample(1.0)
        assert a.hp_ipc == b.hp_ipc
        assert a.hp_ipc != c.hp_ipc

    def test_invariants_preserved(self):
        noisy = NoisyRdt(make_backend()[0], bw_noise=0.2, seed=3)
        for _ in range(20):
            if noisy.finished:
                break
            s = noisy.sample(1.0)
            assert s.total_mem_bytes_s >= s.hp_mem_bytes_s
            assert s.hp_ipc > 0

    def test_noise_validated(self):
        with pytest.raises(ValueError):
            NoisyRdt(make_backend()[0], ipc_noise=1.5)

    def test_passthrough_surface(self):
        backend, server = make_backend()
        noisy = NoisyRdt(backend, seed=0)
        assert noisy.total_ways == 20
        from repro.core.allocation import Allocation

        noisy.apply(Allocation(hp_ways=4, total_ways=20))
        assert server.partition.hp_ways == 4.0
        noisy.apply_be_throttle(0.5)  # forwarded without error


class TestDrive:
    def test_full_loop(self):
        backend, server = make_backend()
        controller = DicerController(DicerConfig(), 20)
        trace = drive(controller, backend)
        assert server.all_completed
        assert len(trace) > 5
        assert any("sampling" in r.note for r in trace)

    def test_max_periods_bounds_loop(self):
        backend, server = make_backend()
        controller = DicerController(DicerConfig(), 20)
        trace = drive(controller, backend, max_periods=3)
        assert len(trace) == 3
        assert not server.all_completed

    def test_mba_controller_throttles_via_loop(self):
        backend, server = make_backend(hp="namd1", be="lbm1")
        controller = MbaDicerController(DicerConfig(), 20)
        drive(controller, backend, max_periods=25)
        assert controller.be_throttle < 1.0
        assert server.mba_scale is not None

    def test_noisy_end_to_end(self):
        backend, server = make_backend()
        controller = DicerController(DicerConfig(), 20)
        drive(controller, NoisyRdt(backend, seed=5))
        assert server.all_completed

    def test_time_bound_stops_at_the_budget(self):
        backend, server = make_backend()
        controller = DicerController(DicerConfig(), 20)
        trace = drive(controller, backend, max_time_s=3.5)
        assert len(trace) == 4  # sampled at t = 0, 1, 2, 3
        assert server.time == 4.0


def _cbp_run(wrap, periods=8):
    """Server knob state after ``periods`` CBP periods behind ``wrap``."""
    mix = make_mix("omnetpp1", "lbm1", n_be=5)
    apps = mix.apps()
    policy = CbpPolicy().fresh()
    partition = initial_partition(policy, len(apps), TABLE1_PLATFORM.llc_ways)
    server = Server(TABLE1_PLATFORM, apps, partition)
    trace = drive(policy, wrap(SimulatedRdt(server)), max_periods=periods)
    return server.prefetch, server.mba_scale, [d.event for d in trace]


class TestWrappedKnobs:
    """Every wrapper forwards all three knobs: CBP behind a zero-noise
    NoisyRdt or a fault-free FaultyRdt ends where the bare backend does."""

    def test_cbp_reaches_the_bare_backend_state(self):
        bare = _cbp_run(lambda rdt: rdt)
        prefetch, mba_scale, events = bare
        assert "throttle_prefetch" in events and "throttle_mba" in events
        assert prefetch is not None and mba_scale is not None
        noisy = _cbp_run(
            lambda rdt: NoisyRdt(rdt, ipc_noise=0.0, bw_noise=0.0, seed=1)
        )
        faulty = _cbp_run(lambda rdt: FaultyRdt(rdt, seed=1))
        assert noisy == bare
        assert faulty == bare

    @pytest.mark.parametrize("wrapper", [NoisyRdt, FaultyRdt])
    def test_prefetch_forwarded(self, wrapper):
        backend, server = make_backend(n_be=2)
        wrapper(backend).apply_be_prefetch(0.5)
        assert server.prefetch[0] == 0.0 and server.prefetch[1] > 0.0
