"""Tests for the event-driven server executor."""

import numpy as np
import pytest

from repro import obs
from repro.core.policies import policy_from_name
from repro.experiments.runner import run_pair
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import Server, SimulationTimeout
from repro.sim.solo import solo_profile
from repro.workloads.catalog import get_app
from repro.workloads.mix import make_mix

PLAT = TABLE1_PLATFORM


def um(n):
    return PartitionSpec.unmanaged(n, 20)


class TestConstruction:
    def test_too_many_apps_rejected(self):
        apps = [get_app("namd1")] * 11
        with pytest.raises(ValueError, match="exceed"):
            Server(PLAT, apps)

    def test_no_apps_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Server(PLAT, [])

    def test_partition_core_count_checked(self):
        with pytest.raises(ValueError, match="partition covers"):
            Server(PLAT, [get_app("namd1")], um(2))

    def test_default_partition_is_unmanaged(self):
        server = Server(PLAT, [get_app("namd1")])
        assert server.partition.groups[0].name == "ALL"


class TestExecution:
    def test_solo_run_matches_solo_profile(self):
        app = get_app("namd1")
        server = Server(PLAT, [app], um(1))
        server.run_until_all_complete()
        profile = solo_profile(app, PLAT)
        assert server.apps[0].run_times[0] == pytest.approx(
            profile.time_s, rel=1e-6
        )

    def test_all_apps_complete_at_least_once(self):
        mix = make_mix("milc1", "gcc_base3", n_be=9)
        server = Server(PLAT, mix.apps(), um(10))
        server.run_until_all_complete()
        assert all(a.completions >= 1 for a in server.apps)

    def test_short_apps_restart(self):
        # A fast BE must lap a slow HP (the paper's restart methodology):
        # omnetpp under nine streaming BEs slows several-fold, so the BEs
        # finish and restart repeatedly before it completes.
        mix = make_mix("omnetpp1", "x2641", n_be=9)
        server = Server(PLAT, mix.apps(), um(10))
        server.run_until_all_complete()
        assert server.apps[1].completions >= 2

    def test_time_advances_monotonically(self):
        mix = make_mix("wrf1", "gcc_base5", n_be=4)
        server = Server(PLAT, mix.apps(), um(5))
        last = 0.0
        for _ in range(200):
            if server.all_completed:
                break
            server.advance(10.0)
            assert server.time > last
            last = server.time

    def test_phased_app_does_not_wedge(self):
        # Regression: floating-point absorption at phase boundaries froze
        # simulated time (see RunningApp.advance docstring).
        mix = make_mix("wrf1", "gcc_base5", n_be=9)
        server = Server(PLAT, mix.apps(), um(10))
        server.run_until_all_complete(max_time_s=600)
        assert server.all_completed

    def test_timeout_raised(self):
        mix = make_mix("milc1", "milc1", n_be=9)
        server = Server(PLAT, mix.apps(), um(10))
        with pytest.raises(SimulationTimeout):
            server.run_until_all_complete(max_time_s=1.0)

    def test_advance_requires_positive_dt(self):
        server = Server(PLAT, [get_app("namd1")], um(1))
        with pytest.raises(ValueError):
            server.advance(0.0)


class TestCounters:
    def test_instruction_conservation(self):
        # Completed runs * per-run budget <= cumulative counter.
        app = get_app("gobmk1")
        server = Server(PLAT, [app], um(1))
        server.run_until_all_complete()
        ra = server.apps[0]
        assert ra.total_instructions == pytest.approx(
            app.total_instructions * ra.completions, rel=1e-6
        )

    def test_counters_shape(self):
        mix = make_mix("namd1", "povray1", n_be=3)
        server = Server(PLAT, mix.apps(), um(4))
        server.advance(1.0)
        counters = server.counters()
        assert counters["instructions"].shape == (4,)
        assert counters["mem_bytes"].shape == (4,)
        assert counters["time_s"] == server.time

    def test_mem_bytes_monotone(self):
        mix = make_mix("milc1", "lbm1", n_be=3)
        server = Server(PLAT, mix.apps(), um(4))
        prev = np.zeros(4)
        for _ in range(5):
            server.advance(2.0)
            now = server.counters()["mem_bytes"]
            assert np.all(now >= prev)
            prev = now


class TestReconfiguration:
    def test_set_partition_changes_behaviour(self):
        mix = make_mix("omnetpp1", "milc1", n_be=9)
        server = Server(PLAT, mix.apps(), PartitionSpec.hp_be(19, 10, 20))
        server.advance(1.0)
        ipc_ct = server._steady().ipc[0]
        server.set_partition(PartitionSpec.hp_be(1, 10, 20))
        ipc_squeezed = server._steady().ipc[0]
        assert ipc_squeezed < ipc_ct

    def test_set_partition_validates_cores(self):
        server = Server(PLAT, [get_app("namd1")], um(1))
        with pytest.raises(ValueError):
            server.set_partition(um(2))

    def test_mba_scale_applies(self):
        mix = make_mix("namd1", "lbm1", n_be=9)
        server = Server(PLAT, mix.apps(), um(10))
        base = server._steady().ipc[1]
        server.set_mba_scale([1.0] + [0.3] * 9)
        throttled = server._steady().ipc[1]
        assert throttled < base

    def test_mba_scale_length_checked(self):
        server = Server(PLAT, make_mix("namd1", "lbm1", n_be=2).apps(), um(3))
        with pytest.raises(ValueError, match="mba_scale must have length 3"):
            server.set_mba_scale([1.0, 0.5])
        with pytest.raises(ValueError, match="mba_scale must have length 3"):
            server.set_mba_scale([1.0, 0.5, 0.5, 0.5])
        assert server.mba_scale is None

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, float("nan")])
    def test_mba_scale_range_checked(self, bad):
        # Rejected when set, not on the next solver miss: the server holds
        # its operating point, so a bad vector could otherwise go unnoticed
        # until much later.
        server = Server(PLAT, make_mix("namd1", "lbm1", n_be=2).apps(), um(3))
        server.set_mba_scale([1.0, 0.5, 0.5])
        with pytest.raises(ValueError, match=r"entries must be in \(0, 1\]"):
            server.set_mba_scale([1.0, bad, 0.5])
        assert server.mba_scale == (1.0, 0.5, 0.5)

    def test_mba_scale_bounds_accepted(self):
        server = Server(PLAT, make_mix("namd1", "lbm1", n_be=2).apps(), um(3))
        server.set_mba_scale([1.0, 1e-3, 1.0])
        assert server.mba_scale == (1.0, 1e-3, 1.0)
        server.set_mba_scale(None)
        assert server.mba_scale is None

    def test_reconfiguration_reaches_held_operating_point(self):
        mix = make_mix("omnetpp1", "milc1", n_be=9)
        server = Server(PLAT, mix.apps(), PartitionSpec.hp_be(19, 10, 20))
        held = server.steady_state()
        server.set_partition(PartitionSpec.hp_be(19, 10, 20))
        assert server.steady_state() is held
        server.set_partition(PartitionSpec.hp_be(2, 10, 20))
        squeezed = server.steady_state()
        assert squeezed.ipc[0] < held.ipc[0]
        server.set_mba_scale([1.0] + [0.5] * 9)
        assert server.steady_state() is not squeezed
        server.set_mba_scale(None)
        server.set_prefetch_levels([0.0] * 10)
        assert server.steady_state() is squeezed


class TestRequestTelemetry:
    """With telemetry on, every ``advance`` and every ``steady_state``
    read counts one steady request, even where the held operating point
    lets ``advance`` skip re-resolving it."""

    @pytest.mark.parametrize(
        "policy, hp, be",
        [("DICER", "wrf1", "lbm1"), ("CBP", "omnetpp1", "lbm1")],
    )
    def test_one_request_per_call(self, monkeypatch, policy, hp, be):
        calls = [0]

        def counted(method):
            def wrapper(self, *args, **kwargs):
                calls[0] += 1
                return method(self, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(Server, "advance", counted(Server.advance))
        monkeypatch.setattr(
            Server, "steady_state", counted(Server.steady_state)
        )
        registry, _ = obs.enable()
        try:
            run_pair(
                make_mix(hp, be, n_be=9),
                policy_from_name(policy),
                precision="exact",
            )
            requests = registry.counter("server.steady_requests").value
            hits = registry.counter("server.memo_hits").value
        finally:
            obs.disable()
        assert calls[0] > 100
        assert requests == calls[0]
        # Most requests find the held point; the rest solved a new one.
        assert calls[0] / 2 < hits < requests
