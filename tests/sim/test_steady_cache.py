"""Tests for the per-``Server`` steady-state memo."""

import numpy as np

from repro.sim.contention import (
    SteadyStateCache,
    solve_steady_state,
    solver_counters,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import Server
from repro.workloads.mix import make_mix


def _apps(n_be: int = 3):
    return make_mix("omnetpp1", "gcc_base3", n_be=n_be).apps()


def _phases(n_be: int = 3):
    return tuple(app.phases[0] for app in _apps(n_be))


def _state_fields(state):
    return (
        state.ipc,
        state.ways,
        state.miss_ratio,
        state.bw_bytes,
        state.latency_cycles,
        state.utilisation,
    )


def _assert_same(a, b):
    for x, y in zip(_state_fields(a), _state_fields(b)):
        assert np.array_equal(x, y)


class TestSteadyStateCache:
    def test_memo_matches_cold_solve_across_partitions(self):
        """The memo must be invisible: a Server's state equals a cold
        solve for every partition in a sweep, and a repeat is a hit."""
        apps = _apps()
        phases = _phases()
        n = len(phases)
        server = Server(TABLE1_PLATFORM, apps)
        for hp_ways in range(1, 17):
            partition = PartitionSpec.hp_be(
                hp_ways, n_cores=n, total_ways=TABLE1_PLATFORM.llc_ways
            )
            cold = solve_steady_state(TABLE1_PLATFORM, phases, partition)
            server.set_partition(partition)
            via_memo = server.steady_state()
            _assert_same(cold, via_memo)
            key = SteadyStateCache.make_key(
                TABLE1_PLATFORM, phases, partition, None
            )
            assert server._memo[key] is via_memo
            before = solver_counters()["scalar_solves"]
            assert server._memo.solve(
                TABLE1_PLATFORM, phases, partition
            ) is via_memo  # a pure hit: nothing solved
            assert solver_counters()["scalar_solves"] == before
        assert len(server._memo) == 16

    def test_distinct_operating_points_distinct_entries(self):
        phases = _phases()
        n = len(phases)
        cache = SteadyStateCache()
        um = PartitionSpec.unmanaged(n, TABLE1_PLATFORM.llc_ways)
        ct = PartitionSpec.hp_be(19, n_cores=n, total_ways=20)
        before = solver_counters()["scalar_solves"]
        cache.solve(TABLE1_PLATFORM, phases, um)
        cache.solve(TABLE1_PLATFORM, phases, ct)
        cache.solve(
            TABLE1_PLATFORM, phases, um, mba_scale=[1.0, 0.5, 0.5, 0.5]
        )
        cache.solve(TABLE1_PLATFORM, phases, um, precision="fast")
        assert len(cache) == 4
        assert solver_counters()["scalar_solves"] == before + 3

    def test_server_memo_entries_match_cold_solves(self):
        """Every entry a run leaves in its memo is a cold solve of its
        key."""
        server = Server(TABLE1_PLATFORM, _apps())
        server.run_until_all_complete()
        assert server._memo
        for key, state in server._memo.items():
            phases, _partition_key, mba, platform, precision, prefetch = key
            assert precision == "exact"
            cold = solve_steady_state(
                platform, phases, server.partition, mba_scale=mba,
                prefetch=prefetch,
            )
            _assert_same(cold, state)

    def test_each_server_keeps_its_own_memo(self):
        apps = _apps()
        first = Server(TABLE1_PLATFORM, apps)
        first.run_until_all_complete()
        before = solver_counters()["scalar_solves"]
        second = Server(TABLE1_PLATFORM, apps)
        second.run_until_all_complete()
        assert second._memo is not first._memo
        assert second._memo.keys() == first._memo.keys()
        assert (
            solver_counters()["scalar_solves"] - before == len(second._memo)
        )
        assert second.time == first.time
