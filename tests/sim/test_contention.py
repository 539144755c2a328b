"""Tests for the fixed-point contention solver — convergence, physical
invariants, and directional behaviour."""

import numpy as np
import pytest

from repro.sim.contention import ConvergenceError, solve_steady_state
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.app import Phase
from repro.workloads.catalog import app_names, catalog
from repro.workloads.mrc import ConstantMRC, ExponentialMRC

from tests.sim.test_fast_lanes import _escalating
from tests.sim.test_scalar_oracle import ref_solve

PLAT = TABLE1_PLATFORM


def phase(apki=10.0, mr=None, cpi=0.8, blocking=0.6, wf=0.3, occ=None):
    return Phase(
        name="t",
        instructions=1e10,
        cpi_exe=cpi,
        apki=apki,
        mrc=mr or ConstantMRC(0.5),
        blocking=blocking,
        write_frac=wf,
        occupancy_ways=occ,
    )


class TestBasics:
    def test_single_compute_app(self):
        state = solve_steady_state(
            PLAT, [phase(apki=0.5)], PartitionSpec.unmanaged(1, 20)
        )
        assert state.ipc[0] == pytest.approx(
            1 / (0.8 + 0.0005 * 0.5 * 0.6 * state.latency_cycles), rel=1e-6
        )
        assert state.utilisation < 0.1

    def test_zero_apki_app_has_no_traffic(self):
        state = solve_steady_state(
            PLAT, [phase(apki=0.0)], PartitionSpec.unmanaged(1, 20)
        )
        assert state.bw_bytes[0] == 0.0
        assert state.ipc[0] == pytest.approx(1 / 0.8)

    def test_phase_count_validated(self):
        with pytest.raises(ValueError, match="expected 2"):
            solve_steady_state(
                PLAT, [phase()], PartitionSpec.unmanaged(2, 20)
            )

    def test_deterministic(self):
        args = (PLAT, [phase(), phase(apki=30)], PartitionSpec.unmanaged(2, 20))
        a = solve_steady_state(*args)
        b = solve_steady_state(*args)
        assert np.array_equal(a.ipc, b.ipc)
        assert a.latency_cycles == b.latency_cycles

    def test_budget_escalation_at_the_floor_step(self):
        # The step reaches the 0.02 floor, so the budget grows tenfold
        # (10 -> 100 iterations) before the solve gives up.
        phases, partition = _escalating()
        solve = dict(tol=1e-6, max_iter=10, damping=0.02)
        with pytest.raises(ConvergenceError) as info:
            solve_steady_state(PLAT, phases, partition, **solve)
        with pytest.raises(ConvergenceError) as ref:
            ref_solve(PLAT, phases, partition, **solve)
        assert str(info.value) == str(ref.value)
        assert str(info.value) == (
            "no convergence after 100 iterations (latency=183.2 cy)"
        )


class TestInvariants:
    def _full_server(self, be_phase):
        phases = [phase()] + [be_phase] * 9
        return solve_steady_state(
            PLAT, phases, PartitionSpec.hp_be(19, 10, 20)
        )

    def test_bandwidth_never_exceeds_capacity(self):
        # Even under extreme overload (rationing case).
        state = self._full_server(phase(apki=60, mr=ConstantMRC(0.99)))
        assert state.total_bw_bytes <= PLAT.mem_bw_bytes * (1 + 1e-9)
        assert state.utilisation <= 1.0 + 1e-9

    def test_ways_sum_to_llc(self):
        state = self._full_server(phase(apki=20))
        assert state.ways.sum() == pytest.approx(20.0, abs=1e-3)

    def test_ipcs_positive_and_bounded(self):
        state = self._full_server(phase(apki=40, mr=ConstantMRC(0.9)))
        assert np.all(state.ipc > 0)
        assert np.all(state.ipc < 4.0)

    def test_latency_at_least_base(self):
        state = self._full_server(phase(apki=1))
        assert state.latency_cycles >= PLAT.mem_lat_cycles - 1e-9


class TestDirectional:
    def test_more_hp_ways_lower_hp_miss_ratio(self):
        mrc = ExponentialMRC(peak=0.9, floor=0.1, scale=3)
        results = []
        for hp_ways in (2, 8, 16):
            phases = [phase(apki=15, mr=mrc)] + [phase(apki=5)] * 9
            state = solve_steady_state(
                PLAT, phases, PartitionSpec.hp_be(hp_ways, 10, 20)
            )
            results.append(state.miss_ratio[0])
        assert results[0] > results[1] > results[2]

    def test_squeezing_bes_raises_their_traffic_per_access(self):
        mrc = ExponentialMRC(peak=0.9, floor=0.1, scale=2)
        mrs = {}
        for hp_ways in (2, 19):
            phases = [phase(apki=1)] + [phase(apki=8, mr=mrc)] * 9
            state = solve_steady_state(
                PLAT, phases, PartitionSpec.hp_be(hp_ways, 10, 20)
            )
            mrs[hp_ways] = state.miss_ratio[1]
        assert mrs[19] > mrs[2]

    def test_mba_throttle_slows_target_and_relieves_link(self):
        phases = [phase(apki=2)] + [phase(apki=30, mr=ConstantMRC(0.9),
                                          blocking=0.3)] * 9
        part = PartitionSpec.hp_be(10, 10, 20)
        free = solve_steady_state(PLAT, phases, part)
        throttled = solve_steady_state(
            PLAT, phases, part, mba_scale=[1.0] + [0.3] * 9
        )
        assert throttled.ipc[1] < free.ipc[1]
        assert throttled.ipc[0] > free.ipc[0]  # HP benefits
        assert throttled.total_bw_bytes < free.total_bw_bytes

    def test_mba_scale_validated(self):
        phases = [phase(), phase()]
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError):
            solve_steady_state(PLAT, phases, part, mba_scale=[1.0])
        with pytest.raises(ValueError):
            solve_steady_state(PLAT, phases, part, mba_scale=[1.0, 0.0])

    def test_occupancy_cap_limits_share(self):
        phases = [phase(apki=30, occ=2.0), phase(apki=0.5)]
        state = solve_steady_state(
            PLAT, phases, PartitionSpec.unmanaged(2, 20)
        )
        assert state.ways[0] <= 2.0 + 1e-6


class TestWholeCatalogConvergence:
    """The solver must converge for every phase combination the evaluation
    can produce (HP phase x BE phase x UM/CT)."""

    @pytest.mark.parametrize("hp_name", app_names())
    def test_converges_for_all_be_partners(self, hp_name):
        apps = catalog()
        hp_phases = apps[hp_name].phases
        partitions = (
            PartitionSpec.unmanaged(10, 20),
            PartitionSpec.hp_be(19, 10, 20),
            PartitionSpec.hp_be(1, 10, 20),
        )
        for be_name in app_names():
            for hp_phase in hp_phases:
                be_phase = apps[be_name].phases[0]
                for part in partitions:
                    state = solve_steady_state(
                        PLAT, [hp_phase] + [be_phase] * 9, part
                    )
                    assert state.iterations < 600
                    assert state.total_bw_bytes <= PLAT.mem_bw_bytes * (
                        1 + 1e-9
                    )
