"""Properties of the prefetch-throttle axis (the zoo's third knob).

The solver models prefetch throttling per phase: level ``l`` re-exposes
hidden stall (effective blocking × ``1 + prefetch_hide*l``) and removes
wasted link traffic (bytes-per-miss × ``1 - prefetch_waste*l``). These
Hypothesis suites pin the axis's contract:

* throughput is monotone non-increasing in the throttle level when the
  prefetcher is pure benefit (``waste = 0``);
* pure-waste prefetch is free to throttle — IPC never drops, link bytes
  never rise;
* level bounds are enforced end-to-end (solver, platform quantiser,
  ``Server.set_prefetch_levels``);
* level ``0.0`` and ``prefetch=None`` are bitwise-identical operating
  points;
* the fast solver honours its tolerance contract on throttled points
  exactly as on unthrottled ones.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.contention import (
    _fast_contract_violations,
    solve_steady_state,
    solve_steady_state_batch,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM, PlatformConfig
from repro.sim.server import Server
from repro.workloads.app import Phase
from repro.workloads.catalog import catalog
from repro.workloads.mrc import ConstantMRC

PLAT = TABLE1_PLATFORM

#: Convergence slack for monotonicity comparisons: the exact kernel stops
#: at tol=1e-6, so neighbouring levels can disagree by solver noise even
#: when the underlying curve is flat.
SOLVER_SLACK = 1e-5

def make_test_phase(
    *,
    hide: float,
    waste: float,
    apki: float = 20.0,
    miss_ratio: float = 0.9,
    blocking: float = 0.3,
) -> Phase:
    return Phase(
        name="p",
        instructions=1e12,
        cpi_exe=0.6,
        apki=apki,
        mrc=ConstantMRC(miss_ratio),
        blocking=blocking,
        write_frac=0.3,
        prefetch_hide=hide,
        prefetch_waste=waste,
    )


def solve_single(phase: Phase, level: float | None):
    part = PartitionSpec.unmanaged(1, PLAT.llc_ways)
    prefetch = None if level is None else (level,)
    return solve_steady_state(PLAT, (phase,), part, prefetch=prefetch)


class TestMonotonicity:
    @given(
        hide=st.floats(min_value=0.0, max_value=1.0),
        levels=st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=2,
            max_size=6,
        ),
        apki=st.floats(min_value=1.0, max_value=30.0),
        blocking=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=60, deadline=None)
    def test_throughput_non_increasing_in_level(
        self, hide, levels, apki, blocking
    ):
        """With no waste, throttling only re-exposes stall: IPC sinks."""
        phase = make_test_phase(
            hide=hide, waste=0.0, apki=apki, blocking=blocking
        )
        ordered = sorted(levels)
        ipcs = [float(solve_single(phase, l).ipc[0]) for l in ordered]
        for lo, hi in zip(ipcs, ipcs[1:]):
            assert hi <= lo * (1.0 + SOLVER_SLACK)

    @given(
        waste=st.floats(min_value=0.0, max_value=0.9),
        levels=st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=2,
            max_size=6,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_pure_waste_throttling_is_free(self, waste, levels):
        """With no hide, throttling removes useless bytes: IPC never
        drops and link traffic never rises."""
        phase = make_test_phase(hide=0.0, waste=waste)
        ordered = sorted(levels)
        states = [solve_single(phase, l) for l in ordered]
        for lo, hi in zip(states, states[1:]):
            assert float(hi.ipc[0]) >= float(lo.ipc[0]) * (
                1.0 - SOLVER_SLACK
            )
            assert float(hi.bw_bytes[0]) <= float(lo.bw_bytes[0]) * (
                1.0 + SOLVER_SLACK
            )

    def test_throttling_streaming_bes_helps_a_starved_hp(
        self, clean_caches
    ):
        """The CBP asymmetry end-to-end: squelching waste-heavy streaming
        BEs frees link bandwidth the HP immediately converts to IPC."""
        apps = catalog()
        phases = (apps["omnetpp1"].phases[0],) + (
            apps["milc1"].phases[0],
        ) * 9
        part = PartitionSpec.hp_be(12, 10, PLAT.llc_ways)
        free = solve_steady_state(PLAT, phases, part)
        throttled = solve_steady_state(
            PLAT, phases, part, prefetch=(0.0,) + (1.0,) * 9
        )
        assert float(throttled.ipc[0]) > float(free.ipc[0])


class TestBounds:
    @given(level=st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=60, deadline=None)
    def test_quantiser_lands_on_the_actuator_grid(self, level):
        q = PLAT.quantise_prefetch(level)
        assert 0.0 <= q <= 1.0
        steps = q * PLAT.prefetch_levels
        assert steps == round(steps)  # k / prefetch_levels exactly

    @given(steps=st.integers(min_value=1, max_value=8))
    def test_quantiser_is_idempotent(self, steps):
        plat = PlatformConfig(prefetch_levels=steps)
        for k in range(steps + 1):
            level = k / steps
            assert plat.quantise_prefetch(level) == level

    @given(bad=st.sampled_from([-0.25, -1e-9, 1.0 + 1e-9, 2.0]))
    def test_solver_rejects_out_of_range_levels(self, bad):
        phase = make_test_phase(hide=0.3, waste=0.1)
        with pytest.raises(ValueError, match="prefetch levels"):
            solve_single(phase, bad)

    def test_solver_rejects_wrong_length(self):
        phase = make_test_phase(hide=0.3, waste=0.1)
        part = PartitionSpec.unmanaged(1, PLAT.llc_ways)
        with pytest.raises(ValueError, match="prefetch must have length"):
            solve_steady_state(PLAT, (phase,), part, prefetch=(0.5, 0.5))

    def test_server_rejects_mismatched_levels(self, clean_caches):
        apps = catalog()
        server = Server(PLAT, [apps["omnetpp1"], apps["bzip22"]])
        with pytest.raises(ValueError, match="prefetch covers"):
            server.set_prefetch_levels((0.5,))

    def test_server_quantises_and_normalises(self, clean_caches):
        apps = catalog()
        server = Server(PLAT, [apps["omnetpp1"], apps["bzip22"]])
        server.set_prefetch_levels((0.3, 0.9))  # grid is quarters
        assert server.prefetch == (0.25, 1.0)
        server.set_prefetch_levels((0.0, 0.1))  # 0.1 rounds down to 0
        assert server.prefetch is None  # all-zero collapses to None
        server.set_prefetch_levels(None)
        assert server.prefetch is None


class TestZeroIdentity:
    @given(
        hide=st.floats(min_value=0.0, max_value=1.0),
        waste=st.floats(min_value=0.0, max_value=0.9),
        n=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_level_zero_is_bitwise_none(self, hide, waste, n):
        phase = make_test_phase(hide=hide, waste=waste)
        part = PartitionSpec.unmanaged(n, PLAT.llc_ways)
        plain = solve_steady_state(PLAT, (phase,) * n, part)
        zeroed = solve_steady_state(
            PLAT, (phase,) * n, part, prefetch=(0.0,) * n
        )
        assert np.array_equal(plain.ipc, zeroed.ipc)
        assert np.array_equal(plain.ways, zeroed.ways)
        assert np.array_equal(plain.bw_bytes, zeroed.bw_bytes)
        assert plain.latency_cycles == zeroed.latency_cycles
        assert plain.iterations == zeroed.iterations


class TestKernelAgreement:
    """Throttled points obey the same fast-vs-exact contract."""

    @given(
        hide=st.floats(min_value=0.0, max_value=1.0),
        waste=st.floats(min_value=0.0, max_value=0.9),
        level=st.floats(min_value=0.0, max_value=1.0),
        n_be=st.integers(min_value=1, max_value=9),
    )
    @settings(max_examples=40, deadline=None)
    def test_fast_within_contract_on_throttled_points(
        self, hide, waste, level, n_be
    ):
        be = make_test_phase(hide=hide, waste=waste)
        hp = make_test_phase(hide=0.1, waste=0.05, blocking=0.7)
        phases = (hp,) + (be,) * n_be
        part = PartitionSpec.hp_be(10, n_be + 1, PLAT.llc_ways)
        points = [(phases, part, None, (0.0,) + (level,) * n_be)]
        fast = solve_steady_state_batch(PLAT, points, precision="fast")
        exact = solve_steady_state_batch(PLAT, points, precision="exact")
        problems = _fast_contract_violations(fast[0], exact[0])
        assert not problems, problems
