"""Fast-math solver mode: the tolerance contract and its guard rails.

``precision="fast"`` trades the exact kernel's bitwise scalar parity for a
*tolerance* contract (DESIGN.md §10): every output quantity stays within
``FAST_REL_TOL``/``FAST_WAYS_ATOL`` of the exact solve of the same point.
These tests pin the contract over the application catalog (enumerated and
property-based), the fast kernel's batch-composition independence (the
property that makes fast results memoisable), the ``REPRO_FAST_CHECK``
shadow-assertion mode, and failure attribution. The exhaustive 3481-pair
sweep is ``fast_math``-marked and runs via ``make fastmath``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.contention import (
    ConvergenceError,
    FastContractError,
    _assert_fast_contract,
    _fast_contract_violations,
    _parse_points,
    solve_steady_state_batch,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.catalog import app_names, catalog

PLAT = TABLE1_PLATFORM

PARTITIONS = (
    PartitionSpec.unmanaged(10, 20),
    PartitionSpec.hp_be(5, 10, 20),
    PartitionSpec.hp_be(19, 10, 20),
)

def solve_both(points):
    """(fast, exact) result lists for one point population."""
    fast = solve_steady_state_batch(PLAT, points, precision="fast")
    exact = solve_steady_state_batch(PLAT, points, precision="exact")
    return fast, exact


def assert_within_contract(fast_states, exact_states, points):
    for i, (f, e) in enumerate(zip(fast_states, exact_states)):
        problems = _fast_contract_violations(f, e)
        assert not problems, f"point {i} ({points[i][1]}): {problems}"


def assert_states_bitwise(a, b, label=""):
    assert np.array_equal(a.ipc, b.ipc), f"{label}: ipc"
    assert np.array_equal(a.ways, b.ways), f"{label}: ways"
    assert np.array_equal(a.miss_ratio, b.miss_ratio), f"{label}: miss_ratio"
    assert np.array_equal(a.bw_bytes, b.bw_bytes), f"{label}: bw_bytes"
    assert a.latency_cycles == b.latency_cycles, f"{label}: latency"
    assert a.utilisation == b.utilisation, f"{label}: utilisation"
    assert a.iterations == b.iterations, f"{label}: iterations"


class TestToleranceContract:
    """Fast results track exact ones within the documented band."""

    @pytest.mark.parametrize("hp_name", app_names()[::8])
    def test_catalog_slice_within_contract(self, hp_name):
        apps = catalog()
        be_phase = apps["bzip22"].phases[0]
        points = []
        for hp_phase in apps[hp_name].phases:
            phases = (hp_phase,) + (be_phase,) * 9
            for part in PARTITIONS:
                points.append((phases, part))
        fast, exact = solve_both(points)
        assert_within_contract(fast, exact, points)

    @settings(deadline=None, max_examples=30)
    @given(
        hp=st.sampled_from(app_names()),
        be=st.sampled_from(app_names()),
        n_be=st.integers(min_value=1, max_value=9),
        hp_ways=st.integers(min_value=1, max_value=18),
        throttle=st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=1.0)
        ),
    )
    def test_contract_holds_everywhere(self, hp, be, n_be, hp_ways, throttle):
        apps = catalog()
        phases = (apps[hp].phases[0],) + (apps[be].phases[0],) * n_be
        n = n_be + 1
        partition = (
            PartitionSpec.hp_be(hp_ways, n, PLAT.llc_ways)
            if n >= 2 and hp_ways + 1 <= PLAT.llc_ways
            else PartitionSpec.unmanaged(n, PLAT.llc_ways)
        )
        mba = None if throttle is None else (1.0,) + (throttle,) * n_be
        points = [(phases, partition, mba)]
        fast, exact = solve_both(points)
        assert_within_contract(fast, exact, points)

    def test_mba_throttled_points_within_contract(self):
        apps = catalog()
        phases = (apps["omnetpp1"].phases[0],) + (apps["lbm1"].phases[0],) * 9
        points = [
            (phases, part, (1.0,) + (0.25,) * 9) for part in PARTITIONS
        ]
        fast, exact = solve_both(points)
        assert_within_contract(fast, exact, points)


class TestCompositionIndependence:
    """A fast lane's bits cannot depend on its batch mates.

    This is what makes fast results safe to memoise: a cache hit produced
    inside one batch must equal the solve any other batch (or a singleton)
    would have produced for the same key.
    """

    def _points(self):
        apps = catalog()
        names = app_names()[::10]
        points = []
        for hp in names:
            for part in PARTITIONS:
                phases = (apps[hp].phases[0],) + (
                    apps["gcc_base3"].phases[0],
                ) * 9
                points.append((phases, part))
        return points

    def test_singleton_equals_batch(self):
        points = self._points()
        batch = solve_steady_state_batch(PLAT, points, precision="fast")
        for i, point in enumerate(points):
            solo = solve_steady_state_batch(PLAT, [point], precision="fast")
            assert_states_bitwise(solo[0], batch[i], label=f"point {i}")

    def test_permutation_invariant(self):
        points = self._points()
        batch = solve_steady_state_batch(PLAT, points, precision="fast")
        order = list(reversed(range(len(points))))
        shuffled = solve_steady_state_batch(
            PLAT, [points[i] for i in order], precision="fast"
        )
        for pos, i in enumerate(order):
            assert_states_bitwise(shuffled[pos], batch[i], label=f"point {i}")

    def test_ragged_core_counts_pad_neutrally(self):
        apps = catalog()
        narrow = (
            (apps["omnetpp1"].phases[0],) * 2,
            PartitionSpec.unmanaged(2, 20),
        )
        wide = (
            (apps["lbm1"].phases[0],) * 10,
            PartitionSpec.hp_be(5, 10, 20),
        )
        together = solve_steady_state_batch(
            PLAT, [narrow, wide], precision="fast"
        )
        for i, point in enumerate((narrow, wide)):
            solo = solve_steady_state_batch(PLAT, [point], precision="fast")
            assert_states_bitwise(solo[0], together[i], label=f"point {i}")


class TestFastCheckMode:
    """REPRO_FAST_CHECK=1 shadows every fast solve with an exact one."""

    def test_clean_solves_pass_the_shadow_assertion(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_CHECK", "1")
        apps = catalog()
        phases = (apps["omnetpp1"].phases[0],) + (apps["bzip22"].phases[0],) * 9
        points = [(phases, part) for part in PARTITIONS]
        fast = solve_steady_state_batch(PLAT, points, precision="fast")
        assert len(fast) == len(points)

    def test_contract_breach_raises_fast_contract_error(self):
        apps = catalog()
        phases = (apps["omnetpp1"].phases[0],) + (apps["bzip22"].phases[0],) * 9
        points = [(phases, PARTITIONS[0])]
        fast = solve_steady_state_batch(PLAT, points, precision="fast")
        from dataclasses import replace

        corrupted = [replace(fast[0], ipc=fast[0].ipc * 1.01)]
        parsed = _parse_points(PLAT, points)
        with pytest.raises(FastContractError, match="tolerance contract"):
            _assert_fast_contract(
                PLAT, parsed, corrupted, tol=1e-6, max_iter=800, damping=0.5
            )

    def test_fast_contract_error_is_assertion_error(self):
        assert issubclass(FastContractError, AssertionError)


class TestFailureAttribution:
    """Fast-lane convergence failures say which precision they came from."""

    def test_convergence_error_names_fast_precision(self):
        apps = catalog()
        phases = (apps["lbm1"].phases[0],) * 10
        point = (phases, PartitionSpec.hp_be(1, 10, 20))
        with pytest.raises(ConvergenceError, match="precision=fast"):
            solve_steady_state_batch(
                PLAT, [point], precision="fast", max_iter=1
            )


@pytest.mark.fast_math
class TestFullCatalogSweep:
    """The exhaustive 3481-pair contract sweep (``make fastmath``)."""

    def test_every_pair_every_partition(self):
        apps = catalog()
        names = app_names()
        points = []
        for hp in names:
            for be in names:
                phases = (apps[hp].phases[0],) + (apps[be].phases[0],) * 9
                for part in PARTITIONS:
                    points.append((phases, part))
        fast, exact = solve_both(points)
        assert_within_contract(fast, exact, points)
