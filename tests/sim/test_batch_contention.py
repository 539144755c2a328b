"""Batch solver parity: ``solve_steady_state_batch`` vs the scalar solver.

The batch kernel's contract is *bitwise* lane-for-lane agreement with
:func:`repro.sim.contention.solve_steady_state` (DESIGN.md §7) — not
approximate agreement — because batch-solved results flow into the
process-wide memo, whose invariant is that every entry equals a cold
scalar solve of its key. These tests enforce the contract exhaustively
over the catalog and on the edge cases (ragged core counts, MBA
throttles, non-default tolerances, convergence failures).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.contention import (
    ConvergenceError,
    GLOBAL_STEADY_CACHE,
    SteadyStateCache,
    solve_steady_state,
    solve_steady_state_batch,
    solver_counters,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.catalog import app_names, catalog

PLAT = TABLE1_PLATFORM

PARTITIONS = (
    PartitionSpec.unmanaged(10, 20),
    PartitionSpec.hp_be(19, 10, 20),
    PartitionSpec.hp_be(1, 10, 20),
)


def assert_states_identical(scalar, batch, label=""):
    """Every field byte-identical, including the iteration count."""
    assert np.array_equal(scalar.ipc, batch.ipc), f"{label}: ipc"
    assert np.array_equal(scalar.ways, batch.ways), f"{label}: ways"
    assert np.array_equal(
        scalar.miss_ratio, batch.miss_ratio
    ), f"{label}: miss_ratio"
    assert np.array_equal(
        scalar.bw_bytes, batch.bw_bytes
    ), f"{label}: bw_bytes"
    assert scalar.latency_cycles == batch.latency_cycles, f"{label}: latency"
    assert scalar.utilisation == batch.utilisation, f"{label}: utilisation"
    assert scalar.iterations == batch.iterations, f"{label}: iterations"


def solve_point_scalar(point):
    if len(point) == 2:
        return solve_steady_state(PLAT, point[0], point[1])
    return solve_steady_state(PLAT, point[0], point[1], mba_scale=point[2])


class TestCatalogParity:
    """Exhaustive parity: every catalog pair x every quick-grid partition."""

    @pytest.mark.parametrize("hp_name", app_names())
    def test_parity_for_all_be_partners(self, hp_name):
        apps = catalog()
        points = []
        for be_name in app_names():
            be_phase = apps[be_name].phases[0]
            for hp_phase in apps[hp_name].phases:
                phases = (hp_phase,) + (be_phase,) * 9
                for part in PARTITIONS:
                    points.append((phases, part))
        batch = solve_steady_state_batch(PLAT, points)
        assert len(batch) == len(points)
        for i, point in enumerate(points):
            assert_states_identical(
                solve_point_scalar(point), batch[i], label=f"point {i}"
            )


class TestBatchEdgeCases:
    def test_empty_batch(self):
        assert solve_steady_state_batch(PLAT, []) == []

    def test_single_point(self):
        apps = catalog()
        phases = (apps[app_names()[0]].phases[0],) * 4
        point = (phases, PartitionSpec.unmanaged(4, 20))
        [batch] = solve_steady_state_batch(PLAT, [point])
        assert_states_identical(solve_point_scalar(point), batch)

    def test_ragged_core_counts(self):
        apps = catalog()
        names = app_names()
        a, b = apps[names[0]].phases[0], apps[names[3]].phases[0]
        points = [
            ((a,), PartitionSpec.unmanaged(1, 20)),
            ((a, b), PartitionSpec.hp_be(10, 2, 20)),
            ((a,) + (b,) * 9, PartitionSpec.unmanaged(10, 20)),
            ((b, a, b), PartitionSpec.hp_be(5, 3, 20)),
        ]
        batch = solve_steady_state_batch(PLAT, points)
        for i, point in enumerate(points):
            assert_states_identical(
                solve_point_scalar(point), batch[i], label=f"point {i}"
            )

    def test_mba_scale_parity(self):
        apps = catalog()
        phases = tuple(
            apps[name].phases[0] for name in app_names()[:3]
        )
        mba = (1.0, 0.4, 0.7)
        point = (phases, PartitionSpec.unmanaged(3, 20), mba)
        [batch] = solve_steady_state_batch(PLAT, [point])
        assert_states_identical(solve_point_scalar(point), batch)

    def test_mixed_mba_and_plain_lanes(self):
        apps = catalog()
        phases = tuple(apps[name].phases[0] for name in app_names()[:2])
        part = PartitionSpec.unmanaged(2, 20)
        points = [(phases, part), (phases, part, (1.0, 0.5))]
        batch = solve_steady_state_batch(PLAT, points)
        for i, point in enumerate(points):
            assert_states_identical(
                solve_point_scalar(point), batch[i], label=f"point {i}"
            )

    def test_non_default_tol_and_damping_parity(self):
        apps = catalog()
        phases = (apps[app_names()[1]].phases[0],) * 5
        part = PartitionSpec.hp_be(4, 5, 20)
        kwargs = dict(tol=1e-4, damping=0.3)
        scalar = solve_steady_state(PLAT, phases, part, **kwargs)
        [batch] = solve_steady_state_batch(PLAT, [(phases, part)], **kwargs)
        assert_states_identical(scalar, batch)

    def test_convergence_error_parity(self):
        apps = catalog()
        phases = (apps[app_names()[0]].phases[0],) * 10
        part = PartitionSpec.unmanaged(10, 20)
        with pytest.raises(ConvergenceError):
            solve_steady_state(PLAT, phases, part, max_iter=1)
        with pytest.raises(ConvergenceError):
            solve_steady_state_batch(PLAT, [(phases, part)], max_iter=1)

    def test_bad_point_shape_rejected(self):
        apps = catalog()
        phases = (apps[app_names()[0]].phases[0],)
        part = PartitionSpec.unmanaged(1, 20)
        with pytest.raises(ValueError, match="points must be"):
            solve_steady_state_batch(
                PLAT, [(phases, part, None, None, "extra")]
            )

    def test_bad_prefetch_level_rejected(self):
        apps = catalog()
        phases = (apps[app_names()[0]].phases[0],)
        part = PartitionSpec.unmanaged(1, 20)
        with pytest.raises(ValueError, match="prefetch levels"):
            solve_steady_state_batch(PLAT, [(phases, part, None, (1.5,))])
        with pytest.raises(ValueError, match="prefetch must have length"):
            solve_steady_state_batch(
                PLAT, [(phases, part, None, (0.5, 0.5))]
            )

    def test_phase_count_mismatch_rejected(self):
        apps = catalog()
        phases = (apps[app_names()[0]].phases[0],) * 3
        with pytest.raises(ValueError, match="expected 2 phases"):
            solve_steady_state_batch(
                PLAT, [(phases, PartitionSpec.unmanaged(2, 20))]
            )

    def test_counters_track_batch_points(self):
        apps = catalog()
        phases = (apps[app_names()[2]].phases[0],) * 2
        part = PartitionSpec.unmanaged(2, 20)
        before = solver_counters()
        states = solve_steady_state_batch(PLAT, [(phases, part)] * 3)
        after = solver_counters()
        assert after["batch_solves"] == before["batch_solves"] + 1
        assert after["batch_points"] == before["batch_points"] + 3
        assert after["batch_iterations"] - before["batch_iterations"] == sum(
            s.iterations for s in states
        )
        assert after["scalar_solves"] == before["scalar_solves"]

    def test_by_kernel_rows_attribute_work_per_precision(self):
        apps = catalog()
        phases = (apps[app_names()[3]].phases[0],) * 2
        points = [(phases, PartitionSpec.unmanaged(2, 20))] * 2
        before = solver_counters()["by_kernel"]
        solve_steady_state_batch(PLAT, points, precision="exact")
        solve_steady_state_batch(PLAT, points, precision="fast")
        after = solver_counters()
        by_kernel = after["by_kernel"]
        assert set(by_kernel) == {"exact", "fast"}
        for counts in by_kernel.values():
            assert set(counts) == {"solves", "points", "iterations"}
        assert by_kernel["exact"]["points"] == before["exact"]["points"] + 2
        assert by_kernel["fast"]["points"] == before["fast"]["points"] + 2
        assert by_kernel["fast"]["solves"] == after["fast_solves"]
        assert by_kernel["exact"]["solves"] == (
            after["scalar_solves"] + after["batch_solves"]
        )


class TestSolveMany:
    """SteadyStateCache.solve_many: memoisation + batch dispatch."""

    def make_points(self, n=5, n_cores=4):
        apps = catalog()
        names = app_names()
        points = []
        for i in range(n):
            phases = tuple(
                apps[names[(i + j) % len(names)]].phases[0]
                for j in range(n_cores)
            )
            points.append((phases, PartitionSpec.unmanaged(n_cores, 20)))
        return points

    def test_results_byte_identical_to_scalar(self, clean_caches):
        points = self.make_points()
        cache = SteadyStateCache()
        states = cache.solve_many(PLAT, points)
        for point, state in zip(points, states):
            assert_states_identical(solve_point_scalar(point), state)

    def test_memo_entries_byte_identical_to_cold_scalar(self, clean_caches):
        points = self.make_points()
        cache = SteadyStateCache()
        cache.solve_many(PLAT, points)
        for phases, partition in points:
            key = SteadyStateCache.make_key(PLAT, phases, partition, None)
            memoised = cache._data[key]
            assert_states_identical(
                solve_steady_state(PLAT, phases, partition), memoised
            )

    def test_hits_and_misses_counted(self, clean_caches):
        points = self.make_points(4)
        cache = SteadyStateCache()
        cache.solve_many(PLAT, points)
        assert (cache.hits, cache.misses) == (0, 4)
        cache.solve_many(PLAT, points)
        assert (cache.hits, cache.misses) == (4, 4)

    def test_duplicates_solved_once(self, clean_caches):
        [point] = self.make_points(1)
        cache = SteadyStateCache()
        before = solver_counters()
        states = cache.solve_many(PLAT, [point] * 4)
        after = solver_counters()
        assert cache.misses == 1 and cache.hits == 3
        # One distinct exact point -> one scalar solve, no batch.
        assert after["scalar_solves"] == before["scalar_solves"] + 1
        assert after["batch_solves"] == before["batch_solves"]
        assert all(s is states[0] for s in states)

    @pytest.mark.parametrize("n", [1, 3, 16, 64])
    def test_exact_never_batches(self, clean_caches, n):
        points = self.make_points(n)
        cache = SteadyStateCache()
        before = solver_counters()
        cache.solve_many(PLAT, points)
        after = solver_counters()
        assert after["scalar_solves"] == before["scalar_solves"] + len(
            {cache.make_key(PLAT, ph, part, None) for ph, part in points}
        )
        assert after["batch_solves"] == before["batch_solves"]
        assert after["batch_points"] == before["batch_points"]

    def test_results_survive_tiny_cache_eviction(self, clean_caches):
        points = self.make_points(5)
        cache = SteadyStateCache(max_entries=1)
        states = cache.solve_many(PLAT, points)
        assert len(cache) == 1  # LRU bound enforced during inserts
        for point, state in zip(points, states):
            assert_states_identical(solve_point_scalar(point), state)

    def test_served_from_global_cache(self, clean_caches):
        points = self.make_points(3)
        states = GLOBAL_STEADY_CACHE.solve_many(PLAT, points)
        again = GLOBAL_STEADY_CACHE.solve_many(PLAT, points)
        assert all(a is b for a, b in zip(states, again))

    def test_mba_points_normalised_and_cached(self, clean_caches):
        apps = catalog()
        phases = tuple(apps[n].phases[0] for n in app_names()[:2])
        part = PartitionSpec.unmanaged(2, 20)
        cache = SteadyStateCache()
        [a] = cache.solve_many(PLAT, [(phases, part, [1.0, 0.5])])
        # Same point through the scalar front door must be a hit.
        b = cache.solve(PLAT, phases, part, mba_scale=(1.0, 0.5))
        assert a is b
