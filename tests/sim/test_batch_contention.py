"""``solve_steady_state_batch``: API, edge cases and validation.

At ``precision="exact"`` the batch entry point solves each point with the
scalar :func:`repro.sim.contention.solve_steady_state`, so every lane must
be byte-identical to a scalar solve of its point (DESIGN.md §7) — batch
results flow into the steady-state memo, whose invariant is that every
entry equals a cold scalar solve of its key. These tests pin that over
the catalog and on the edge cases (ragged core counts, MBA throttles,
non-default tolerances, convergence failures). They also cover the
solver counters, the rejection of iteration settings the fixed point
cannot honour, and ``SteadyStateCache.solve_many``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.contention import (
    ConvergenceError,
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
    """Every catalog pair x every quick-grid partition, batch ≡ scalar.

    The exact batch is a loop over the scalar solver, so this pins the
    public contract (exact batch lanes are cold scalar solves) rather
    than a second kernel.
    """

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
        with pytest.raises(ConvergenceError) as scalar:
            solve_steady_state(PLAT, phases, part, max_iter=1)
        with pytest.raises(ConvergenceError) as batch:
            solve_steady_state_batch(PLAT, [(phases, part)], max_iter=1)
        # The batch names the failing lane, then the scalar message.
        assert str(batch.value) == f"lane 0: {scalar.value}"

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
        # Each exact point is one scalar solve.
        assert after["scalar_solves"] == before["scalar_solves"] + 3
        assert after["scalar_iterations"] - before["scalar_iterations"] == sum(
            s.iterations for s in states
        )
        assert after["fast_solves"] == before["fast_solves"]

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
        assert by_kernel["exact"]["solves"] == after["scalar_solves"]
        assert by_kernel["exact"]["iterations"] == after["scalar_iterations"]


def _omnetpp_lbm_point():
    apps = catalog()
    phases = (apps["omnetpp1"].phases[0],) + (apps["lbm1"].phases[0],) * 9
    return phases, PartitionSpec.unmanaged(10, 20)


def _solve_one(precision, **kwargs):
    return solve_steady_state(
        PLAT, *_omnetpp_lbm_point(), precision=precision, **kwargs
    )


def _solve_batch(precision, **kwargs):
    return solve_steady_state_batch(
        PLAT, [_omnetpp_lbm_point()], precision=precision, **kwargs
    )


ENTRY_POINTS = {"scalar": _solve_one, "batch": _solve_batch}


class TestIterationSettings:
    """Both entry points reject settings the fixed point cannot honour.

    With ``damping=0`` the iterate never moves, so the cold start would
    come back "converged" after one iteration (HP IPC 20 % above the real
    fixed point on this point); a non-positive or NaN ``tol`` would burn
    the whole budget, and a damping outside (0, 1] fails deep in the
    sharing step.
    """

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("damping", [0.0, -0.5, 1.5, float("nan")])
    def test_bad_damping_rejected(self, entry, precision, damping):
        with pytest.raises(ValueError, match="damping must be in"):
            ENTRY_POINTS[entry](precision, damping=damping)

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize(
        "tol", [0.0, -1e-6, float("nan"), float("inf")]
    )
    def test_bad_tol_rejected(self, entry, precision, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            ENTRY_POINTS[entry](precision, tol=tol)

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
    def test_bad_max_iter_rejected(self, entry, precision, max_iter):
        with pytest.raises(ValueError, match="max_iter must be an int"):
            ENTRY_POINTS[entry](precision, max_iter=max_iter)

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_full_damping_accepted(self, precision):
        state = _solve_one(precision, damping=1.0)
        assert state.iterations >= 1

    def test_empty_batch_still_validates(self):
        with pytest.raises(ValueError, match="damping must be in"):
            solve_steady_state_batch(PLAT, [], damping=0.0)


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
            memoised = cache[key]
            assert_states_identical(
                solve_steady_state(PLAT, phases, partition), memoised
            )

    def test_hits_and_misses_counted(self, clean_caches):
        points = self.make_points(4)
        cache = SteadyStateCache()
        before = solver_counters()["scalar_solves"]
        states = cache.solve_many(PLAT, points)
        assert solver_counters()["scalar_solves"] == before + 4
        again = cache.solve_many(PLAT, points)
        assert solver_counters()["scalar_solves"] == before + 4
        assert all(a is b for a, b in zip(states, again))

    def test_duplicates_solved_once(self, clean_caches):
        [point] = self.make_points(1)
        cache = SteadyStateCache()
        before = solver_counters()
        states = cache.solve_many(PLAT, [point] * 4)
        after = solver_counters()
        assert len(cache) == 1
        # One distinct exact point -> one scalar solve.
        assert after["scalar_solves"] == before["scalar_solves"] + 1
        assert after["fast_solves"] == before["fast_solves"]
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
        assert after["fast_solves"] == before["fast_solves"]

    def test_mba_points_normalised_and_cached(self, clean_caches):
        apps = catalog()
        phases = tuple(apps[n].phases[0] for n in app_names()[:2])
        part = PartitionSpec.unmanaged(2, 20)
        cache = SteadyStateCache()
        [a] = cache.solve_many(PLAT, [(phases, part, [1.0, 0.5])])
        # Same point through the scalar front door must be a hit.
        b = cache.solve(PLAT, phases, part, mba_scale=(1.0, 0.5))
        assert a is b
