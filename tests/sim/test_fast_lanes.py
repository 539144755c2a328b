"""Bitwise oracle for the fast solver's per-lane loop.

``_solve_lanes_fast`` solves one lane at a time on Python floats: every
lane of a fast batch of at most ``_FAST_LANE_CAP`` points, and the last
lanes of a larger one, which ``_solve_batch_fast`` starts in its
vectorised head and hands over mid-iteration. Run alone on a whole
batch, the lane loop must give every lane the same bits as the kernel
and as the frozen kernel of ``test_fast_oracle.py`` (compared as
``float.hex`` strings hashed with sha256), and a batch that does not
converge must raise the same message on each, naming the same lane. The
batches are the ones ``test_fast_oracle.py`` checks the kernel on, plus
overlap-zone points whose group weights add up nine BE cores (the length
at which NumPy's pairwise sum and the kernel's fixed-order sum part
ways), and failing lanes padded past the cap.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest
from hypothesis import HealthCheck, given, settings

from repro.sim import contention
from repro.sim.contention import (
    _FAST_LANE_CAP,
    ConvergenceError,
    FastContractError,
    _parse_points,
    _solve_batch_fast,
    _solve_lanes_fast,
    solve_steady_state_batch,
    solver_counters,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.app import Phase
from repro.workloads.catalog import catalog
from repro.workloads.mrc import KneeMRC

from tests.sim.test_fast_oracle import (
    FEATURE_BATCH,
    mixed_batches,
    ref_solve_batch_fast,
)

SOLVE = dict(tol=1e-6, max_iter=800, damping=0.5)
_CATALOG = catalog()


def _phase(name: str) -> Phase:
    return _CATALOG[name].phases[0]


def lane_digest(state) -> str:
    """sha256 over the ``float.hex`` of every field of one lane."""
    fields = [
        *(
            [float(x).hex() for x in arr]
            for arr in (state.ipc, state.ways, state.miss_ratio, state.bw_bytes)
        ),
        state.latency_cycles.hex(),
        state.utilisation.hex(),
        state.iterations,
    ]
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def outcome(kernel, platform, points, **solve):
    """Per-lane digests, or the ConvergenceError message the batch raised."""
    parsed = _parse_points(platform, points)
    try:
        states = kernel(platform, parsed, **(solve or SOLVE))
    except ConvergenceError as exc:
        return ("ConvergenceError", str(exc))
    return [lane_digest(s) for s in states]


def assert_lanes_match(platform, points, **solve) -> None:
    lanes = outcome(_solve_lanes_fast, platform, points, **solve)
    assert lanes == outcome(_solve_batch_fast, platform, points, **solve)


def theta_platform(theta: float):
    return dataclasses.replace(TABLE1_PLATFORM, pressure_theta=theta)


def overlap_points() -> list:
    """Ten-core HP/BE ladders with a mixed nine-core BE group."""
    bes = ("lbm1", "mcf1", "gcc_base6", "milc1", "bzip22") * 2
    phases = (_phase("omnetpp1"),) + tuple(_phase(b) for b in bes[:9])
    return [
        (phases, PartitionSpec.hp_be(k, 10, 20, overlap_ways=o))
        for k in (2, 7, 12)
        for o in (1, 3)
    ]


class TestLanesMatchTheVectorisedKernel:
    @pytest.mark.parametrize("theta", (1.0, 0.8))
    def test_feature_batch(self, theta):
        assert_lanes_match(theta_platform(theta), FEATURE_BATCH)

    @pytest.mark.parametrize("theta", (1.0, 0.8))
    def test_feature_batch_singletons(self, theta):
        platform = theta_platform(theta)
        for point in FEATURE_BATCH:
            assert_lanes_match(platform, [point])

    @pytest.mark.parametrize("theta", (1.0, 0.8))
    def test_overlap_zone_with_nine_be_cores(self, theta):
        assert_lanes_match(theta_platform(theta), overlap_points())

    def test_rationing_point(self):
        point = FEATURE_BATCH[-1]
        assert_lanes_match(TABLE1_PLATFORM, [point])
        parsed = _parse_points(TABLE1_PLATFORM, [point])
        (state,) = _solve_lanes_fast(TABLE1_PLATFORM, parsed, **SOLVE)
        assert state.utilisation == pytest.approx(1.0)

    @given(mixed_batches())
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_mixed_batches(self, batch):
        assert_lanes_match(*batch)


def ladder_points(n: int) -> list:
    """``n`` DICER-ladder points of one HP/BE layout; all converge at SOLVE."""
    phases = (_phase("omnetpp1"),) + (_phase("lbm1"),) * 9
    rungs = [
        (phases, PartitionSpec.hp_be(k, 10, 20, overlap_ways=k % 3))
        for k in range(1, 18)
    ]
    return (rungs * (n // len(rungs) + 1))[:n]


class TestDispatch:
    def test_each_side_of_the_cap(self, monkeypatch):
        real = contention._solve_lanes_fast
        finished = []

        def counted(platform, parsed, **solve):
            states = real(platform, parsed, **solve)
            finished.append(len(states))
            return states

        monkeypatch.setattr(contention, "_solve_lanes_fast", counted)
        ladder = ladder_points(_FAST_LANE_CAP + 1)
        for points, on_lanes in ((ladder[:-1], True), (ladder, False)):
            finished.clear()
            before = solver_counters()
            states = solve_steady_state_batch(
                TABLE1_PLATFORM, points, precision="fast"
            )
            after = solver_counters()
            lane_points = after["fast_lane_points"] - before["fast_lane_points"]
            # The float core finishes every lane of a small batch, and the
            # stragglers of a large one, cold or resumed; each counts.
            assert finished == [lane_points]
            if on_lanes:
                assert lane_points == len(points)
            else:
                assert 0 < lane_points < len(points)
            # Every fast lane still counts, whichever path solved it.
            assert after["fast_solves"] - before["fast_solves"] == 1
            assert after["fast_points"] - before["fast_points"] == len(points)
            assert after["fast_iterations"] - before[
                "fast_iterations"
            ] == sum(s.iterations for s in states)
            assert [lane_digest(s) for s in states] == outcome(
                ref_solve_batch_fast, TABLE1_PLATFORM, points
            )


def _nonconvergent() -> tuple:
    um2 = PartitionSpec.unmanaged(2, 20)
    return ((_phase("h264ref1"), _phase("lbm1")), um2)


def _escalating() -> tuple:
    """A lane whose step reaches the floor, so its budget grows tenfold.

    At ``damping=0.02, max_iter=10`` it overruns at round 100, after a
    plain non-converging lane has overrun at round 10.
    """
    sharp = Phase("sharp", 1e10, 0.7, 30.0, KneeMRC(0.95, 0.05, 9.5, 0.01))
    return ((sharp, _phase("mcf1")), PartitionSpec.unmanaged(2, 20))


def _padded(failing: list) -> list:
    """``failing`` lanes spread through 24 converging ladder points."""
    rungs = ladder_points(24)
    points = rungs[:5] + failing[:1] + rungs[5:17] + failing[1:] + rungs[17:]
    assert len(points) > _FAST_LANE_CAP
    return points


def assert_three_agree(points, **solve) -> list | tuple:
    """Vectorised kernel, frozen reference and lane loop: same outcome."""
    batch = outcome(_solve_batch_fast, TABLE1_PLATFORM, points, **solve)
    assert batch == outcome(
        ref_solve_batch_fast, TABLE1_PLATFORM, points, **solve
    )
    assert batch == outcome(
        _solve_lanes_fast, TABLE1_PLATFORM, points, **solve
    )
    return batch


class TestConvergenceFailures:
    def test_known_cell_message(self):
        with pytest.raises(ConvergenceError) as info:
            solve_steady_state_batch(
                TABLE1_PLATFORM, [_nonconvergent()], precision="fast"
            )
        assert str(info.value) == (
            "fast lane 0: no convergence after 800 iterations "
            "(latency=192.0 cy, precision=fast)"
        )

    @pytest.mark.parametrize(
        "order,lane",
        [
            (("stuck", "stuck"), 0),  # a tie: the lowest index
            (("escalating", "stuck"), 1),  # the earliest round
            (("stuck", "escalating"), 0),
        ],
    )
    def test_two_failures_name_the_same_lane(self, order, lane):
        make = {"stuck": _nonconvergent, "escalating": _escalating}
        points = [make[name]() for name in order]
        solve = dict(tol=1e-6, max_iter=10, damping=0.02)
        lanes = outcome(_solve_lanes_fast, TABLE1_PLATFORM, points, **solve)
        assert lanes == outcome(
            _solve_batch_fast, TABLE1_PLATFORM, points, **solve
        )
        assert lanes[1].startswith(f"fast lane {lane}: ")

    @pytest.mark.parametrize(
        "solve",
        [dict(tol=1e-6, max_iter=10, damping=0.02), SOLVE],
        ids=["floor-step", "default"],
    )
    @pytest.mark.parametrize(
        "order",
        [
            ("stuck",),
            ("escalating",),
            ("stuck", "stuck"),
            ("escalating", "stuck"),
            ("stuck", "escalating"),
        ],
    )
    def test_padded_failures_agree(self, order, solve):
        make = {"stuck": _nonconvergent, "escalating": _escalating}
        assert_three_agree(_padded([make[name]() for name in order]), **solve)

    def test_default_settings_name_the_stuck_lane(self):
        result = assert_three_agree(_padded([_nonconvergent()]), **SOLVE)
        assert result == (
            "ConvergenceError",
            "fast lane 5: no convergence after 800 iterations "
            "(latency=192.0 cy, precision=fast)",
        )

    @pytest.mark.parametrize("copies", (1, 3), ids=["once", "thrice"])
    def test_every_lane_starts_at_the_floor_step(self, copies):
        solve = dict(tol=1e-6, max_iter=800, damping=0.02)
        assert_three_agree(FEATURE_BATCH * copies, **solve)


class TestFastCheckShadow:
    def test_shadow_covers_a_lane_path_batch(self, monkeypatch):
        points = FEATURE_BATCH[:3]
        assert len(points) <= _FAST_LANE_CAP
        real = contention._solve_lanes_fast
        calls = []

        def corrupted(platform, parsed, **solve):
            calls.append(len(parsed))
            states = real(platform, parsed, **solve)
            return [dataclasses.replace(s, ipc=s.ipc * 1.01) for s in states]

        monkeypatch.setenv("REPRO_FAST_CHECK", "1")
        solve_steady_state_batch(TABLE1_PLATFORM, points, precision="fast")
        monkeypatch.setattr(contention, "_solve_lanes_fast", corrupted)
        with pytest.raises(FastContractError, match="lane 0"):
            solve_steady_state_batch(TABLE1_PLATFORM, points, precision="fast")
        assert calls == [len(points)]

