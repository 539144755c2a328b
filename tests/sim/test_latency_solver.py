"""The latency root finders: ``_illinois_root`` and its batched twin.

Four contracts under test:

* **No duplicate evaluations** — the bracket-expansion loops carry the
  previously evaluated endpoint forward instead of re-evaluating it (the
  pre-refactor scalar code called ``excess`` twice at the step before the
  sign flip), and the scalar finder reuses a boundary's value when the
  guess or an expansion step lands on it. Locked in with instrumented
  closures that record every evaluation point.
* **Frozen decisions** — the scalar finder evaluates its guess first
  and checks a boundary only where its expansion reaches it (or a value
  reads exactly 0.0), and returns the bits of the frozen
  boundaries-first copy (``ref_illinois_root``) on the edge cases of
  that order.
* **Monotone bracketing** — for a strictly decreasing excess the returned
  root is the clamped true root to the solver's 1e-7 relative gap.
* **Lane independence** — every lane of ``_illinois_root_batch`` is
  bit-identical to a scalar solve of that lane alone, for arbitrary lane
  mixes (floor-outs, ceil-outs, upward and downward expansion), and
  walks the scalar's decision order: each edge case above, run as a
  lane among others, evaluates the scalar's points in its order.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.contention import _illinois_root, _illinois_root_batch
from tests.sim.test_scalar_oracle import ref_illinois_root

FLOOR = 1.0
CEIL = 1.0e6


def affine_excess(a, b):
    """Strictly decreasing Python-float excess with root at ``a / b``."""

    def excess(lat):
        return a - b * lat

    return excess


def affine_excess_batch(a_arr, b_arr):
    """Vectorised twin of :func:`affine_excess` (same elementwise ops)."""

    def excess_b(lat, lanes):
        return a_arr[lanes] - b_arr[lanes] * lat

    return excess_b


lane_params = st.tuples(
    st.floats(min_value=0.5, max_value=5.0e6),   # a
    st.floats(min_value=0.1, max_value=50.0),    # b
    st.floats(min_value=FLOOR, max_value=CEIL),  # guess
)


class TestScalarRoot:
    @settings(max_examples=200, deadline=None)
    @given(lane_params)
    def test_root_matches_analytic_root(self, params):
        a, b, guess = params
        root = _illinois_root(affine_excess(a, b), guess, FLOOR, CEIL)
        true = a / b
        if true <= FLOOR:
            assert root == FLOOR
        elif true >= CEIL:
            assert root == CEIL
        else:
            assert FLOOR <= root <= CEIL
            assert abs(root - true) <= 1e-6 * true

    @settings(max_examples=200, deadline=None)
    @given(lane_params)
    def test_no_point_evaluated_twice_after_warm_start(self, params):
        a, b, guess = params
        inner = affine_excess(a, b)
        seen: list[float] = []

        def excess(lat):
            seen.append(lat)
            return inner(lat)

        _illinois_root(excess, guess, FLOOR, CEIL)
        # The two boundary probes and the clamped warm start may legally
        # coincide (guess at/beyond a boundary); every point after them
        # must be fresh.
        tail = seen[3:]
        assert len(tail) == len(set(tail)), f"re-evaluated points in {seen}"

    def test_expansion_carries_endpoint_forward(self):
        # Crafted so the upward expansion flips at hi = 225: the
        # pre-refactor code then re-evaluated excess(225 / 1.5) == 150.0,
        # a point it had already paid for. excess(l) = 200 - l, guess 100:
        # probes 100 (positive, so the floor is settled), 150, 225 (the
        # sign change settles the ceiling), then the Illinois secant lands
        # exactly on the root 200. Four evaluations, all distinct.
        seen: list[float] = []

        def excess(lat):
            seen.append(lat)
            return 200.0 - lat

        root = _illinois_root(excess, 100.0, FLOOR, 1.0e4)
        assert root == 200.0
        assert seen == [100.0, 150.0, 225.0, 200.0]

    @settings(max_examples=200, deadline=None)
    @given(lane_params)
    def test_no_point_evaluated_twice(self, params):
        # Boundaries included: a boundary the guess or an expansion step
        # lands on reuses its value.
        a, b, guess = params
        inner = affine_excess(a, b)
        seen: list[float] = []

        def excess(lat):
            seen.append(lat)
            return inner(lat)

        _illinois_root(excess, guess, FLOOR, CEIL)
        assert len(seen) == len(set(seen)), f"re-evaluated points in {seen}"

    @settings(max_examples=200, deadline=None)
    @given(lane_params, st.sampled_from([1e-7, 1e-4]))
    def test_bitwise_equal_to_frozen_copy(self, params, gap):
        a, b, guess = params
        assert repr(
            _illinois_root(affine_excess(a, b), guess, FLOOR, CEIL, gap)
        ) == repr(
            ref_illinois_root(affine_excess(a, b), guess, FLOOR, CEIL, gap)
        )


def counted(excess):
    """``excess`` and the list of points it is evaluated at."""
    seen: list[float] = []

    def wrapped(lat):
        seen.append(lat)
        return excess(lat)

    return wrapped, seen


def flat_zero_above(x):
    """Decreasing to exactly ``0.0`` at ``x``, then flat at ``0.0``."""

    def excess(lat):
        return x - lat if lat < x else 0.0

    return excess


def flat_zero_below(x):
    """Flat at ``0.0`` up to ``x``, then decreasing."""

    def excess(lat):
        return 0.0 if lat <= x else x - lat

    return excess


#: Edge cases of the evaluation order: (excess, guess, ceiling, the live
#: finder's evaluations, the frozen boundaries-first copy's evaluations).
EDGE_CASES = {
    # excess(ceil) == 0.0 with the guess at, or clamped down to, the
    # ceiling: the guess's value is the ceiling's, reused.
    "ceil_root_guess_at_ceil": (affine_excess(1.0e4, 1.0), 1.0e4, 1.0e4, 2, 2),
    "ceil_root_guess_above_ceil": (
        affine_excess(1.0e4, 1.0), 5.0e4, 1.0e4, 2, 2
    ),
    # f(guess) == 0.0 inside the bracket: both boundaries are probed.
    # (The finder does not return the guess: it expands downward and
    # closes in, as the frozen copy does.) With f flat at 0.0 up to the
    # ceiling, the ceiling is returned.
    "zero_at_guess": (affine_excess(200.0, 1.0), 200.0, 1.0e4, 26, 26),
    "flat_zero_to_ceil": (flat_zero_above(500.0), 800.0, 1.0e4, 3, 2),
    # A guess below the floor clamps to it: the floor is evaluated once,
    # and the ceiling is never reached.
    "guess_below_floor": (affine_excess(200.0, 1.0), 0.5, 1.0e4, 16, 18),
    "guess_at_floor": (affine_excess(200.0, 1.0), FLOOR, 1.0e4, 16, 18),
    # The root at (or below) the floor: a guess above it walks down to
    # the floor before its check, 12 steps on this 1e4-wide range (at
    # most 3 on the Table 1 platform's 180-537.5 cycle range), where the
    # frozen copy's floor-first probe returns at once.
    "root_at_floor": (affine_excess(FLOOR, 1.0), 100.0, 1.0e4, 13, 1),
    "root_below_floor": (affine_excess(0.5, 1.0), 100.0, 1.0e4, 13, 1),
    "root_at_floor_guess_at_floor": (
        affine_excess(FLOOR, 1.0), FLOOR, 1.0e4, 1, 1
    ),
    # The upward expansion lands on the ceiling and checks it there (the
    # frozen copy evaluates it twice).
    "expansion_reaches_ceil": (affine_excess(9.0e3, 1.0), 5.0e3, 1.0e4, 4, 6),
    # An expansion step reads exactly 0.0 inside the bracket: the far
    # boundary is checked then. Flat up to the ceiling returns it, flat
    # down to the floor returns the floor, and a plain root there goes on
    # to the Illinois steps.
    "zero_step_flat_to_ceil": (flat_zero_above(500.0), 300.0, 1.0e4, 4, 2),
    "zero_step_flat_to_floor": (flat_zero_below(300.0), 800.0, 1.0e4, 5, 1),
    "zero_step_inside": (affine_excess(400.0, 1.0), 900.0, 1.0e4, 27, 28),
}


class TestRootEdgeCases:
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_bitwise_with_evaluation_count(self, name):
        excess, guess, ceil, n_live, n_frozen = EDGE_CASES[name]
        live, live_seen = counted(excess)
        frozen, frozen_seen = counted(excess)
        root = _illinois_root(live, guess, FLOOR, ceil)
        frozen_root = ref_illinois_root(frozen, guess, FLOOR, ceil)
        assert repr(root) == repr(frozen_root)
        assert (len(live_seen), len(frozen_seen)) == (n_live, n_frozen)
        assert len(live_seen) == len(set(live_seen))


class TestBatchRoot:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(lane_params, min_size=1, max_size=12))
    def test_every_lane_bitwise_equals_scalar(self, lanes):
        a = np.array([p[0] for p in lanes])
        b = np.array([p[1] for p in lanes])
        guess = np.array([p[2] for p in lanes])
        out = _illinois_root_batch(
            affine_excess_batch(a, b), guess, FLOOR, CEIL
        )
        for i, (ai, bi, gi) in enumerate(lanes):
            scalar = _illinois_root(affine_excess(ai, bi), gi, FLOOR, CEIL)
            assert out[i] == scalar, f"lane {i}: {out[i]} != {scalar}"

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(lane_params, min_size=2, max_size=8),
        st.randoms(use_true_random=False),
    )
    def test_lane_order_does_not_matter(self, lanes, rng):
        perm = list(range(len(lanes)))
        rng.shuffle(perm)
        a = np.array([p[0] for p in lanes])
        b = np.array([p[1] for p in lanes])
        guess = np.array([p[2] for p in lanes])
        out = _illinois_root_batch(
            affine_excess_batch(a, b), guess, FLOOR, CEIL
        )
        shuffled = _illinois_root_batch(
            affine_excess_batch(a[perm], b[perm]), guess[perm], FLOOR, CEIL
        )
        assert np.array_equal(out[perm], shuffled)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(lane_params, min_size=1, max_size=8))
    def test_no_lane_point_evaluated_twice_after_warm_start(self, lanes):
        a = np.array([p[0] for p in lanes])
        b = np.array([p[1] for p in lanes])
        guess = np.array([p[2] for p in lanes])
        calls: dict[int, list[float]] = {i: [] for i in range(len(lanes))}
        inner = affine_excess_batch(a, b)

        def excess_b(lat, idx):
            for point, lane in zip(lat, idx):
                calls[int(lane)].append(float(point))
            return inner(lat, idx)

        _illinois_root_batch(excess_b, guess, FLOOR, CEIL)
        for lane, seen in calls.items():
            tail = seen[3:]
            assert len(tail) == len(set(tail)), (
                f"lane {lane} re-evaluated points in {seen}"
            )

    @settings(max_examples=100, deadline=None)
    @given(st.lists(lane_params, min_size=1, max_size=8))
    def test_no_lane_point_evaluated_twice(self, lanes):
        # Boundaries included, as for the scalar finder.
        a = np.array([p[0] for p in lanes])
        b = np.array([p[1] for p in lanes])
        guess = np.array([p[2] for p in lanes])
        calls: dict[int, list[float]] = {i: [] for i in range(len(lanes))}
        inner = affine_excess_batch(a, b)

        def excess_b(lat, idx):
            for point, lane in zip(lat, idx):
                calls[int(lane)].append(float(point))
            return inner(lat, idx)

        _illinois_root_batch(excess_b, guess, FLOOR, CEIL)
        for lane, seen in calls.items():
            assert len(seen) == len(set(seen)), (
                f"lane {lane} re-evaluated points in {seen}"
            )


#: Lanes run next to the edge cases: roots inside, at and past both
#: boundaries, guesses on either side of them. ``(excess, guess)``.
OTHER_LANES = [
    (affine_excess(500.0, 1.0), 300.0),
    (affine_excess(5000.0, 2.0), 9000.0),
    (affine_excess(1.0e5, 1.0), 50.0),
    (affine_excess(0.1, 1.0), 5.0),
    (affine_excess(7.0e3, 3.0), FLOOR),
    (affine_excess(2.0, 1.0), 1.0e4),
]


def lanes_batch(fns):
    """A batched excess over per-lane scalar closures, and each lane's
    evaluation points."""
    seen: list[list[float]] = [[] for _ in fns]

    def excess_b(lat, lanes):
        out = np.empty(lat.size)
        for k, (x, lane) in enumerate(zip(lat.tolist(), lanes.tolist())):
            seen[lane].append(x)
            out[k] = fns[lane](x)
        return out

    return excess_b, seen


class TestBatchRootEdgeCases:
    CEIL = 1.0e4

    def test_cases_share_one_ceiling(self):
        assert {case[2] for case in EDGE_CASES.values()} == {self.CEIL}

    @pytest.mark.parametrize("gap", [1e-7, 1e-4])
    @pytest.mark.parametrize("name", sorted(EDGE_CASES))
    def test_case_as_a_lane_among_others(self, name, gap):
        names = sorted(EDGE_CASES)
        fns = [EDGE_CASES[n][0] for n in names] + [f for f, _ in OTHER_LANES]
        guesses = [EDGE_CASES[n][1] for n in names] + [
            g for _, g in OTHER_LANES
        ]
        excess_b, seen = lanes_batch(fns)
        roots = _illinois_root_batch(
            excess_b, np.array(guesses), FLOOR, self.CEIL, gap
        )
        for lane, (fn, guess) in enumerate(zip(fns, guesses)):
            scalar, scalar_seen = counted(fn)
            root = _illinois_root(scalar, guess, FLOOR, self.CEIL, gap)
            assert repr(float(roots[lane])) == repr(root), lane
            assert seen[lane] == scalar_seen, lane
        lane = names.index(name)
        # The scalar finder's pinned count, lane by lane.
        if gap == 1e-7:
            assert len(seen[lane]) == EDGE_CASES[name][3]
        assert len(seen[lane]) == len(set(seen[lane]))
