"""``MissRatioCurve.eval_many_fast``: the fast solver's MRC lookups.

The ``precision="fast"`` kernel evaluates curves it cannot fuse through
``eval_many_fast`` (DESIGN.md §10). Its contract: each element agrees with
``__call__`` — bitwise for the affine and interpolation forms (constant,
tabulated) and the base class's loop, within :data:`FAST_REL_TOL` for the
transcendental ones — and depends only on its own way count, never on the
array's length or contents, with ``__call__``'s sub-way ramp, clamp and
rejection of negative ways.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.contention import FAST_REL_TOL
from repro.workloads.mrc import (
    BlendedMRC,
    ConstantMRC,
    ExponentialMRC,
    KneeMRC,
    MissRatioCurve,
    TabulatedMRC,
)


class LoopMRC(MissRatioCurve):
    """A curve that keeps the base ``eval_many_fast`` (a ``__call__`` loop).

    Its parametric form leaves [0, 1] on both sides (1.2 below two ways,
    negative beyond eight), so ``__call__``'s clamp is visible.
    """

    def miss_ratio(self, ways: float) -> float:
        return 1.4 - 0.2 * ways + 0.01 * math.sin(ways)

    @property
    def footprint_ways(self) -> float:
        return 7.0


BITWISE = {
    "constant": ConstantMRC(0.37),
    "tabulated": TabulatedMRC(
        ways=[1.0, 2.0, 4.0, 8.0, 16.0, 20.0],
        ratios=[0.9, 0.7, 0.45, 0.2, 0.1, 0.08],
    ),
    "base": LoopMRC(),
}
TOLERANCE = {
    "exponential": ExponentialMRC(peak=0.9, floor=0.05, scale=4.0),
    "knee": KneeMRC(peak=0.85, floor=0.1, knee_ways=6.0, sharpness=3.0),
    "blended": BlendedMRC(
        peak=0.8, floor=0.04, knee_ways=8.0,
        scale=2.5, sharpness=2.0, blend=0.6,
    ),
}
CURVES = {**BITWISE, **TOLERANCE}

# Boundary-heavy fixed grid: zero, sub-way ramp, table knots, knot
# midpoints, beyond-table extrapolation, the logistic saturation.
FIXED_WAYS = np.array(
    [0.0, 1e-9, 0.25, 0.5, 0.999, 1.0, 1.5, 2.0, 3.7, 4.0,
     7.999, 8.0, 15.0, 16.0, 19.5, 20.0, 25.0, 130.0, 1e6]
)

WAYS_LISTS = st.lists(
    st.floats(min_value=0.0, max_value=64.0), min_size=1, max_size=32
)


def scalar(curve, ways):
    return np.array([curve(w) for w in ways])


@pytest.mark.parametrize("name", sorted(BITWISE))
def test_eval_many_bitwise_on_fixed_grid(name):
    curve = CURVES[name]
    assert np.array_equal(
        curve.eval_many_fast(FIXED_WAYS), scalar(curve, FIXED_WAYS)
    )


@pytest.mark.parametrize("name", sorted(BITWISE))
@settings(max_examples=100, deadline=None)
@given(ways=WAYS_LISTS)
def test_eval_many_bitwise_on_random_ways(name, ways):
    curve = CURVES[name]
    arr = np.array(ways)
    assert np.array_equal(curve.eval_many_fast(arr), scalar(curve, arr))


@pytest.mark.parametrize("name", sorted(TOLERANCE))
def test_eval_many_within_tolerance_on_fixed_grid(name):
    curve = CURVES[name]
    np.testing.assert_allclose(
        curve.eval_many_fast(FIXED_WAYS),
        scalar(curve, FIXED_WAYS),
        rtol=FAST_REL_TOL,
        atol=0.0,
    )


@pytest.mark.parametrize("name", sorted(TOLERANCE))
@settings(max_examples=100, deadline=None)
@given(ways=WAYS_LISTS)
def test_eval_many_within_tolerance_on_random_ways(name, ways):
    curve = CURVES[name]
    arr = np.array(ways)
    np.testing.assert_allclose(
        curve.eval_many_fast(arr), scalar(curve, arr),
        rtol=FAST_REL_TOL, atol=0.0,
    )


@pytest.mark.parametrize("name", sorted(CURVES))
@settings(max_examples=50, deadline=None)
@given(ways=WAYS_LISTS, others=WAYS_LISTS)
def test_eval_many_elementwise_pure(name, ways, others):
    # An element's bits never depend on the array it sits in.
    curve = CURVES[name]
    arr = np.array(ways)
    alone = np.concatenate([curve.eval_many_fast(arr[i : i + 1]) for i in
                            range(arr.size)])
    mixed = curve.eval_many_fast(np.concatenate([others, arr, others]))
    n = len(others)
    assert np.array_equal(curve.eval_many_fast(arr), alone)
    assert np.array_equal(mixed[n : n + arr.size], alone)
    assert np.array_equal(curve.eval_many_fast(arr[::-1])[::-1], alone)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_eval_many_sub_way_ramp(name):
    # Below one way the value ramps linearly from mr(0) = 1 to mr(1).
    curve = CURVES[name]
    ways = np.array([0.0, 0.25, 0.5, 0.75])
    at_one = curve(1.0)
    np.testing.assert_allclose(
        curve.eval_many_fast(ways), 1.0 + (at_one - 1.0) * ways,
        rtol=FAST_REL_TOL, atol=0.0,
    )
    assert curve.eval_many_fast(np.array([0.0]))[0] == 1.0


@pytest.mark.parametrize("name", sorted(CURVES))
def test_eval_many_clamped_to_unit_interval(name):
    values = CURVES[name].eval_many_fast(FIXED_WAYS)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_base_loop_clamps_an_out_of_range_form():
    curve = BITWISE["base"]
    assert curve.miss_ratio(1.0) > 1.0 and curve.miss_ratio(10.0) < 0.0
    values = curve.eval_many_fast(np.array([1.0, 1.5, 10.0, 30.0]))
    assert list(values) == [1.0, 1.0, 0.0, 0.0]


@pytest.mark.parametrize("name", sorted(CURVES))
def test_eval_many_empty(name):
    out = CURVES[name].eval_many_fast(np.array([]))
    assert out.shape == (0,)


@pytest.mark.parametrize("name", sorted(CURVES))
def test_eval_many_rejects_negative_ways(name):
    with pytest.raises(ValueError, match="ways must be >= 0"):
        CURVES[name].eval_many_fast(np.array([1.0, -0.5]))
