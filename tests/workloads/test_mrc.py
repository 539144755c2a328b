"""Unit + property tests for miss-ratio curves."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads.mrc import (
    BlendedMRC,
    ConstantMRC,
    ExponentialMRC,
    KneeMRC,
    MissRatioCurve,
    TabulatedMRC,
)

# Strategy producing a curve of each family with sane parameters.
floors = st.floats(min_value=0.0, max_value=0.5)
spans = st.floats(min_value=0.0, max_value=0.5)


@st.composite
def any_mrc(draw):
    kind = draw(st.sampled_from(["const", "exp", "knee", "blend"]))
    floor = draw(floors)
    peak = min(1.0, floor + draw(spans))
    if kind == "const":
        return ConstantMRC(draw(st.floats(min_value=0, max_value=1)))
    if kind == "exp":
        return ExponentialMRC(
            peak=peak, floor=floor, scale=draw(st.floats(0.2, 10))
        )
    if kind == "knee":
        return KneeMRC(
            peak=peak,
            floor=floor,
            knee_ways=draw(st.floats(0.5, 18)),
            sharpness=draw(st.floats(0.3, 4)),
        )
    return BlendedMRC(
        peak=peak,
        floor=floor,
        knee_ways=draw(st.floats(0.5, 18)),
        scale=draw(st.floats(0.3, 4)),
        sharpness=draw(st.floats(0.3, 4)),
        blend=draw(st.floats(0, 1)),
    )


class TestInvariants:
    @given(any_mrc(), st.floats(min_value=0, max_value=40))
    def test_bounded(self, mrc, ways):
        assert 0.0 <= mrc(ways) <= 1.0

    @given(
        any_mrc(),
        st.floats(min_value=0, max_value=39),
        st.floats(min_value=0.01, max_value=10),
    )
    def test_non_increasing(self, mrc, w, dw):
        assert mrc(w + dw) <= mrc(w) + 1e-12

    @given(any_mrc())
    def test_negative_ways_rejected(self, mrc):
        with pytest.raises(ValueError):
            mrc(-0.1)

    @given(any_mrc())
    def test_footprint_positive(self, mrc):
        assert mrc.footprint_ways > 0


def base_call(mrc, ways):
    """The base class's ``__call__`` (ramp, ``miss_ratio``, clamp)."""
    try:
        return repr(MissRatioCurve.__call__(mrc, ways))
    except ValueError as exc:
        return str(exc)


def own_call(mrc, ways):
    try:
        return repr(mrc(ways))
    except ValueError as exc:
        return str(exc)


class TestSingleDispatchCall:
    """Curves that inline ``miss_ratio`` into ``__call__`` keep its bits."""

    @given(
        any_mrc(),
        st.one_of(
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=40),
            st.sampled_from(
                [0.0, -0.0, 1.0, 1.0 - 1e-16, -1e-300, -0.1, math.nan,
                 math.inf, 1e300, 1 / 9]
            ),
        ),
    )
    def test_matches_base_call(self, mrc, ways):
        assert own_call(mrc, ways) == base_call(mrc, ways)

    @pytest.mark.parametrize("ways", [0, 1, 3, 0.5, -1])
    def test_int_ways(self, ways):
        for mrc in (
            ConstantMRC(0.4),
            ExponentialMRC(0.9, 0.2, 2.5),
            KneeMRC(0.9, 0.1, knee_ways=3, sharpness=1),
            BlendedMRC(0.8, 0.2, knee_ways=2, scale=1, sharpness=1, blend=0.5),
        ):
            assert own_call(mrc, ways) == base_call(mrc, ways)

    #: Knee and blended curves whose logistic saturates exactly at
    #: ``ways`` 10 (z = -40) and 50 (z = 40), a blend at each end, and
    #: one whose value at one way sits on the clamp.
    EDGE_CURVES = [
        KneeMRC(0.9, 0.1, knee_ways=30.0, sharpness=0.5),
        KneeMRC(1.0, 0.0, knee_ways=0.5, sharpness=0.3),
        BlendedMRC(0.9, 0.1, knee_ways=30.0, scale=2.0, sharpness=0.5,
                   blend=0.3),
        BlendedMRC(1.0, 0.0, knee_ways=30.0, scale=0.3, sharpness=0.5,
                   blend=0.0),
        BlendedMRC(1.0, 0.0, knee_ways=0.5, scale=4.0, sharpness=0.3,
                   blend=1.0),
    ]
    EDGE_WAYS = [
        0.0, -0.0, 0.5, 1 / 9, math.nextafter(1.0, 0.0), 1.0,
        math.nextafter(1.0, 2.0), 10.0, math.nextafter(10.0, 0.0),
        math.nextafter(10.0, 20.0), 30.0, 50.0, math.nextafter(50.0, 0.0),
        math.nextafter(50.0, 60.0), 1e300, math.inf, math.nan, -1e-300,
        -0.5, -math.inf,
    ]

    @pytest.mark.parametrize("index", range(len(EDGE_CURVES)))
    def test_knee_and_blend_edges_bitwise(self, index):
        mrc = self.EDGE_CURVES[index]
        for ways in self.EDGE_WAYS:
            assert own_call(mrc, ways) == base_call(mrc, ways), ways

    @pytest.mark.parametrize("index", range(len(EDGE_CURVES)))
    def test_sub_way_calls_do_not_reevaluate(self, index, monkeypatch):
        # The ramp's end is evaluated once, when the curve is built.
        mrc = self.EDGE_CURVES[index]
        calls = []
        real = type(mrc).miss_ratio

        def spy(self, ways):
            calls.append(ways)
            return real(self, ways)

        monkeypatch.setattr(type(mrc), "miss_ratio", spy)
        for ways in (0.0, 0.25, 0.5, 0.999, 2.0, 40.0):
            mrc(ways)
        assert calls == []


class TestConstant:
    def test_flat_above_one_way(self):
        mrc = ConstantMRC(0.9)
        assert mrc(1) == mrc(5) == mrc(20) == 0.9

    def test_zero_ways_means_all_miss(self):
        # Every curve ramps to mr(0) = 1: no cache, no hits.
        assert ConstantMRC(0.9)(0) == 1.0
        assert ConstantMRC(0.9)(0.5) == pytest.approx(0.95)

    def test_footprint_minimal(self):
        assert ConstantMRC(0.5).footprint_ways == 1.0

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            ConstantMRC(1.5)


class TestExponential:
    def test_endpoints(self):
        mrc = ExponentialMRC(peak=0.8, floor=0.2, scale=2.0)
        assert mrc(0) == 1.0  # sub-way ramp to the physical boundary
        assert mrc(1) == pytest.approx(0.2 + 0.6 * math.exp(-0.5))
        assert mrc(100) == pytest.approx(0.2, abs=1e-6)

    def test_scale_controls_decay(self):
        fast = ExponentialMRC(peak=0.8, floor=0.2, scale=1.0)
        slow = ExponentialMRC(peak=0.8, floor=0.2, scale=5.0)
        assert fast(3) < slow(3)

    def test_floor_above_peak_rejected(self):
        with pytest.raises(ValueError, match="floor"):
            ExponentialMRC(peak=0.3, floor=0.5, scale=1.0)


class TestKnee:
    def test_plateau_then_drop(self):
        mrc = KneeMRC(peak=0.9, floor=0.1, knee_ways=8, sharpness=1.0)
        assert mrc(1) > 0.85
        assert mrc(8) == pytest.approx(0.5, abs=0.01)
        assert mrc(15) < 0.15

    def test_sharpness_extremes_no_overflow(self):
        mrc = KneeMRC(peak=0.9, floor=0.1, knee_ways=5, sharpness=0.01)
        assert mrc(4.9) == pytest.approx(0.9, abs=0.01)
        assert mrc(5.1) == pytest.approx(0.1, abs=0.01)


class TestBlended:
    def test_blend_zero_matches_knee(self):
        knee = KneeMRC(peak=0.8, floor=0.2, knee_ways=6, sharpness=2.0)
        blend = BlendedMRC(
            peak=0.8, floor=0.2, knee_ways=6, sharpness=2.0, blend=0.0
        )
        for w in (0.0, 2.0, 6.0, 12.0):
            assert blend(w) == pytest.approx(knee(w), abs=1e-9)

    def test_blend_one_matches_exponential(self):
        exp = ExponentialMRC(peak=0.8, floor=0.2, scale=1.5)
        blend = BlendedMRC(
            peak=0.8, floor=0.2, knee_ways=6, scale=1.5, blend=1.0
        )
        for w in (0.0, 1.0, 3.0, 10.0):
            assert blend(w) == pytest.approx(exp(w), abs=1e-9)

    def test_gradient_below_knee(self):
        # The property that motivated the blend: some benefit from a sliver.
        blend = BlendedMRC(peak=0.9, floor=0.2, knee_ways=10, blend=0.3)
        assert blend(2) < blend(0.1) - 0.05


class TestTabulated:
    def test_interpolation(self):
        mrc = TabulatedMRC([1, 2, 4], [0.9, 0.5, 0.1])
        assert mrc(1) == pytest.approx(0.9)
        assert mrc(3) == pytest.approx(0.3)
        assert mrc(10) == pytest.approx(0.1)  # clamped beyond the table

    def test_isotonic_enforcement(self):
        # Measured wiggle (0.5 then 0.6) is flattened to non-increasing.
        mrc = TabulatedMRC([1, 2, 3], [0.9, 0.5, 0.6])
        assert mrc(3) <= mrc(2)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            TabulatedMRC([1], [0.5])

    def test_non_increasing_ways_rejected(self):
        with pytest.raises(ValueError):
            TabulatedMRC([1, 1], [0.5, 0.4])

    def test_out_of_range_ratio_rejected(self):
        with pytest.raises(ValueError):
            TabulatedMRC([1, 2], [0.5, 1.4])

    @pytest.mark.parametrize(
        "ways,ratios",
        [
            ([0, 4, 8, 20], [1.0, math.nan, 0.3, 0.2]),
            ([0, 4, 8, 20], [math.nan, 0.5, 0.3, 0.2]),
            ([0, math.nan, 8, 20], [1.0, 0.5, 0.3, 0.2]),
            ([0, 4, 8, math.inf], [1.0, 0.5, 0.3, 0.2]),
            ([-math.inf, 4, 8, 20], [1.0, 0.5, 0.3, 0.2]),
        ],
    )
    def test_non_finite_points_rejected(self, ways, ratios):
        # NaN passed the monotonicity and [0, 1] checks, and the exact
        # solver then "converged" with a NaN IPC.
        with pytest.raises(ValueError, match="finite"):
            TabulatedMRC(ways, ratios)

    def test_min_ways_for_miss_ratio(self):
        mrc = TabulatedMRC([0, 10], [1.0, 0.0])
        assert mrc.min_ways_for_miss_ratio(0.5, 20) == 5.0
        assert ConstantMRC(0.9).min_ways_for_miss_ratio(0.5, 20) == math.inf
