"""Unit + property tests for the LLC way-sharing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.contention import FAST_REL_TOL, FAST_WAYS_ATOL
from repro.sim.llc import (
    _effective_ways_layout,
    effective_ways,
    effective_ways_batch,
    waterfill,
    waterfill_batch,
)
from repro.sim.partition import PartitionSpec

weights_arrays = st.lists(
    st.floats(min_value=0.0, max_value=1e9), min_size=1, max_size=12
).map(np.array)


class TestWaterfill:
    def test_proportional_when_uncapped(self):
        w = waterfill(10.0, np.array([1.0, 3.0]), np.array([np.inf, np.inf]))
        assert w == pytest.approx([2.5, 7.5])

    def test_caps_bind_and_redistribute(self):
        w = waterfill(10.0, np.array([1.0, 1.0]), np.array([2.0, np.inf]))
        assert w == pytest.approx([2.0, 8.0])

    def test_zero_weight_gets_nothing(self):
        w = waterfill(10.0, np.array([0.0, 2.0]), np.array([np.inf, np.inf]))
        assert w[0] == 0.0
        assert w[1] == pytest.approx(10.0)

    def test_all_capped_leaves_surplus_idle(self):
        w = waterfill(10.0, np.array([1.0, 1.0]), np.array([2.0, 3.0]))
        assert w == pytest.approx([2.0, 3.0])
        assert w.sum() < 10.0

    @pytest.mark.parametrize(
        "weights,caps",
        [
            ([np.nan, 1.0], [np.inf, np.inf]),
            ([1.0, 1.0], [np.nan, 3.0]),
        ],
    )
    def test_nan_inputs_rejected(self, weights, caps):
        # A NaN weight used to fall out of the active set and get a zero
        # share without complaint.
        with pytest.raises(ValueError, match="NaN"):
            waterfill(10.0, np.array(weights), np.array(caps))

    def test_nan_total_rejected(self):
        with pytest.raises(ValueError, match="total_ways"):
            waterfill(np.nan, np.array([1.0]), np.array([np.inf]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            waterfill(1.0, np.array([1.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize(
        "total,weights,caps",
        [
            (-1.0, [1.0], [1.0]),
            (1.0, [-1.0], [1.0]),
            (1.0, [1.0], [-1.0]),
        ],
    )
    def test_negative_inputs_rejected(self, total, weights, caps):
        with pytest.raises(ValueError):
            waterfill(total, np.array(weights), np.array(caps))

    @given(
        st.floats(min_value=0.0, max_value=40.0),
        weights_arrays,
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_properties(self, total, weights, data):
        caps = np.array(
            data.draw(
                st.lists(
                    st.one_of(
                        st.floats(min_value=0.0, max_value=40.0),
                        st.just(float("inf")),
                    ),
                    min_size=len(weights),
                    max_size=len(weights),
                )
            )
        )
        w = waterfill(total, weights, caps)
        assert np.all(w >= -1e-9)
        assert np.all(w <= caps + 1e-6)
        assert w.sum() <= total + 1e-6
        # Work conservation: if anything could still absorb ways, no slack.
        # (weights below the model's epsilon are treated as inactive.)
        uncapped = (weights > 1e-12) & (w < caps - 1e-6)
        if uncapped.any():
            assert w.sum() == pytest.approx(total, abs=1e-6)


class TestEffectiveWays:
    def test_single_group_proportional(self):
        part = PartitionSpec.unmanaged(2, 20)
        w = effective_ways(
            part, np.array([1.0, 3.0]), np.array([np.inf, np.inf]), 1.0
        )
        assert w == pytest.approx([5.0, 15.0])

    def test_theta_flattens_shares(self):
        part = PartitionSpec.unmanaged(2, 20)
        sharp = effective_ways(
            part, np.array([1.0, 4.0]), np.full(2, np.inf), 1.0
        )
        flat = effective_ways(
            part, np.array([1.0, 4.0]), np.full(2, np.inf), 0.5
        )
        assert flat[0] > sharp[0]

    def test_exclusive_groups_isolated(self):
        part = PartitionSpec.hp_be(12, 3, 20)
        # HP pressure tiny, BEs huge: HP still keeps its 12 exclusive ways.
        w = effective_ways(
            part, np.array([0.001, 5.0, 5.0]), np.full(3, np.inf), 1.0
        )
        assert w[0] == pytest.approx(12.0)
        assert w[1] == pytest.approx(4.0)
        assert w[2] == pytest.approx(4.0)

    def test_shared_zone_flows_by_pressure(self):
        part = PartitionSpec.hp_be(4, 2, 20, overlap_ways=8)
        heavy_be = effective_ways(
            part, np.array([1.0, 9.0]), np.full(2, np.inf), 1.0
        )
        heavy_hp = effective_ways(
            part, np.array([9.0, 1.0]), np.full(2, np.inf), 1.0
        )
        assert heavy_be[1] > heavy_hp[1]
        # Totals conserved in both cases.
        assert heavy_be.sum() == pytest.approx(20.0)
        assert heavy_hp.sum() == pytest.approx(20.0)

    def test_pressure_length_validated(self):
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError):
            effective_ways(part, np.array([1.0]), np.array([np.inf]), 1.0)

    @pytest.mark.parametrize("n_caps", [1, 3])
    def test_caps_length_validated(self, n_caps):
        # A short caps array used to raise a raw IndexError and a long one
        # was silently truncated.
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError, match="expected 2 caps"):
            effective_ways(
                part, np.array([1.0, 2.0]), np.full(n_caps, np.inf), 1.0
            )

    def test_nan_pressure_rejected(self):
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError, match="pressures"):
            effective_ways(
                part, np.array([np.nan, 2.0]), np.full(2, np.inf), 1.0
            )

    @pytest.mark.parametrize("bad_cap", [np.nan, -1.0])
    def test_bad_caps_rejected(self, bad_cap):
        part = PartitionSpec.hp_be(4, 2, 20)
        with pytest.raises(ValueError, match="caps"):
            effective_ways(
                part, np.array([1.0, 2.0]), np.array([np.inf, bad_cap]), 1.0
            )

    def test_negative_pressure_counts_as_zero(self):
        part = PartitionSpec.unmanaged(2, 20)
        w = effective_ways(
            part, np.array([-5.0, 2.0]), np.full(2, np.inf), 1.0
        )
        assert w.tolist() == [0.0, 20.0]

    @given(
        st.integers(min_value=2, max_value=10),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_never_exceeds_llc(self, n_cores, data):
        hp_ways = data.draw(st.integers(1, 18))
        part = PartitionSpec.hp_be(hp_ways, n_cores, 20)
        pressures = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0, max_value=1e8),
                    min_size=n_cores,
                    max_size=n_cores,
                )
            )
        )
        w = effective_ways(part, pressures, np.full(n_cores, np.inf), 1.0)
        assert w.sum() <= 20.0 + 1e-6
        assert np.all(w >= 0)


caps_values = st.one_of(
    st.just(float("inf")), st.floats(min_value=0.0, max_value=25.0)
)


class TestWaterfillBatch:
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=1, max_value=6),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lanes_agree_with_scalar(self, k, n_lanes, data):
        def rows(values):
            return np.array(
                data.draw(
                    st.lists(
                        st.lists(values, min_size=k, max_size=k),
                        min_size=n_lanes,
                        max_size=n_lanes,
                    )
                )
            )

        weights = rows(st.floats(min_value=0.0, max_value=1e9))
        caps = rows(caps_values)
        totals = np.array(
            data.draw(
                st.lists(
                    st.floats(min_value=0.0, max_value=40.0),
                    min_size=n_lanes,
                    max_size=n_lanes,
                )
            )
        )
        got = waterfill_batch(totals, weights, caps)
        for lane in range(n_lanes):
            np.testing.assert_allclose(
                got[lane],
                waterfill(totals[lane], weights[lane], caps[lane]),
                rtol=FAST_REL_TOL,
                atol=FAST_WAYS_ATOL,
            )

    @pytest.mark.parametrize("share", [1.0, 2.5, 5.0])
    def test_cap_slack_pins_competitor(self, share):
        # A share landing exactly on ``cap - 1e-9`` pins the competitor at
        # its cap, as the scalar form does.
        caps = np.array([[share + 1e-9, np.inf], [np.inf, share + 1e-9]])
        got = waterfill_batch(2 * share, np.ones((2, 2)), caps)
        assert got[0, 0] == share + 1e-9
        assert got[1, 1] == share + 1e-9
        for lane in range(2):
            assert got[lane].tolist() == waterfill(
                2 * share, [1.0, 1.0], caps[lane]
            ).tolist()

    def test_scalar_total_broadcasts(self):
        got = waterfill_batch(
            10.0, [[1.0, 3.0], [1.0, 1.0]], np.full((2, 2), np.inf)
        )
        assert got.tolist() == [[2.5, 7.5], [5.0, 5.0]]

    @pytest.mark.parametrize(
        "weights,caps",
        [
            ([[np.nan, 1.0]], [[np.inf, np.inf]]),
            ([[1.0, 1.0]], [[np.nan, 3.0]]),
        ],
    )
    def test_nan_inputs_rejected(self, weights, caps):
        # A NaN weight used to fall out of the active set unnoticed.
        with pytest.raises(ValueError, match="NaN"):
            waterfill_batch(10.0, weights, caps)

    def test_nan_total_rejected(self):
        # A NaN total used to hand every lane zero ways.
        with pytest.raises(ValueError, match="total_ways"):
            waterfill_batch([np.nan], [[1.0]], [[np.inf]])

    @pytest.mark.parametrize(
        "total,weights,caps,match",
        [
            (1.0, [[1.0]], [[1.0, 2.0]], "same shape"),
            (1.0, [1.0], [1.0], "lanes, k"),
            ([1.0, 2.0, 3.0], [[1.0], [1.0]], [[1.0], [1.0]], "total_ways"),
            (-1.0, [[1.0]], [[1.0]], "total_ways"),
            (1.0, [[-1.0]], [[1.0]], "weights"),
            (1.0, [[1.0]], [[-1.0]], "caps"),
        ],
    )
    def test_bad_shapes_and_signs_rejected(self, total, weights, caps, match):
        with pytest.raises(ValueError, match=match):
            waterfill_batch(total, weights, caps)


class TestEffectiveWaysBatch:
    @given(
        st.integers(min_value=2, max_value=10),
        st.sampled_from((0, 0, 2, 5)),
        st.sampled_from((1.0, 0.8, 1.25)),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_lanes_agree_with_scalar(self, n, overlap, theta, data):
        hp_ways = data.draw(st.integers(1, 19 - overlap))
        part = PartitionSpec.hp_be(hp_ways, n, 20, overlap_ways=overlap)
        lanes = data.draw(st.integers(1, 4))
        pressures = np.array(
            data.draw(
                st.lists(
                    st.lists(
                        st.floats(min_value=-10.0, max_value=1e9),
                        min_size=n,
                        max_size=n,
                    ),
                    min_size=lanes,
                    max_size=lanes,
                )
            )
        )
        caps = np.array(
            data.draw(st.lists(caps_values, min_size=n, max_size=n))
        )
        got = effective_ways_batch(part, pressures, caps, theta)
        for lane in range(lanes):
            np.testing.assert_allclose(
                got[lane],
                effective_ways(part, pressures[lane], caps, theta),
                rtol=FAST_REL_TOL,
                atol=FAST_WAYS_ATOL,
            )

    def test_shared_zone_split_by_group_pressure(self):
        part = PartitionSpec.hp_be(4, 2, 20, overlap_ways=8)
        got = effective_ways_batch(
            part, [[1.0, 9.0], [9.0, 1.0]], np.full(2, np.inf), 1.0
        )
        # The 8-way zone splits 1:9 and 9:1 between the HP and BE groups.
        assert got[0] == pytest.approx([4.0 + 0.8, 8.0 + 7.2])
        assert got[1] == pytest.approx([4.0 + 7.2, 8.0 + 0.8])
        assert got.sum(axis=1) == pytest.approx([20.0, 20.0])

    def test_layout_core_takes_per_lane_ways(self):
        # Rungs and an overlap variant of one HP/BE layout in one call give
        # each lane what its own partition gives it.
        parts = [
            PartitionSpec.hp_be(9, 4, 20),
            PartitionSpec.hp_be(3, 4, 20),
            PartitionSpec.hp_be(3, 4, 20, overlap_ways=5),
        ]
        rng = np.random.default_rng(3)
        pressures = rng.random((3, 4)) * 1e8
        caps = np.array([np.inf, 6.0, np.inf, 2.0])
        got = _effective_ways_layout(
            ((0,), (1, 2, 3)),
            np.array([[g.ways for g in p.groups] for p in parts]),
            np.array([p.shared_ways for p in parts]),
            pressures,
            np.tile(caps, (3, 1)),
        )
        for lane, part in enumerate(parts):
            want = effective_ways_batch(
                part, pressures[lane : lane + 1], caps, 1.0
            )
            assert got[lane].tobytes() == want[0].tobytes()

    def test_nan_pressure_rejected(self):
        # A NaN pressure used to leave its core with 0 ways.
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError, match="pressures"):
            effective_ways_batch(
                part, [[np.nan, 2.0]], np.full(2, np.inf), 1.0
            )

    @pytest.mark.parametrize("bad_cap", [np.nan, -1.0])
    def test_bad_caps_rejected(self, bad_cap):
        part = PartitionSpec.hp_be(4, 2, 20)
        with pytest.raises(ValueError, match="caps"):
            effective_ways_batch(
                part, [[1.0, 2.0]], np.array([np.inf, bad_cap]), 1.0
            )

    @pytest.mark.parametrize("n_caps", [1, 3])
    def test_caps_length_validated(self, n_caps):
        # A wrong-length caps row used to raise a NumPy broadcast error.
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError, match="expected 2 caps"):
            effective_ways_batch(
                part, [[1.0, 2.0]], np.full(n_caps, np.inf), 1.0
            )

    def test_caps_lanes_validated(self):
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError, match="caps"):
            effective_ways_batch(
                part, [[1.0, 2.0]], np.full((2, 2), np.inf), 1.0
            )

    def test_pressure_shape_validated(self):
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(ValueError, match="pressures"):
            effective_ways_batch(part, [1.0, 2.0], np.full(2, np.inf), 1.0)
