"""Unit + property tests for the LLC way-sharing model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.llc import effective_ways, waterfill
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
