"""Unit + property tests for repro.util.stats."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.stats import (
    cdf_points,
    clamp,
    fraction_below,
    geomean,
    geomean_with_zeros,
    hmean,
    percentile,
)

positive_lists = st.lists(
    st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=50
)


class TestGeomean:
    def test_single_value(self):
        assert geomean([4.0]) == pytest.approx(4.0)

    def test_known_value(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            geomean([])

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            geomean([1.0, 0.0])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            geomean([1.0, -2.0])

    @given(positive_lists)
    def test_between_min_and_max(self, values):
        g = geomean(values)
        # Relative tolerance: exp(mean(log(x))) rounds within a few ulp.
        assert min(values) * (1 - 1e-9) <= g <= max(values) * (1 + 1e-9)

    @given(positive_lists, st.floats(min_value=0.1, max_value=10))
    def test_scale_equivariance(self, values, k):
        scaled = geomean([v * k for v in values])
        assert scaled == pytest.approx(geomean(values) * k, rel=1e-6)


class TestGeomeanWithZeros:
    def test_zeros_floored(self):
        # One zero must not collapse the mean to zero.
        assert geomean_with_zeros([0.0, 1.0]) > 0.0

    def test_matches_geomean_without_zeros(self):
        values = [0.5, 0.8, 0.9]
        assert geomean_with_zeros(values) == pytest.approx(geomean(values))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            geomean_with_zeros([-0.1, 0.5])

    def test_all_zero(self):
        assert geomean_with_zeros([0.0, 0.0], floor=1e-4) == pytest.approx(1e-4)


class TestHmean:
    def test_known_value(self):
        assert hmean([1.0, 1.0]) == pytest.approx(1.0)
        assert hmean([2.0, 6.0]) == pytest.approx(3.0)

    def test_dominated_by_small_values(self):
        # The property that makes EFU a fairness-aware metric.
        assert hmean([0.01, 1.0, 1.0]) < 0.05

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hmean([])

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hmean([0.0, 1.0])

    @given(positive_lists)
    def test_at_most_geomean(self, values):
        # AM-GM-HM inequality: HM <= GM.
        assert hmean(values) <= geomean(values) * (1 + 1e-9)


class TestCdf:
    def test_sorted_and_bounded(self):
        xs, fs = cdf_points([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert fs[0] == pytest.approx(1 / 3)
        assert fs[-1] == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cdf_points([])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=40))
    def test_fractions_monotone(self, values):
        _, fs = cdf_points(values)
        assert np.all(np.diff(fs) >= 0)

    def test_fraction_below(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert fraction_below(values, 2.5) == pytest.approx(0.5)
        assert fraction_below(values, 0.0) == 0.0
        assert fraction_below(values, 10.0) == 1.0


class TestPercentileClamp:
    def test_percentile_median(self):
        assert percentile([1, 2, 3], 50) == pytest.approx(2.0)

    def test_percentile_range_check(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120)

    def test_clamp(self):
        assert clamp(5.0, 0.0, 1.0) == 1.0
        assert clamp(-5.0, 0.0, 1.0) == 0.0
        assert clamp(0.5, 0.0, 1.0) == 0.5

    def test_clamp_empty_interval(self):
        with pytest.raises(ValueError):
            clamp(0.0, 1.0, -1.0)


class TestPublicSurface:
    """Regression: geomean_with_zeros was missing from __all__."""

    def test_star_import_exposes_every_helper(self):
        namespace: dict = {}
        exec("from repro.util.stats import *", namespace)
        for name in (
            "geomean",
            "geomean_with_zeros",
            "hmean",
            "cdf_points",
            "fraction_below",
            "percentile",
            "clamp",
        ):
            assert name in namespace, f"{name} not exported by star import"

    def test_all_entries_resolve(self):
        import repro.util.stats as stats

        for name in stats.__all__:
            assert callable(getattr(stats, name))
