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
from repro.util.stats import _reduce_sum

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

    @given(st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1,
                    max_size=200))
    def test_bitwise_equal_to_numpy(self, values):
        arr = np.asarray(values, dtype=float)
        assert hmean(values).hex() == float(arr.size / np.sum(1.0 / arr)).hex()


def _hex(x: float) -> str:
    return "nan" if x != x else float(x).hex()


#: Terms that exercise rounding, cancellation, signed zeros and the IEEE
#: specials, at very different magnitudes.
sum_terms = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from((0.0, -0.0, 1e-300, -1e-300, 1e300, -1e300)),
)


class TestReduceSum:
    @given(st.lists(sum_terms, max_size=200))
    def test_bitwise_equal_to_numpy(self, values):
        # Overflow to inf and inf - inf are part of what is compared.
        with np.errstate(over="ignore", invalid="ignore"):
            expected = float(np.add.reduce(np.array(values, dtype=float)))
            assert _hex(_reduce_sum(values)) == _hex(expected)

    def test_every_length_up_to_200(self):
        # Each branch: sequential (< 8), the 8-accumulator block (<= 128)
        # and NumPy's own recursion above it.
        rng = np.random.default_rng(0)
        for n in range(201):
            values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
            expected = float(np.add.reduce(values))
            assert _hex(_reduce_sum(values.tolist())) == _hex(expected), n

    @pytest.mark.parametrize("n", (1, 7, 8, 9, 16, 127, 128, 129))
    def test_negative_zeros_sum_to_positive_zero(self, n):
        assert _hex(_reduce_sum([-0.0] * n)) == _hex(
            float(np.add.reduce(np.full(n, -0.0)))
        )


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
