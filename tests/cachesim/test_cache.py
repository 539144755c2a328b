"""Unit + property tests for the trace-driven cache simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cachesim.cache import CacheGeometry, SetAssociativeCache

LINE = 64


def small_cache(n_sets=4, n_ways=4):
    return SetAssociativeCache(CacheGeometry(n_sets=n_sets, n_ways=n_ways))


def addr(set_idx: int, tag: int, n_sets: int = 4) -> int:
    """Byte address mapping to (set_idx, tag)."""
    return (tag * n_sets + set_idx) * LINE


class TestGeometry:
    def test_capacity(self):
        geo = CacheGeometry(n_sets=1024, n_ways=20)
        assert geo.capacity_bytes == 1024 * 20 * 64

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_sets": 3, "n_ways": 4},  # not a power of two
            {"n_sets": 4, "n_ways": 0},
            {"n_sets": 4, "n_ways": 4, "line_bytes": 48},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            CacheGeometry(**kwargs)

    def test_like_table1(self):
        assert CacheGeometry.like_table1().n_ways == 20


class TestBasicBehaviour:
    def test_miss_then_hit(self):
        cache = small_cache()
        assert cache.access(addr(0, 1)) is False
        assert cache.access(addr(0, 1)) is True

    def test_same_line_different_offset_hits(self):
        cache = small_cache()
        cache.access(addr(0, 1))
        assert cache.access(addr(0, 1) + 63) is True

    def test_distinct_sets_do_not_conflict(self):
        cache = small_cache()
        cache.access(addr(0, 1))
        assert cache.access(addr(1, 1)) is False  # different set, cold

    def test_lru_eviction_order(self):
        cache = small_cache(n_sets=1, n_ways=2)
        cache.access(addr(0, 1, 1))
        cache.access(addr(0, 2, 1))
        cache.access(addr(0, 1, 1))  # refresh tag 1
        cache.access(addr(0, 3, 1))  # evicts tag 2 (LRU)
        assert cache.access(addr(0, 1, 1)) is True
        assert cache.access(addr(0, 2, 1)) is False

    def test_working_set_fits(self):
        cache = small_cache(n_sets=1, n_ways=4)
        for tag in range(4):
            cache.access(addr(0, tag, 1))
        cache.reset_stats()
        for _ in range(10):
            for tag in range(4):
                assert cache.access(addr(0, tag, 1)) is True
        assert cache.stats(0).miss_ratio == 0.0

    def test_scan_thrashes(self):
        cache = small_cache(n_sets=1, n_ways=4)
        for _ in range(3):
            for tag in range(8):  # 2x the associativity, LRU worst case
                cache.access(addr(0, tag, 1))
        stats = cache.stats(0)
        assert stats.miss_ratio == 1.0

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            small_cache().access(-64)

    def test_flush(self):
        cache = small_cache()
        cache.access(addr(0, 1))
        cache.flush()
        assert cache.access(addr(0, 1)) is False


class TestClosMasks:
    def test_mask_validation(self):
        cache = small_cache()
        with pytest.raises(ValueError):
            cache.set_clos_mask(0, 0)
        with pytest.raises(ValueError):
            cache.set_clos_mask(0, 1 << 4)  # beyond 4 ways
        with pytest.raises(ValueError):
            cache.set_clos_mask(-1, 1)

    def test_fills_confined_to_mask(self):
        cache = small_cache(n_sets=1, n_ways=4)
        cache.set_clos_mask(1, 0b0011)  # CLOS 1 may fill ways 0-1 only
        for tag in range(6):
            cache.access(addr(0, tag, 1), clos=1)
        # Only 2 lines can be resident.
        assert cache.occupancy_lines(1) == 2

    def test_isolation_protects_other_clos(self):
        # The CAT guarantee: CLOS 1's storm cannot evict CLOS 0's lines
        # cached in ways outside CLOS 1's mask.
        cache = small_cache(n_sets=1, n_ways=4)
        cache.set_clos_mask(0, 0b1100)
        cache.set_clos_mask(1, 0b0011)
        cache.access(addr(0, 100, 1), clos=0)
        cache.access(addr(0, 101, 1), clos=0)
        for tag in range(50):
            cache.access(addr(0, tag, 1), clos=1)
        assert cache.access(addr(0, 100, 1), clos=0) is True
        assert cache.access(addr(0, 101, 1), clos=0) is True

    def test_hits_ignore_masks(self):
        # Lines survive a mask change and stay readable (paper Section 3.3).
        cache = small_cache(n_sets=1, n_ways=4)
        cache.access(addr(0, 7, 1), clos=0)  # fills some way
        cache.set_clos_mask(0, 0b0001)  # shrink mask afterwards
        assert cache.access(addr(0, 7, 1), clos=0) is True

    def test_default_mask_is_full(self):
        cache = small_cache()
        assert cache.clos_mask(3) == 0b1111


class TestStats:
    def test_counters(self):
        cache = small_cache(n_sets=1, n_ways=2)
        cache.access(addr(0, 1, 1))
        cache.access(addr(0, 1, 1))
        cache.access(addr(0, 2, 1))
        stats = cache.stats(0)
        assert stats.accesses == 3
        assert stats.misses == 2
        assert stats.hits == 1

    def test_miss_ratio_requires_accesses(self):
        with pytest.raises(ValueError):
            small_cache().stats(0).miss_ratio

    def test_evictions_counted(self):
        cache = small_cache(n_sets=1, n_ways=1)
        cache.access(addr(0, 1, 1))
        cache.access(addr(0, 2, 1))
        assert cache.stats(0).evictions_caused == 1

    def test_per_clos_separation(self):
        cache = small_cache()
        cache.access(addr(0, 1), clos=0)
        cache.access(addr(1, 1), clos=1)
        assert cache.stats(0).accesses == 1
        assert cache.stats(1).accesses == 1


class TestProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(0, 1)),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_occupancy_never_exceeds_mask(self, trace):
        cache = small_cache(n_sets=2, n_ways=4)
        cache.set_clos_mask(1, 0b0001)
        for tag, clos in trace:
            cache.access(tag * LINE, clos=clos)
        # CLOS 1 may own at most 1 way per set = 2 lines total.
        assert cache.occupancy_lines(1) <= 2

    @given(st.lists(st.integers(0, 500), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_repeat_of_trace_is_all_hits_if_it_fits(self, tags):
        unique = sorted(set(tags))[:4]
        cache = small_cache(n_sets=1, n_ways=4)
        for tag in unique:
            cache.access(addr(0, tag, 1))
        cache.reset_stats()
        for tag in unique:
            assert cache.access(addr(0, tag, 1)) is True
