"""Unit tests for PartitionSpec / CacheGroup."""

import pytest

from repro.sim.partition import CacheGroup, PartitionSpec


class TestCacheGroup:
    def test_requires_cores(self):
        with pytest.raises(ValueError, match="no cores"):
            CacheGroup(name="g", cores=(), ways=4.0)

    def test_rejects_duplicate_cores(self):
        with pytest.raises(ValueError, match="repeats"):
            CacheGroup(name="g", cores=(1, 1), ways=4.0)

    def test_rejects_negative_ways(self):
        with pytest.raises(ValueError):
            CacheGroup(name="g", cores=(0,), ways=-1.0)


class TestPartitionSpec:
    def test_unmanaged(self):
        part = PartitionSpec.unmanaged(4, 20)
        assert len(part.groups) == 1
        assert part.groups[0].ways == 20.0
        assert part.hp_ways is None

    def test_hp_be(self):
        part = PartitionSpec.hp_be(19, 10, 20)
        assert part.hp_ways == 19.0
        assert part.group_of(0).name == "HP"
        assert part.group_of(5).name == "BE"

    def test_hp_be_overlap(self):
        part = PartitionSpec.hp_be(4, 10, 20, overlap_ways=6)
        assert part.shared_ways == 6.0
        total = sum(g.ways for g in part.groups) + part.shared_ways
        assert total == pytest.approx(20.0)

    def test_hp_be_leaves_be_way(self):
        with pytest.raises(ValueError, match="BEs"):
            PartitionSpec.hp_be(20, 10, 20)
        with pytest.raises(ValueError, match="BEs"):
            PartitionSpec.hp_be(15, 10, 20, overlap_ways=5)

    def test_hp_be_needs_two_cores(self):
        with pytest.raises(ValueError, match="2 cores"):
            PartitionSpec.hp_be(10, 1, 20)

    def test_cores_must_cover(self):
        with pytest.raises(ValueError, match="belong to no group"):
            PartitionSpec(
                n_cores=3,
                total_ways=20,
                groups=(CacheGroup("a", (0, 1), 20.0),),
            )

    def test_cores_must_be_disjoint(self):
        with pytest.raises(ValueError, match="two groups"):
            PartitionSpec(
                n_cores=2,
                total_ways=20,
                groups=(
                    CacheGroup("a", (0, 1), 10.0),
                    CacheGroup("b", (1,), 10.0),
                ),
            )

    def test_ways_must_sum(self):
        with pytest.raises(ValueError, match="sum"):
            PartitionSpec(
                n_cores=1,
                total_ways=20,
                groups=(CacheGroup("a", (0,), 19.0),),
            )

    def test_core_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            PartitionSpec(
                n_cores=1,
                total_ways=20,
                groups=(CacheGroup("a", (0, 5), 20.0),),
            )

    def test_key_distinguishes_partitions(self):
        a = PartitionSpec.hp_be(4, 10, 20)
        b = PartitionSpec.hp_be(5, 10, 20)
        c = PartitionSpec.hp_be(4, 10, 20)
        assert a.key() != b.key()
        assert a.key() == c.key()

    def test_group_of_unknown_core(self):
        part = PartitionSpec.unmanaged(2, 20)
        with pytest.raises(KeyError):
            part.group_of(7)

    def test_factories_share_one_instance_per_argument_tuple(self):
        from repro.core.allocation import Allocation

        um = PartitionSpec.unmanaged(10, 20)
        assert PartitionSpec.unmanaged(10, 20) is um
        assert PartitionSpec.unmanaged(9, 20) is not um
        ct = Allocation.cache_takeover(20)
        assert ct.to_partition(10) is Allocation(19, 20).to_partition(10)
        assert ct.to_partition(10) is not ct.to_partition(9)
        assert ct.to_partition(10) == PartitionSpec.hp_be(19, 10, 20)
        # A refused argument is refused every time, never memoised.
        for _ in range(2):
            with pytest.raises(ValueError):
                PartitionSpec.unmanaged(0, 20)
        # typed: a float core count is not served the int's spec.
        with pytest.raises((TypeError, ValueError)):
            PartitionSpec.unmanaged(10.0, 20)
