"""Unit tests for PlatformConfig."""

import dataclasses
import pickle

import pytest

from repro.sim.platform import (
    TABLE1_PLATFORM,
    PlatformConfig,
    bytes_to_gbps,
    gbps_to_bytes,
)


class TestConversions:
    def test_round_trip(self):
        assert bytes_to_gbps(gbps_to_bytes(68.3)) == pytest.approx(68.3)

    def test_known_value(self):
        assert gbps_to_bytes(8.0) == pytest.approx(1e9)


class TestPlatformConfig:
    def test_table1_values(self):
        p = TABLE1_PLATFORM
        assert p.n_cores == 10
        assert p.llc_ways == 20
        assert p.llc_bytes == 25 * 1024 * 1024
        assert bytes_to_gbps(p.mem_bw_bytes) == pytest.approx(68.3)
        assert p.freq_hz == pytest.approx(2.2e9)

    def test_way_bytes(self):
        assert TABLE1_PLATFORM.way_bytes == pytest.approx(
            25 * 1024 * 1024 / 20
        )

    def test_hashable_for_memoisation(self):
        assert hash(TABLE1_PLATFORM) == hash(PlatformConfig())
        assert TABLE1_PLATFORM == PlatformConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_cores": 0},
            {"freq_hz": -1.0},
            {"llc_ways": 0},
            {"utilisation_cap": 0.3},
            {"pressure_theta": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PlatformConfig(**kwargs)

    def test_custom_platform_usable(self):
        small = PlatformConfig(n_cores=4, llc_ways=8)
        assert small.n_cores == 4
        assert small != TABLE1_PLATFORM


def _nudged(field: dataclasses.Field):
    """A valid value for ``field`` that differs from its default."""
    value = getattr(TABLE1_PLATFORM, field.name)
    return value + 1 if isinstance(value, int) else value * 1.01


class TestCachedHash:
    """The hash is cached at construction; hash and equality still agree."""

    def test_separately_built_configs_hash_and_compare_equal(self):
        a = PlatformConfig(n_cores=4, llc_ways=8, queue_gain=0.2)
        b = PlatformConfig(n_cores=4, llc_ways=8, queue_gain=0.2)
        assert a is not b
        assert a == b
        assert hash(a) == hash(b)
        assert len({a: 1, b: 2}) == 1

    @pytest.mark.parametrize(
        "field",
        dataclasses.fields(PlatformConfig),
        ids=lambda f: f.name,
    )
    def test_replacing_any_field_gives_an_unequal_config(self, field):
        other = dataclasses.replace(
            TABLE1_PLATFORM, **{field.name: _nudged(field)}
        )
        assert other != TABLE1_PLATFORM
        assert other == dataclasses.replace(
            TABLE1_PLATFORM, **{field.name: _nudged(field)}
        )
        # The copy hashes its own fields, not the original's.
        assert hash(other) == hash(PlatformConfig(
            **{field.name: _nudged(field)}
        ))

    @pytest.mark.parametrize(
        "platform",
        [TABLE1_PLATFORM, PlatformConfig(n_cores=4, llc_ways=8)],
        ids=["table1", "small"],
    )
    def test_pickle_round_trip_keeps_hash_and_equality(self, platform):
        copy = pickle.loads(pickle.dumps(platform))
        assert copy == platform
        assert hash(copy) == hash(platform)
        assert {platform: "memo"}[copy] == "memo"
        assert copy != dataclasses.replace(platform, freq_hz=3e9)
