"""Unit tests for PeriodSample."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdt.sample import PeriodSample


def sample(**kwargs):
    base = dict(
        duration_s=1.0,
        hp_ipc=0.8,
        hp_mem_bytes_s=1e9,
        total_mem_bytes_s=5e9,
    )
    base.update(kwargs)
    return PeriodSample(**base)


class TestPeriodSample:
    def test_be_bandwidth_is_difference(self):
        assert sample().be_mem_bytes_s == pytest.approx(4e9)

    def test_be_bandwidth_clamped(self):
        # Counter skew can make HP > total momentarily on hardware.
        s = sample(hp_mem_bytes_s=6e9)
        assert s.be_mem_bytes_s == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0.0},
            {"duration_s": -1.0},
            {"hp_ipc": -0.1},
            {"hp_mem_bytes_s": -1.0},
            {"total_mem_bytes_s": -1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            sample(**kwargs)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            sample().hp_ipc = 1.0


def _reference_rejection(fields: dict) -> str | None:
    """The constructor's validation as a plain loop over every entry."""
    if fields["duration_s"] <= 0:
        return f"duration_s must be > 0, got {fields['duration_s']}"
    for name in ("hp_ipc", "hp_mem_bytes_s", "total_mem_bytes_s"):
        if fields[name] < 0:
            return f"{name} must be >= 0"
    for name in ("core_ipcs", "core_mem_bytes_s", "core_occupancy_ways"):
        for v in fields[name]:
            if v < 0:
                return f"{name} entries must be >= 0"
    return None


_value = st.sampled_from(
    (0.0, -0.0, 1.5, -1e-300, -2.0, math.inf, -math.inf, math.nan, 3e9)
)
_entries = st.lists(_value, max_size=10).map(tuple)


class TestChecked:
    """``PeriodSample.checked`` builds the sample the constructor builds and
    rejects exactly what a per-entry check rejects, NaN entries included
    (they pass: ``nan < 0`` is false, whatever a ``min`` returns)."""

    @staticmethod
    def _same_verdict(fields: dict) -> None:
        want = _reference_rejection(fields)
        for build in (
            lambda: PeriodSample(**fields),
            lambda: PeriodSample.checked(*fields.values()),
        ):
            if want is None:
                assert repr(build()) == repr(PeriodSample(**fields))
            else:
                with pytest.raises(ValueError) as err:
                    build()
                assert str(err.value) == want

    @settings(max_examples=200, deadline=None)
    @given(scalars=st.tuples(_value, _value, _value, _value, _value))
    def test_scalars(self, scalars):
        names = [f.name for f in dataclasses.fields(PeriodSample)]
        self._same_verdict(dict(zip(names, (*scalars, (), (), ()))))

    @settings(max_examples=400, deadline=None)
    @example(core=((math.nan, -2.0), (), ()))
    @example(core=((), (1.0, math.nan, -0.5), ()))
    @given(core=st.tuples(_entries, _entries, _entries))
    def test_core_entries(self, core):
        names = [f.name for f in dataclasses.fields(PeriodSample)]
        self._same_verdict(dict(zip(names, (1.0, 0.5, 1e9, 2e9, 0.0, *core))))

    def test_checked_sample_is_a_plain_sample(self):
        built = PeriodSample.checked(
            1.0, 0.5, 1e9, 2e9, 3.0, (0.5, 0.25), (1e9, 1e9), (4.0, 16.0)
        )
        assert built == PeriodSample(
            1.0, 0.5, 1e9, 2e9, 3.0, (0.5, 0.25), (1e9, 1e9), (4.0, 16.0)
        )
        assert built.n_cores == 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.hp_ipc = 0.0
