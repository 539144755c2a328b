"""Unit tests for the policy layer."""

import pytest

from repro.core.allocation import Allocation
from repro.core.cbp import CbpPolicy
from repro.core.config import DicerConfig
from repro.core.dcpqos import DcpQosPolicy
from repro.core.lfoc import LfocPolicy
from repro.core.mba import MbaDicerPolicy
from repro.core.policies import (
    CacheTakeoverPolicy,
    ControllerPolicy,
    DicerPolicy,
    StaticPolicy,
    UnmanagedPolicy,
    policy_from_name,
)
from repro.experiments.cli import RUN_POLICIES
from repro.rdt.harness import drive
from repro.rdt.sample import PeriodSample


def sample():
    return PeriodSample(
        duration_s=1.0, hp_ipc=0.5, hp_mem_bytes_s=1e9, total_mem_bytes_s=3e9
    )


class TestStaticPolicies:
    def test_unmanaged(self):
        p = UnmanagedPolicy()
        assert p.setup(20) is None
        assert p.dynamic is False
        assert p.name == "UM"

    def test_cache_takeover(self):
        p = CacheTakeoverPolicy()
        assert p.setup(20) == Allocation.cache_takeover(20)
        assert p.name == "CT"

    def test_static(self):
        p = StaticPolicy(7)
        assert p.setup(20).hp_ways == 7
        assert p.name == "S7"

    def test_static_with_overlap(self):
        p = StaticPolicy(4, overlap_ways=2)
        allocation = p.setup(20)
        assert allocation.overlap_ways == 2
        assert "o" in p.name

    def test_update_is_noop(self):
        p = CacheTakeoverPolicy()
        p.setup(20)
        assert p.update(sample()) is None

    def test_fresh_returns_self_for_stateless(self):
        p = UnmanagedPolicy()
        assert p.fresh() is p


class TestDicerPolicy:
    def test_dynamic_with_period(self):
        p = DicerPolicy(DicerConfig(period_s=0.5))
        assert p.dynamic is True
        assert p.period_s == 0.5

    def test_setup_builds_controller(self):
        p = DicerPolicy()
        allocation = p.setup(20)
        assert allocation == Allocation.cache_takeover(20)
        assert p.controller is not None

    def test_controller_before_setup_rejected(self):
        with pytest.raises(RuntimeError, match="setup"):
            DicerPolicy().controller

    def test_update_delegates(self):
        p = DicerPolicy()
        p.setup(20)
        allocation = p.update(sample())
        assert isinstance(allocation, Allocation)
        assert len(p.controller.trace) == 1

    def test_fresh_resets_state(self):
        p = DicerPolicy()
        p.setup(20)
        p.update(sample())
        q = p.fresh()
        assert q is not p
        assert q.config is p.config
        q.setup(20)
        assert len(q.controller.trace) == 0


class _KnobRecorder:
    """A backend that finishes after ``periods`` samples and records the
    knob calls :func:`drive` makes."""

    def __init__(self, periods: int) -> None:
        self.left = periods
        self.time_s = 0.0
        self.knobs: list[str] = []

    @property
    def finished(self) -> bool:
        return self.left == 0

    def sample(self, period_s: float) -> PeriodSample:
        self.left -= 1
        self.time_s += period_s
        return sample()

    def apply(self, allocation) -> None:
        pass

    def apply_be_throttle(self, scale: float) -> None:
        self.knobs.append("mba")

    def apply_be_prefetch(self, level: float) -> None:
        self.knobs.append("prefetch")


#: Every controller policy and the knobs its controller exposes.
CONTROLLER_POLICIES = {
    "DICER": (DicerPolicy, ()),
    "DICER-MBA": (MbaDicerPolicy, ("mba",)),
    "DCP-QoS": (DcpQosPolicy, ()),
    "LFOC": (LfocPolicy, ()),
    "CBP": (CbpPolicy, ("mba", "prefetch")),
}


@pytest.mark.parametrize("name", sorted(CONTROLLER_POLICIES))
class TestControllerPolicies:
    def test_name_and_period(self, name):
        cls, _ = CONTROLLER_POLICIES[name]
        policy = cls()
        assert isinstance(policy, ControllerPolicy)
        assert policy.name == name
        assert policy.dynamic is True
        assert policy.period_s == policy.config.period_s

    def test_fresh_is_an_unset_copy(self, name):
        cls, _ = CONTROLLER_POLICIES[name]
        policy = cls()
        policy.setup(20)
        clone = policy.fresh()
        assert type(clone) is cls and clone is not policy
        assert clone.config is policy.config
        with pytest.raises(RuntimeError, match="setup"):
            clone.controller
        clone.setup(20)
        assert type(clone.controller) is type(policy.controller)
        assert clone.controller is not policy.controller

    def test_controller_before_setup_rejected(self, name):
        cls, _ = CONTROLLER_POLICIES[name]
        with pytest.raises(RuntimeError, match="setup"):
            cls().controller

    def test_drive_forwards_exactly_the_controller_knobs(self, name):
        cls, knobs = CONTROLLER_POLICIES[name]
        policy = cls().fresh()
        policy.setup(20)
        backend = _KnobRecorder(periods=3)
        drive(policy, backend)
        assert backend.knobs == list(knobs) * 3


@pytest.mark.parametrize("name", RUN_POLICIES)
def test_run_choices_resolve_by_name(name):
    assert policy_from_name(name).name == name
