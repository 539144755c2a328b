"""Tests for the chaos-injection layer and the supervisor fuzz suite.

The fuzz class (marked ``chaos``, excluded from the quick tier-1 run) is
the executor's analogue of the RDT fault-injection suite: random
crash/hang/raise/garbage schedules must never wedge a campaign, and
every surviving cell must stay bit-identical to a clean serial run —
under the process strategy, and with raise/garbage schedules under the
inline strategy too.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
from repro.experiments.chaos import (
    CHAOS_ENV_VAR,
    ChaosConfig,
    ChaosInjected,
    ChaosKind,
    GARBAGE_RESULT,
    active_config,
    chaos_env,
    maybe_inject,
)
from repro.experiments.supervise import SupervisedExecutor, SuperviseConfig
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.catalog import app_names


class TestChaosConfig:
    def test_env_round_trip(self):
        config = ChaosConfig(
            schedule={3: ChaosKind.CRASH, 5: ChaosKind.HANG},
            persistent=frozenset({5}),
            rate=0.25,
            kinds=(ChaosKind.RAISE, ChaosKind.GARBAGE),
            seed=7,
            hang_s=12.5,
        )
        assert ChaosConfig.from_env(config.to_env()) == config

    def test_from_env_example_spec(self):
        config = ChaosConfig.from_env(
            "seed=7;rate=0.1;kinds=crash,raise;schedule=3:crash,5:hang*"
        )
        assert config.seed == 7
        assert config.rate == 0.1
        assert config.kinds == (ChaosKind.CRASH, ChaosKind.RAISE)
        assert config.schedule == {3: ChaosKind.CRASH, 5: ChaosKind.HANG}
        assert config.persistent == frozenset({5})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            ChaosConfig.from_env("frobnicate=1")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate": -0.1},
            {"rate": 1.5},
            {"rate": 0.5, "kinds": ()},
            {"hang_s": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ChaosConfig(**kwargs)

    def test_scheduled_fault_fires_on_first_attempt_only(self):
        config = ChaosConfig(schedule={2: ChaosKind.RAISE})
        assert config.decide(2, 1) is ChaosKind.RAISE
        assert config.decide(2, 2) is None
        assert config.decide(1, 1) is None

    def test_persistent_fault_fires_every_attempt(self):
        config = ChaosConfig(
            schedule={2: ChaosKind.CRASH}, persistent=frozenset({2})
        )
        assert all(config.decide(2, k) is ChaosKind.CRASH for k in (1, 2, 5))

    def test_random_decision_is_pure(self):
        a = ChaosConfig(rate=0.5, seed=11)
        b = ChaosConfig(rate=0.5, seed=11)
        decisions = [a.decide(i, k) for i in range(1, 30) for k in (1, 2)]
        assert decisions == [
            b.decide(i, k) for i in range(1, 30) for k in (1, 2)
        ]
        assert any(d is not None for d in decisions)  # rate=0.5 does fire

    def test_rate_zero_never_fires(self):
        config = ChaosConfig()
        assert all(
            config.decide(i, k) is None for i in range(1, 20) for k in (1, 2)
        )


class TestActiveConfig:
    def test_absent_env_means_no_chaos(self, monkeypatch):
        monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)
        assert active_config() is None
        assert maybe_inject(1, 1) is None

    def test_env_change_invalidates_cache(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(seed=1))
        assert active_config().seed == 1
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(seed=2))
        assert active_config().seed == 2

    def test_inject_raise(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(schedule={4: "raise"}))
        with pytest.raises(ChaosInjected):
            maybe_inject(4, 1)
        assert maybe_inject(4, 2) is None  # non-persistent: once only

    def test_inject_garbage(self, monkeypatch):
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(schedule={4: "garbage"}))
        assert maybe_inject(4, 1) == GARBAGE_RESULT


def _cells():
    names = app_names()[:2]
    policies = [UnmanagedPolicy(), CacheTakeoverPolicy()]
    return [
        (hp, be, 3, policy)
        for hp in names
        for be in names
        for policy in policies
    ][:6]


# One (kind, persistent) entry per scheduled cell. ``hang`` is included:
# the supervisor runs with a cell timeout, so a wedged worker must be
# killed and either retried or quarantined, never waited on.
def _schedules(kinds):
    entries = st.tuples(st.sampled_from(kinds), st.booleans())
    return st.dictionaries(
        st.integers(min_value=1, max_value=6), entries, max_size=2
    )


# ``crash`` and ``hang`` need process isolation: inline, a crash exits the
# test process and a hang cannot be preempted.
_IN_PROCESS_KINDS = ["raise", "garbage"]


@pytest.mark.chaos
class TestSupervisorFuzz:
    """Random fault schedules: terminate, survive, stay bit-identical."""

    _clean = None

    @classmethod
    def clean_results(cls):
        if cls._clean is None:
            os.environ.pop(CHAOS_ENV_VAR, None)
            cls._clean = SupervisedExecutor(1).run(
                _cells(), TABLE1_PLATFORM
            ).results
        return cls._clean

    def _check(self, schedule, n_workers):
        cells = _cells()
        clean = self.clean_results()
        env = chaos_env(
            schedule={i: kind for i, (kind, _) in schedule.items()},
            persistent=[i for i, (_, p) in schedule.items() if p],
            hang_s=30.0,
        )
        config = SuperviseConfig(
            max_retries=2,
            backoff_base_s=0.0,
            cell_timeout_s=2.0,
            on_failure="skip",
        )
        os.environ[CHAOS_ENV_VAR] = env
        try:
            executor = SupervisedExecutor(n_workers, config=config)
            outcome = executor.run(cells, TABLE1_PLATFORM)
        finally:
            os.environ.pop(CHAOS_ENV_VAR, None)

        # Only poison (persistent) cells may be quarantined; transient
        # faults always clear within the retry budget.
        poison = {i - 1 for i, (_, p) in schedule.items() if p}
        failed = {f.index for f in outcome.failures}
        assert failed == poison
        for index, result in enumerate(outcome.results):
            if index in failed:
                assert result is None
            else:
                assert result == clean[index]

    @given(schedule=_schedules(["crash", "raise", "garbage", "hang"]))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_any_schedule_terminates_and_matches_serial(self, schedule):
        self._check(schedule, 2)

    @given(schedule=_schedules(_IN_PROCESS_KINDS))
    @settings(max_examples=6, deadline=None, derandomize=True)
    def test_inline_schedule_terminates_and_matches_serial(self, schedule):
        self._check(schedule, 1)
