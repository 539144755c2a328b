"""Tests for the supervised campaign executor.

Fault injection goes through :mod:`repro.experiments.chaos` (the
executor's ``FaultyRdt``): the supervisor must retry transient faults,
quarantine poison cells, rebuild a broken pool without losing innocent
bystanders, and — the load-bearing property — keep every surviving
result bit-identical to a clean serial run.
"""

import pytest

from repro import obs
from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
from repro.experiments import supervise
from repro.experiments.chaos import CHAOS_ENV_VAR, ChaosInjected, chaos_env
from repro.experiments.supervise import (
    CampaignError,
    FailedCell,
    SupervisedExecutor,
    SuperviseConfig,
    backoff_schedule,
)
from repro.obs.report import load_jsonl
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.catalog import app_names


@pytest.fixture(autouse=True)
def _no_obs_leak():
    yield
    obs.disable()


def _cells(n_names: int, n_be: int = 3):
    names = app_names()[:n_names]
    policies = [UnmanagedPolicy(), CacheTakeoverPolicy()]
    return [
        (hp, be, n_be, policy)
        for hp in names
        for be in names
        for policy in policies
    ]


def _fast(max_retries=1, **kwargs):
    """A retrying config with zero backoff so tests never sleep."""
    kwargs.setdefault("on_failure", "skip")
    return SuperviseConfig(
        max_retries=max_retries, backoff_base_s=0.0, **kwargs
    )


def _clean_serial(cells):
    return SupervisedExecutor(1).run(cells, TABLE1_PLATFORM).results


class TestConfig:
    def test_defaults_are_strict(self):
        config = SuperviseConfig()
        assert config.max_retries == 0
        assert config.cell_timeout_s is None
        assert config.on_failure == "abort"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"cell_timeout_s": 0.0},
            {"cell_timeout_s": -3.0},
            {"backoff_base_s": -0.1},
            {"backoff_cap_s": -1.0},
            {"backoff_factor": 0.5},
            {"on_failure": "explode"},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SuperviseConfig(**kwargs)

    def test_backoff_is_deterministic_exponential(self):
        config = SuperviseConfig(
            max_retries=5, backoff_base_s=0.5, backoff_factor=2.0,
            backoff_cap_s=3.0,
        )
        assert backoff_schedule(config) == (0.5, 1.0, 2.0, 3.0, 3.0)
        # Repeatable: no jitter anywhere.
        assert backoff_schedule(config) == backoff_schedule(config)

    def test_backoff_zero_for_retry_zero(self):
        assert SuperviseConfig().backoff_delay(0) == 0.0


#: Worker count of each run strategy the supervisor loop drives: serial
#: runs inline in the caller's thread, processes in a worker pool.
_MODES = {"serial": 1, "processes": 2}


@pytest.mark.parametrize("mode", list(_MODES))
class TestSupervisionContract:
    """Retry, quarantine, abort and ordered emission under every strategy."""

    CELLS = _cells(2)  # 8 cells

    def _run(self, mode, config, on_result=None):
        return SupervisedExecutor(_MODES[mode], config=config).run(
            self.CELLS, TABLE1_PLATFORM, on_result=on_result
        )

    def test_raise_retried(self, mode, monkeypatch):
        clean = _clean_serial(self.CELLS)
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(schedule={2: "raise"}))
        outcome = self._run(mode, _fast())
        assert outcome.ok
        assert outcome.n_retries == 1
        assert outcome.results == clean

    def test_garbage_retried(self, mode, monkeypatch):
        clean = _clean_serial(self.CELLS)
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(schedule={3: "garbage"}))
        outcome = self._run(mode, _fast())
        assert outcome.ok
        assert outcome.n_retries == 1
        assert outcome.results == clean

    def test_poison_quarantined(self, mode, monkeypatch):
        clean = _clean_serial(self.CELLS)
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={1: "raise"}, persistent=[1])
        )
        outcome = self._run(mode, _fast(max_retries=1))
        assert not outcome.ok
        assert outcome.results[0] is None
        assert outcome.results[1:] == clean[1:]
        [failure] = outcome.failures
        assert isinstance(failure, FailedCell)
        assert failure.index == 0
        assert len(failure.attempts) == 2  # first try + one retry
        assert all(a.counted for a in failure.attempts)
        assert failure.last_error.outcome == "error"
        assert failure.last_error.error_type == "ChaosInjected"
        assert "after 2 attempt(s)" in failure.describe()

    def test_quarantine_parity(self, mode, monkeypatch, tmp_path):
        # One persistent garbage cell and one persistent raise cell: the
        # failure records and the supervise.* counters are the same
        # whichever strategy ran them.
        monkeypatch.setenv(
            CHAOS_ENV_VAR,
            chaos_env(schedule={2: "garbage", 5: "raise"}, persistent=[2, 5]),
        )
        registry, _log = obs.enable(tmp_path / "events.jsonl", run_id="t")
        outcome = self._run(mode, _fast(max_retries=0))
        obs.disable()
        failures = sorted(outcome.failures, key=lambda f: f.index)
        assert [
            (f.index, f.last_error.outcome, f.last_error.error_type)
            for f in failures
        ] == [(1, "garbage", "TypeError"), (4, "error", "ChaosInjected")]
        assert failures[0].last_error.message == (
            "worker returned str, not PairResult"
        )
        counters = {
            name: registry.counter(f"supervise.{name}").value
            for name in ("cells_ok", "garbage", "errors", "quarantine")
        }
        assert counters == {
            "cells_ok": 6, "garbage": 1, "errors": 1, "quarantine": 2,
        }
        # One duration per successful attempt, measured the same way.
        assert registry.histogram("parallel.cell_seconds").count == 6

    def test_abort_flushes_in_order(self, mode, monkeypatch):
        clean = _clean_serial(self.CELLS)
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={4: "raise"}, persistent=[4])
        )
        seen = {}
        with pytest.raises(CampaignError) as err:
            self._run(
                mode,
                SuperviseConfig(on_failure="abort"),
                on_result=lambda i, cell, r: seen.setdefault(i, r),
            )
        assert isinstance(err.value.cause, ChaosInjected)
        assert err.value.__cause__ is err.value.cause
        assert err.value.failure.index == 3
        # Cell 3 starts only once a worker slot frees, so at least one
        # cell completed before the raise; every completed cell reached
        # on_result, in index order, with its clean result.
        assert seen
        assert 3 not in seen
        assert list(seen) == sorted(seen)
        assert all(r == clean[i] for i, r in seen.items())

    def test_on_result_order(self, mode, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={2: "raise", 5: "garbage"})
        )
        seen = []
        outcome = self._run(
            mode,
            _fast(max_retries=1),
            on_result=lambda i, cell, r: seen.append(i),
        )
        assert outcome.ok
        assert outcome.n_retries == 2
        assert seen == list(range(len(self.CELLS)))


class TestSerialSupervision:
    CELLS = _cells(2)  # 8 cells

    def test_abort_mode_raises_with_cause_after_flushing(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV_VAR,
            chaos_env(schedule={3: "raise"}, persistent=[3]),
        )
        seen = []
        with pytest.raises(CampaignError) as err:
            SupervisedExecutor(
                1, config=SuperviseConfig(on_failure="abort")
            ).run(
                self.CELLS,
                TABLE1_PLATFORM,
                on_result=lambda i, cell, r: seen.append(i),
            )
        assert isinstance(err.value.cause, ChaosInjected)
        assert err.value.failure.index == 2
        assert seen == [0, 1]  # completed cells were emitted before the raise

    def test_next_ready_cell_runs_during_backoff(self, monkeypatch):
        clean = _clean_serial(self.CELLS)
        ran = []
        real_run_cell = supervise.run_cell

        def record(platform, cell, run_kwargs=None, **kwargs):
            ran.append(self.CELLS.index(cell))
            return real_run_cell(platform, cell, run_kwargs, **kwargs)

        monkeypatch.setattr(supervise, "run_cell", record)
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(schedule={1: "raise"}))
        seen = []
        outcome = SupervisedExecutor(
            1, config=SuperviseConfig(max_retries=1, backoff_base_s=0.2)
        ).run(
            self.CELLS,
            TABLE1_PLATFORM,
            on_result=lambda i, cell, r: seen.append(i),
        )
        assert outcome.ok
        assert outcome.results == clean
        # Cell 0 waits out its backoff while cell 1 runs; emission keeps
        # submission order regardless.
        assert ran[0] == 1
        assert seen == list(range(len(self.CELLS)))

    def test_serial_timeout_is_flagged_unenforced(self, tmp_path):
        path = tmp_path / "events.jsonl"
        obs.enable(path, run_id="t")
        SupervisedExecutor(
            1, config=SuperviseConfig(cell_timeout_s=5.0)
        ).run(self.CELLS[:1], TABLE1_PLATFORM)
        obs.disable()
        kinds = [r.get("kind") for r in load_jsonl(path)]
        assert "supervise.timeout_unenforced" in kinds

    def test_recovery_events_emitted(self, tmp_path, monkeypatch):
        path = tmp_path / "events.jsonl"
        monkeypatch.setenv(
            CHAOS_ENV_VAR,
            chaos_env(schedule={1: "raise"}, persistent=[1]),
        )
        obs.enable(path, run_id="t")
        SupervisedExecutor(1, config=_fast(max_retries=1)).run(
            self.CELLS[:2], TABLE1_PLATFORM
        )
        obs.disable()
        kinds = [r.get("kind") for r in load_jsonl(path)]
        assert kinds.count("supervise.retry") == 1
        assert kinds.count("supervise.quarantine") == 1
        batch = [r for r in load_jsonl(path) if r.get("kind") == "campaign.batch"]
        assert batch and batch[0]["failed_cells"] == 1


class TestPoolSupervision:
    CELLS = _cells(2)

    def test_worker_crash_rebuilds_pool_and_recovers(self, monkeypatch):
        clean = _clean_serial(self.CELLS)
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={2: "crash"})
        )
        outcome = SupervisedExecutor(2, config=_fast(max_retries=1)).run(
            self.CELLS, TABLE1_PLATFORM
        )
        assert outcome.ok
        assert outcome.n_pool_rebuilds >= 1
        assert outcome.results == clean

    def test_poison_crash_quarantined_bystanders_survive(self, monkeypatch):
        clean = _clean_serial(self.CELLS)
        monkeypatch.setenv(
            CHAOS_ENV_VAR,
            chaos_env(schedule={1: "crash"}, persistent=[1]),
        )
        outcome = SupervisedExecutor(2, config=_fast(max_retries=1)).run(
            self.CELLS, TABLE1_PLATFORM
        )
        [failure] = outcome.failures
        assert failure.index == 0
        # Crash attribution: only counted (solo-attributed) strikes
        # condemn a cell; collateral "pool_crash" strikes never do.
        counted = [a for a in failure.attempts if a.counted]
        assert len(counted) == 2
        assert {a.outcome for a in counted} <= {"crash", "timeout"}
        # Every innocent bystander still produced its exact result.
        assert outcome.results[0] is None
        assert outcome.results[1:] == clean[1:]

    def test_on_result_order_survives_chaos(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={2: "raise", 5: "garbage"})
        )
        seen = []
        outcome = SupervisedExecutor(4, config=_fast(max_retries=1)).run(
            self.CELLS,
            TABLE1_PLATFORM,
            on_result=lambda i, cell, r: seen.append(i),
        )
        assert outcome.ok
        assert seen == list(range(len(self.CELLS)))

    def test_abort_mode_emits_completed_cells_before_raise(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV_VAR,
            chaos_env(schedule={1: "raise"}, persistent=[1]),
        )
        seen = []
        with pytest.raises(CampaignError) as err:
            SupervisedExecutor(
                2, config=SuperviseConfig(on_failure="abort")
            ).run(
                self.CELLS,
                TABLE1_PLATFORM,
                on_result=lambda i, cell, r: seen.append(i),
            )
        assert err.value.failure.index == 0
        assert 0 not in seen
        assert seen == sorted(seen)  # still strictly submission-ordered

    @pytest.mark.chaos
    def test_hang_killed_by_timeout_and_retried(self, monkeypatch):
        cells = self.CELLS[:3]
        clean = _clean_serial(cells)
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={1: "hang"}, hang_s=60.0)
        )
        outcome = SupervisedExecutor(
            2, config=_fast(max_retries=1, cell_timeout_s=2.0)
        ).run(cells, TABLE1_PLATFORM)
        assert outcome.ok
        assert outcome.n_retries >= 1
        assert outcome.results == clean

    @pytest.mark.chaos
    def test_persistent_hang_quarantined_as_timeout(self, monkeypatch):
        cells = self.CELLS[:3]
        clean = _clean_serial(cells)
        monkeypatch.setenv(
            CHAOS_ENV_VAR,
            chaos_env(schedule={1: "hang"}, persistent=[1], hang_s=60.0),
        )
        outcome = SupervisedExecutor(
            2, config=_fast(max_retries=1, cell_timeout_s=1.5)
        ).run(cells, TABLE1_PLATFORM)
        [failure] = outcome.failures
        assert failure.index == 0
        assert failure.last_error.outcome == "timeout"
        assert outcome.results[1:] == clean[1:]
