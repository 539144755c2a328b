"""Thread-pool execution mode (``SupervisedExecutor(pool="threads")``).

The thread pool shares the in-process solver caches (DESIGN.md §12) but
must keep every supervision contract the process pool has — retry,
quarantine, deterministic emission order — minus crash isolation, and
the load-bearing acceptance property: results (and persisted store
digests) bit-identical to a serial run at any worker count.
"""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
from repro.experiments import supervise
from repro.experiments.chaos import CHAOS_ENV_VAR, ChaosInjected, chaos_env
from repro.experiments.supervise import (
    CampaignError,
    SupervisedExecutor,
    SuperviseConfig,
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
    kwargs.setdefault("on_failure", "skip")
    return SuperviseConfig(
        max_retries=max_retries, backoff_base_s=0.0, **kwargs
    )


def _clean_serial(cells):
    return SupervisedExecutor(1).run(cells, TABLE1_PLATFORM).results


class TestThreadPoolDeterminism:
    def test_invalid_pool_rejected(self):
        with pytest.raises(ValueError, match="pool"):
            SupervisedExecutor(2, pool="fibers")

    def test_results_bit_identical_to_serial(self):
        cells = _cells(3)
        clean = _clean_serial(cells)
        outcome = SupervisedExecutor(4, pool="threads").run(
            cells, TABLE1_PLATFORM
        )
        assert outcome.ok
        assert outcome.results == clean

    def test_fast_precision_bit_identical_to_serial(self):
        cells = _cells(2)
        run_kwargs = {"precision": "fast"}
        clean = (
            SupervisedExecutor(1)
            .run(cells, TABLE1_PLATFORM, run_kwargs=run_kwargs)
            .results
        )
        outcome = SupervisedExecutor(4, pool="threads").run(
            cells, TABLE1_PLATFORM, run_kwargs=run_kwargs
        )
        assert outcome.ok
        assert outcome.results == clean

    def test_on_result_fires_in_submission_order(self):
        cells = _cells(2)
        seen = []
        SupervisedExecutor(4, pool="threads").run(
            cells,
            TABLE1_PLATFORM,
            on_result=lambda i, cell, r: seen.append(i),
        )
        assert seen == list(range(len(cells)))

    def test_strict_threads_match_serial_and_reraise_cause(
        self, monkeypatch
    ):
        cells = _cells(2)
        clean = _clean_serial(cells)
        executor = SupervisedExecutor(4, pool="threads")
        assert executor.run(cells, TABLE1_PLATFORM).results == clean
        # The default config is strict: the first failure aborts with the
        # worker's original exception as ``cause``.
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(schedule={3: "raise"}))
        with pytest.raises(CampaignError) as info:
            executor.run(cells, TABLE1_PLATFORM)
        assert isinstance(info.value.cause, ChaosInjected)
        assert info.value.__cause__ is info.value.cause

    def test_store_digest_identical_to_serial(self, tmp_path):
        from repro.experiments.backends import open_backend
        from repro.experiments.grid import build_sample, grid_cells
        from repro.experiments.store import ResultStore

        digests = {}
        for name, workers, pool in (
            ("serial.json", 1, "processes"),
            ("threads.json", 4, "threads"),
        ):
            store = ResultStore(
                cache_path=tmp_path / name,
                n_workers=workers,
                precision="fast",
                pool=pool,
            )
            sample = build_sample(store, limit=2)
            store.get_many(grid_cells(sample, cores=(3,)))
            store.save()
            digests[name] = open_backend(tmp_path / name).digest()
        assert digests["threads.json"] == digests["serial.json"]


class TestThreadPoolSupervision:
    """Thread-only behaviour; the retry/quarantine/abort/order contract
    shared with the other strategies is ``TestSupervisionContract`` in
    ``test_supervise.py``."""

    CELLS = _cells(2)  # 8 cells

    def test_timeout_abandons_the_future_and_retries(
        self, tmp_path, monkeypatch
    ):
        clean = _clean_serial(self.CELLS)
        real_run_cell = supervise.run_cell
        slow_attempts = []

        def slow_first(platform, cell, run_kwargs=None, **kwargs):
            if cell == self.CELLS[2] and not slow_attempts:
                slow_attempts.append(cell)
                time.sleep(1.2)
            return real_run_cell(platform, cell, run_kwargs, **kwargs)

        monkeypatch.setattr(supervise, "run_cell", slow_first)
        path = tmp_path / "events.jsonl"
        obs.enable(path, run_id="t")
        outcome = SupervisedExecutor(
            2,
            pool="threads",
            config=_fast(max_retries=1, cell_timeout_s=0.2),
        ).run(self.CELLS, TABLE1_PLATFORM)
        obs.disable()
        assert outcome.ok
        assert outcome.results == clean
        timeouts = [
            e for e in load_jsonl(path)
            if e.get("kind") == "supervise.timeout"
        ]
        assert timeouts
        assert all(e.get("enforcement") == "abandoned" for e in timeouts)
