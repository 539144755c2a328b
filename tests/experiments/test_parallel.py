"""Tests for parallel campaign execution (``SupervisedExecutor``).

The load-bearing property is determinism: a campaign executed over N
worker processes must be *bit-identical* to the serial execution — same
floats, same traces, same ordering — because every figure in the paper is
a projection of these campaigns and must not depend on the machine's core
count. The default (strict) supervision config keeps the all-or-nothing
contract: the first failing cell aborts the batch with a
:class:`CampaignError` carrying the original exception.
"""

import pytest

from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    UnmanagedPolicy,
)
from repro.experiments.chaos import CHAOS_ENV_VAR, ChaosInjected, chaos_env
from repro.experiments.classify import classify_all
from repro.experiments.grid import run_grid
from repro.experiments.store import ResultStore
from repro.experiments.supervise import (
    CampaignError,
    SupervisedExecutor,
    run_cell,
)
from repro.sim.platform import TABLE1_PLATFORM
from repro.workloads.catalog import app_names


def _cells(n_names: int, n_be: int = 3):
    names = app_names()[:n_names]
    policies = [UnmanagedPolicy(), CacheTakeoverPolicy()]
    return [
        (hp, be, n_be, policy)
        for hp in names
        for be in names
        for policy in policies
    ]


def _run(n_workers: int, cells):
    """Strict supervised run; the results list of a clean campaign."""
    outcome = SupervisedExecutor(n_workers).run(cells, TABLE1_PLATFORM)
    assert outcome.ok
    return outcome.results


class TestParallelExecutor:
    def test_serial_path_matches_direct_run(self):
        cells = _cells(2)
        direct = [run_cell(TABLE1_PLATFORM, cell) for cell in cells]
        assert _run(1, cells) == direct

    def test_parallel_bit_identical_to_serial(self):
        cells = _cells(2)
        # Dataclass equality is exact float equality, field by field.
        assert _run(4, cells) == _run(1, cells)

    def test_fast_precision_bit_identical_to_serial(self):
        cells = _cells(2)
        run_kwargs = {"precision": "fast"}
        serial, parallel = (
            SupervisedExecutor(n_workers).run(
                cells, TABLE1_PLATFORM, run_kwargs=run_kwargs
            )
            for n_workers in (1, 4)
        )
        assert parallel.ok
        assert parallel.results == serial.results

    def test_dicer_trace_survives_the_pool(self):
        cells = [("omnetpp1", "bzip22", 3, DicerPolicy())]
        serial = _run(1, cells)
        parallel = _run(2, cells * 2)
        assert parallel[0] == parallel[1] == serial[0]
        assert parallel[0].trace  # decisions crossed the process boundary

    def test_on_result_fires_in_submission_order(self):
        cells = _cells(2)
        seen = []
        SupervisedExecutor(4).run(
            cells,
            TABLE1_PLATFORM,
            on_result=lambda i, cell, r: seen.append(i),
        )
        assert seen == list(range(len(cells)))

    def test_auto_detect_workers(self):
        assert SupervisedExecutor(None).n_workers >= 1
        assert SupervisedExecutor(0).n_workers >= 1
        assert SupervisedExecutor(3).n_workers == 3

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_first_failure_carries_the_original_exception(
        self, n_workers, monkeypatch
    ):
        monkeypatch.setenv(CHAOS_ENV_VAR, chaos_env(schedule={2: "raise"}))
        with pytest.raises(CampaignError) as info:
            SupervisedExecutor(n_workers).run(_cells(2), TABLE1_PLATFORM)
        err = info.value
        assert isinstance(err.cause, ChaosInjected)
        assert err.__cause__ is err.cause
        assert err.failure.index == 1


class TestParallelCampaigns:
    """Serial and parallel stores must build identical campaign artefacts."""

    # A small property sweep: different catalog slices, sample sizes and
    # core grids all have to agree with serial execution bit-for-bit.
    @pytest.mark.parametrize(
        "n_names,n_sample,cores",
        [(3, 3, (2, 4)), (4, 4, (2,)), (2, 4, (3, 5))],
    )
    def test_grid_bit_identical(self, n_names, n_sample, cores):
        names = app_names()[:n_names]

        serial_store = ResultStore(n_workers=1)
        serial_classes = classify_all(
            serial_store, hp_names=names, be_names=names
        )
        serial_grid = run_grid(
            serial_store, serial_classes[:n_sample], cores=cores
        )

        parallel_store = ResultStore(n_workers=4)
        parallel_classes = classify_all(
            parallel_store, hp_names=names, be_names=names
        )
        parallel_grid = run_grid(
            parallel_store, parallel_classes[:n_sample], cores=cores
        )

        assert parallel_classes == serial_classes
        assert parallel_grid == serial_grid

    def test_store_digest_identical_to_serial(self, tmp_path):
        from repro.experiments.backends import open_backend
        from repro.experiments.grid import build_sample, grid_cells

        digests = {}
        for name, workers in (("serial.json", 1), ("processes.json", 4)):
            store = ResultStore(
                cache_path=tmp_path / name,
                n_workers=workers,
                precision="fast",
            )
            sample = build_sample(store, limit=2)
            store.get_many(grid_cells(sample, cores=(3,)))
            store.save()
            digests[name] = open_backend(tmp_path / name).digest()
        assert digests["processes.json"] == digests["serial.json"]

    def test_get_many_aligns_with_requests(self):
        cells = _cells(2)
        store = ResultStore(n_workers=2)
        results = store.get_many(cells + cells[:3])  # duplicates allowed
        assert len(results) == len(cells) + 3
        for cell, result in zip(cells + cells[:3], results):
            hp, be, n_be, policy = cell
            assert (result.hp_name, result.be_name) == (hp, be)
            assert result.n_be == n_be
            assert result.policy == policy.name
        # Duplicates were served from cache, not recomputed.
        assert store.stats()["recomputed"] == len(cells)
