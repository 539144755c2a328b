"""Precision threading: every entry point honours ``precision``.

The fast-math mode (DESIGN.md §10) is only trustworthy if the chosen
precision actually reaches every solver call a run makes — the event loop,
the prefetchers, the solo baselines — and if the two modes can never merge
silently: exact results must stay byte-identical to the historical default,
and a :class:`~repro.experiments.store.ResultStore` must refuse to mix
modes in one cache. These tests spy on every steady-state memo solve to
assert the former and exercise the store/CLI guard rails for the latter.
"""

from __future__ import annotations

import json

import pytest

from repro.core.policies import DicerPolicy, UnmanagedPolicy
from repro.experiments.chaos import CHAOS_ENV_VAR, chaos_env
from repro.experiments.runner import run_pair
from repro.experiments.store import ResultStore
from repro.experiments.supervise import FailedCell, SuperviseConfig
from repro.sim.contention import SteadyStateCache
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.solo import clear_caches, prewarm_profiles, solo_profile
from repro.workloads.catalog import get_app
from repro.workloads.mix import make_mix

PLAT = TABLE1_PLATFORM


@pytest.fixture
def solver_spy(monkeypatch):
    """Record the ``precision`` of every memo solve, then delegate."""
    seen: list[str] = []
    real_solve = SteadyStateCache.solve
    real_solve_many = SteadyStateCache.solve_many

    def spy_solve(self, *args, **kwargs):
        seen.append(kwargs.get("precision", "exact"))
        return real_solve(self, *args, **kwargs)

    def spy_solve_many(self, *args, **kwargs):
        seen.append(kwargs.get("precision", "exact"))
        return real_solve_many(self, *args, **kwargs)

    monkeypatch.setattr(SteadyStateCache, "solve", spy_solve)
    monkeypatch.setattr(SteadyStateCache, "solve_many", spy_solve_many)
    clear_caches()  # solo profiles must not short-circuit the spy
    return seen


class TestRunnerThreading:
    """run_pair pushes one precision through the whole execution."""

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_static_run_uses_one_precision_everywhere(
        self, solver_spy, precision
    ):
        run_pair(
            make_mix("omnetpp1", "bzip22", n_be=3),
            UnmanagedPolicy(),
            PLAT,
            precision=precision,
        )
        assert solver_spy and set(solver_spy) == {precision}

    def test_dicer_run_prefetch_hook_inherits_precision(self, solver_spy):
        run_pair(
            make_mix("omnetpp1", "bzip22", n_be=3),
            DicerPolicy(),
            PLAT,
            precision="fast",
        )
        # The controller's sampling-grid prefetches go through
        # SimulatedRdt.prefetch_allocations -> Server.prefetch_partitions,
        # which must inherit the server's mode — any "exact" here means a
        # solve escaped the threading.
        assert solver_spy.count("fast") > 1
        assert set(solver_spy) == {"fast"}

    def test_default_stays_exact(self, solver_spy):
        run_pair(
            make_mix("omnetpp1", "bzip22", n_be=3), UnmanagedPolicy(), PLAT
        )
        assert solver_spy and set(solver_spy) == {"exact"}

    def test_exact_results_are_byte_identical_to_default(self):
        mix = make_mix("omnetpp1", "bzip22", n_be=3)
        baseline = run_pair(mix, UnmanagedPolicy(), PLAT)
        explicit = run_pair(mix, UnmanagedPolicy(), PLAT, precision="exact")
        assert baseline == explicit


class TestSoloThreading:
    def test_profiles_are_cached_per_precision(self):
        clear_caches()
        app = get_app("omnetpp1")
        fast = solo_profile(app, PLAT, precision="fast")
        assert solo_profile(app, PLAT, precision="fast") is fast
        exact = solo_profile(app, PLAT)
        assert exact is not fast

    def test_prewarm_feeds_the_matching_mode(self, solver_spy):
        apps = [get_app("omnetpp1"), get_app("bzip22")]
        assert prewarm_profiles(apps, PLAT, precision="fast") == 2
        assert set(solver_spy) == {"fast"}
        # Prewarmed fast profiles serve fast lookups without re-solving...
        n_calls = len(solver_spy)
        solo_profile(apps[0], PLAT, precision="fast")
        assert len(solver_spy) == n_calls
        # ...but an exact lookup must NOT be served from fast prewarm.
        solo_profile(apps[0], PLAT)
        assert len(solver_spy) > n_calls


class TestStoreGuardRails:
    """A ResultStore is single-mode; fast and exact never share a save."""

    def test_per_request_override_mismatch_refused(self):
        store = ResultStore(precision="fast")
        with pytest.raises(ValueError, match="mixed-mode"):
            store.get("omnetpp1", "bzip22", UnmanagedPolicy(), precision="exact")

    def test_matching_override_allowed(self, solver_spy):
        store = ResultStore(precision="fast")
        store.get(
            "omnetpp1", "bzip22", UnmanagedPolicy(), n_be=2, precision="fast"
        )
        assert set(solver_spy) == {"fast"}

    def test_save_stamps_precision(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, precision="fast")
        store.get("omnetpp1", "bzip22", UnmanagedPolicy(), n_be=2)
        store.save()
        assert json.loads(path.read_text())["precision"] == "fast"

    def test_cross_mode_load_refused(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, precision="fast")
        store.get("omnetpp1", "bzip22", UnmanagedPolicy(), n_be=2)
        store.save()
        with pytest.raises(ValueError, match="refusing to merge"):
            ResultStore(cache_path=path)  # default store is exact

    def test_same_mode_reload_round_trips(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, precision="fast")
        result = store.get("omnetpp1", "bzip22", UnmanagedPolicy(), n_be=2)
        store.save()
        reloaded = ResultStore(cache_path=path, precision="fast")
        assert len(reloaded) == 1
        cached = reloaded.get("omnetpp1", "bzip22", UnmanagedPolicy(), n_be=2)
        assert cached.hp_norm_ipc == result.hp_norm_ipc

    def test_legacy_cache_without_stamp_reads_as_exact(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path)
        store.get("omnetpp1", "bzip22", UnmanagedPolicy(), n_be=2)
        store.save()
        payload = json.loads(path.read_text())
        del payload["precision"]  # pre-fast-math cache layout
        path.write_text(json.dumps(payload))
        assert len(ResultStore(cache_path=path)) == 1
        with pytest.raises(ValueError, match="refusing to merge"):
            ResultStore(cache_path=path, precision="fast")

    def test_invalid_precision_rejected(self):
        with pytest.raises(ValueError, match="precision"):
            ResultStore(precision="sloppy")


class TestFailureManifests:
    def test_failed_cell_records_active_precision(self, monkeypatch):
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={1: "raise"}, persistent=[1])
        )
        store = ResultStore(
            precision="fast",
            supervise=SuperviseConfig(
                max_retries=0, backoff_base_s=0.0, on_failure="skip"
            ),
        )
        cells = [("omnetpp1", "bzip22", 2, UnmanagedPolicy())]
        assert store.get_many(cells) == [None]
        [entry] = store.failure_manifest()
        assert entry["precision"] == "fast"
        [failed] = store.failures
        assert failed.precision == "fast"

    def test_failed_cell_precision_defaults_to_exact(self):
        # Manifests persisted before the fast-math mode deserialise with
        # the historical solver mode.
        cell = FailedCell(
            index=0, hp_name="a", be_name="b", n_be=2, policy="UM"
        )
        assert cell.precision == "exact"


class TestCliThreading:
    def _run_cli(self, argv, capsys):
        from repro.experiments.cli import main

        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("precision", ["exact", "fast"])
    def test_run_honours_precision_flag(self, solver_spy, precision, capsys):
        out = self._run_cli(
            [
                "run", "--hp", "omnetpp1", "--be", "bzip22",
                "--n-be", "2", "--policy", "UM",
                "--precision", precision,
            ],
            capsys,
        )
        assert "hp_norm_ipc" in out
        assert solver_spy and set(solver_spy) == {precision}

    def test_campaigns_default_to_fast(self, solver_spy, capsys):
        self._run_cli(
            ["run", "--hp", "omnetpp1", "--be", "bzip22", "--n-be", "2",
             "--policy", "UM"],
            capsys,
        )
        assert solver_spy and set(solver_spy) == {"fast"}

    def test_fig2_honours_precision_flag(self, solver_spy, capsys):
        out = self._run_cli(
            ["fig2", "--limit", "1", "--precision", "exact"], capsys
        )
        assert "Figure 2" in out
        assert solver_spy and set(solver_spy) == {"exact"}

    def test_cross_mode_cache_exits_cleanly(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cache = str(tmp_path / "cache.json")
        argv = ["fig1", "--limit", "2", "--cache", cache]
        assert main(argv) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="refusing to merge"):
            main(argv + ["--precision", "exact"])
