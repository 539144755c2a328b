"""Batched prefetch wiring: Server, SimulatedRdt, DICER hook, solo prewarm.

Prefetching is a pure execution-speed hint — every test here pins the
invariant that matters: prefetched runs produce *bit-identical* results to
unprefetched ones. Only fast-precision servers prefetch; fast lanes are
pure per lane (DESIGN.md §10), so a prefetched memo entry carries the
exact bytes of the cold fast singleton solve it replaces. Exact-precision
servers never batch: their prefetches are no-ops and every point goes to
the scalar solver on demand.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.experiments.runner as runner_mod
import repro.sim.contention as contention_mod
import repro.sim.server as server_mod
from repro import obs
from repro.core.admission import find_max_bes
from repro.core.allocation import Allocation
from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    StaticPolicy,
    UnmanagedPolicy,
)
from repro.experiments.runner import run_pair
from repro.experiments.store import ResultStore
from repro.sim.contention import (
    ConvergenceError,
    SteadyStateCache,
    solve_steady_state,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import Server
from repro.rdt.simulated import SimulatedRdt
from repro.sim.solo import prewarm_profiles, solo_profile
from repro.workloads.catalog import app_names, catalog
from repro.workloads.mix import make_mix

PLAT = TABLE1_PLATFORM
PRECISIONS = ("exact", "fast")


def multi_phase_apps(n=2):
    apps = catalog()
    return [apps[name] for name in app_names() if len(apps[name].phases) > 1][
        :n
    ]


class TestPrefetchPartitions:
    def test_fills_memo_and_counts(self, clean_caches):
        apps = catalog()
        models = [apps[name] for name in app_names()[:4]]
        server = Server(PLAT, models, precision="fast")
        partitions = [
            PartitionSpec.hp_be(w, 4, PLAT.llc_ways) for w in (2, 5, 9, 19)
        ]
        assert server.prefetch_partitions(partitions) == 4
        # Already memoised: a second prefetch has nothing to do.
        assert server.prefetch_partitions(partitions) == 0

    def test_memo_entries_match_cold_singleton(self, clean_caches):
        apps = catalog()
        models = [apps[name] for name in app_names()[:3]]
        server = Server(PLAT, models, precision="fast")
        partitions = [
            PartitionSpec.hp_be(w, 3, PLAT.llc_ways) for w in (4, 12)
        ]
        server.prefetch_partitions(partitions)
        phases = tuple(a.phases[0] for a in models)
        for part in partitions:
            server.set_partition(part)
            state = server.steady_state()
            # Lane purity: the batch lane equals a one-lane fast solve.
            cold = solve_steady_state(PLAT, phases, part, precision="fast")
            assert np.array_equal(state.ipc, cold.ipc)
            assert np.array_equal(state.ways, cold.ways)
            assert state.latency_cycles == cold.latency_cycles
            assert state.iterations == cold.iterations

    def test_noop_under_exact(self, clean_caches):
        models = multi_phase_apps(2)
        server = Server(PLAT, models, precision="exact")
        parts = [PartitionSpec.hp_be(w, 2, PLAT.llc_ways) for w in (4, 10)]
        assert server.prefetch_partitions(parts) == 0
        assert server.prefetch_phase_product() == 0
        assert server._memo == {}

    def test_rejects_mismatched_partition(self, clean_caches):
        apps = catalog()
        for precision in PRECISIONS:
            server = Server(PLAT, [apps[app_names()[0]]], precision=precision)
            with pytest.raises(ValueError):
                server.prefetch_partitions(
                    [PartitionSpec.hp_be(10, 2, PLAT.llc_ways)]
                )

    def test_nonconvergent_batch_is_dropped(self, clean_caches, monkeypatch):
        # A speculative point that cannot converge must not fail the run:
        # the prefetch is dropped and the points are solved on demand.
        def refuse(*args, **kwargs):
            raise ConvergenceError("no convergence")

        apps = catalog()
        models = [apps[name] for name in app_names()[:2]]
        server = Server(PLAT, models, precision="fast")
        parts = [PartitionSpec.hp_be(w, 2, PLAT.llc_ways) for w in (4, 10)]
        monkeypatch.setattr(
            contention_mod, "solve_steady_state_batch", refuse
        )
        assert server.prefetch_partitions(parts) == 0
        assert server._memo == {}


class TestPrefetchPhaseProduct:
    def test_covers_phase_product(self, clean_caches):
        models = multi_phase_apps(2)
        assert len(models) == 2  # the catalog has multi-phase apps
        expected = len(models[0].phases) * len(models[1].phases)
        server = Server(PLAT, models, precision="fast")
        assert server.prefetch_phase_product() == expected
        assert server.prefetch_phase_product() == 0  # all memoised now

    def test_clones_count_once(self, clean_caches):
        [model] = multi_phase_apps(1)
        clones = [model.with_name(f"{model.name}#{k}") for k in (1, 2)]
        server = Server(PLAT, [model] + clones, precision="fast")
        # Three cores but one distinct model: |phases| points, not
        # |phases|**3.
        assert server.prefetch_phase_product() == len(model.phases)

    def test_bails_beyond_max_points(self, clean_caches):
        models = multi_phase_apps(2)
        server = Server(PLAT, models, precision="fast")
        assert server.prefetch_phase_product(max_points=1) == 0

    def test_static_run_identical_with_and_without(self, clean_caches):
        apps = catalog()
        be = apps["bzip22"]
        models = [apps["omnetpp1"]] + [
            be.with_name(f"{be.name}#{k}") for k in range(1, 4)
        ]
        part = PartitionSpec.hp_be(12, 4, PLAT.llc_ways)

        for precision in PRECISIONS:
            plain = Server(PLAT, models, part, precision=precision)
            plain.run_until_all_complete(max_time_s=500.0)
            warmed = Server(PLAT, models, part, precision=precision)
            warmed.prefetch_phase_product()
            warmed.run_until_all_complete(max_time_s=500.0)

            assert plain.time == warmed.time
            for a, b in zip(plain.apps, warmed.apps):
                assert a.total_instructions == b.total_instructions
                assert a.completions == b.completions
                assert a.run_times == b.run_times


def shrink_runs(trace) -> int:
    """Maximal runs of ``shrink`` decisions; fault periods are transparent."""
    runs, descending = 0, False
    for record in trace:
        if record.event == "fault":
            continue
        if record.event == "shrink" and not descending:
            runs += 1
        descending = record.event == "shrink"
    return runs


#: CT-Thwarted: samples, then descends 14 ways in one stable stretch.
CTT_LONG_DESCENT = ("soplex2", "gcc_base6", 9)
#: CT-Favoured: descends from 19 ways to the floor without sampling.
CTF_LONG_DESCENT = ("perlbench1", "bzip22", 9)


class TestRdtAndControllerHook:
    def test_prefetch_allocations_delegates(self, clean_caches):
        apps = catalog()
        models = [apps[name] for name in app_names()[:4]]
        rdt = SimulatedRdt(Server(PLAT, models, precision="fast"))
        allocations = [
            Allocation(hp_ways=w, total_ways=PLAT.llc_ways)
            for w in (3, 7, 11, 15, 19)
        ]
        assert rdt.prefetch_allocations(allocations) == 5
        assert rdt.prefetch_allocations(allocations) == 0

    @pytest.mark.parametrize(
        "mix",
        [
            pytest.param(CTT_LONG_DESCENT, id="ctt"),
            # Two-phase HPs: phase changes reset descents mid-ladder.
            pytest.param(("bzip23", "milc1", 1), id="ph1"),
            pytest.param(("gcc_base4", "lbm1", 5), id="ph5"),
        ],
    )
    def test_dicer_run_identical_with_hook_disabled(
        self, clean_caches, monkeypatch, mix
    ):
        with_hook = run_pair(make_mix(*mix), DicerPolicy(), precision="fast")
        assert shrink_runs(with_hook.trace) >= 1
        monkeypatch.setattr(
            runner_mod, "_wire_prefetch", lambda policy, rdt, precision: None
        )
        without_hook = run_pair(
            make_mix(*mix), DicerPolicy(), precision="fast"
        )
        assert with_hook == without_hook  # traces included

    def test_static_policy_run_identical_without_prefetch(
        self, clean_caches, monkeypatch
    ):
        mix = make_mix("omnetpp1", "bzip22", 9)
        prefetched = {
            p: run_pair(mix, StaticPolicy(4), precision=p) for p in PRECISIONS
        }
        monkeypatch.setattr(
            Server,
            "prefetch_phase_product",
            lambda self, max_points=64, *, staged=None: 0,
        )
        for precision in PRECISIONS:
            plain = run_pair(mix, StaticPolicy(4), precision=precision)
            assert prefetched[precision] == plain


class TestWorkBounds:
    """What each steady-state request costs, counted (never timed)."""

    @staticmethod
    def count_calls(monkeypatch, name):
        calls = []
        real = getattr(contention_mod, name)

        def spy(*args, **kwargs):
            calls.append(kwargs.get("precision", "exact"))
            return real(*args, **kwargs)

        monkeypatch.setattr(contention_mod, name, spy)
        return calls

    def test_fast_descent_makes_few_singleton_solves(
        self, clean_caches, monkeypatch
    ):
        # Without the ladder prefetch every way the descent gives up is a
        # singleton solve (18 here); with it the whole ladder is one batch.
        singletons = self.count_calls(monkeypatch, "solve_steady_state")
        result = run_pair(
            make_mix(*CTF_LONG_DESCENT), DicerPolicy(), precision="fast"
        )
        assert sum(r.event == "shrink" for r in result.trace) >= 15
        assert len(singletons) <= 2

    @pytest.mark.parametrize(
        "mix",
        [
            pytest.param(CTT_LONG_DESCENT, id="ctt"),
            pytest.param(CTF_LONG_DESCENT, id="ctf"),
        ],
    )
    def test_hook_fires_once_per_descent(
        self, clean_caches, monkeypatch, mix
    ):
        ladders = []
        real = SimulatedRdt.prefetch_allocations

        def spy(self, allocations):
            ways = [a.hp_ways for a in allocations]
            if ways == list(range(ways[0], 0, -1)):
                ladders.append(ways)
            return real(self, allocations)

        monkeypatch.setattr(SimulatedRdt, "prefetch_allocations", spy)
        result = run_pair(make_mix(*mix), DicerPolicy(), precision="fast")
        assert len(ladders) == shrink_runs(result.trace) >= 1

    def test_exact_never_batches(self, clean_caches, monkeypatch):
        batches = self.count_calls(monkeypatch, "solve_steady_state_batch")
        prefetched = []
        for name in ("prefetch_partitions", "prefetch_phase_product"):
            real = getattr(Server, name)

            def spy(self, *args, _real=real, **kwargs):
                solved = _real(self, *args, **kwargs)
                prefetched.append(solved)
                return solved

            monkeypatch.setattr(Server, name, spy)
        run_pair(make_mix(*CTT_LONG_DESCENT), DicerPolicy())
        find_max_bes("soplex2", "gcc_base6", "DICER", 0.9)
        assert batches == []
        assert prefetched and set(prefetched) == {0}


class TestStagedPhaseProducts:
    """A fast in-process campaign builds each cell's phase product once."""

    CELLS = [
        (hp, be, 3, policy)
        for hp, be in (("milc1", "gcc_base6"), ("bzip23", "lbm1"))
        for policy in (UnmanagedPolicy(), CacheTakeoverPolicy())
    ]

    @staticmethod
    def count_products(monkeypatch):
        calls = []
        real = server_mod.phase_product_points

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(server_mod, "phase_product_points", spy)
        return calls

    def test_one_phase_product_per_cell(self, clean_caches, monkeypatch):
        # No cell builds its product twice, and a pair's UM and CT cells
        # (one set of phase tuples) share one build of its combinations.
        calls = self.count_products(monkeypatch)
        ResultStore(precision="fast").get_many(self.CELLS)
        assert len(calls) == len({cell[:3] for cell in self.CELLS}) == 2

    def test_runs_sharing_a_product_build_it_once(
        self, clean_caches, monkeypatch
    ):
        # CT and DICER start from the same partition: one product, two
        # claims.
        calls = self.count_products(monkeypatch)
        cells = [("milc1", "gcc_base6", 3, CacheTakeoverPolicy()),
                 ("milc1", "gcc_base6", 3, DicerPolicy())]
        ResultStore(precision="fast").get_many(cells)
        assert len(calls) == 1

    def test_staged_campaign_identical_to_unstaged_runs(self, clean_caches):
        cells = self.CELLS + [("milc1", "gcc_base6", 3, DicerPolicy())]
        registry, _ = obs.enable()
        try:
            staged = ResultStore(precision="fast").get_many(cells)
            points = registry.counter("server.prefetch.points").value
            used = registry.counter("server.prefetch.used").value
        finally:
            obs.disable()
        assert 0 < used <= points
        for (hp, be, n_be, policy), result in zip(cells, staged):
            plain = run_pair(make_mix(hp, be, n_be), policy, precision="fast")
            assert plain == result  # traces included


class TestPrefetchTelemetry:
    def test_counters_track_speculation(self, clean_caches):
        registry, _ = obs.enable()
        try:
            result = run_pair(
                make_mix(*CTT_LONG_DESCENT), DicerPolicy(), precision="fast"
            )
            points = registry.counter("server.prefetch.points").value
            used = registry.counter("server.prefetch.used").value
            ladders = registry.counter("dicer.ladder_prefetches").value
        finally:
            obs.disable()
        assert 0 < used <= points
        assert ladders == shrink_runs(result.trace)


class TestPrewarmProfiles:
    def test_counts_and_skips_cached(self, clean_caches):
        apps = catalog()
        models = [apps[name] for name in app_names()[:5]]
        assert prewarm_profiles(models, PLAT) == 5
        assert prewarm_profiles(models, PLAT) == 0  # all cached now

    def test_clones_share_one_profile(self, clean_caches):
        apps = catalog()
        model = apps[app_names()[0]]
        clone = model.with_name(f"{model.name}#1")
        assert prewarm_profiles([model, clone], PLAT) == 1

    def test_profiles_match_cold_computation(self, clean_caches, monkeypatch):
        """One solve request builds every profile, equal bit for bit to a
        cold :func:`solo_profile`, under both precisions."""
        from repro.sim.solo import clear_caches

        apps = catalog()
        models = [apps[name] for name in app_names()[:4]]
        models += [m for m in multi_phase_apps(2) if m not in models]
        requests = []

        def spy(real):
            def wrapper(self, *args, **kwargs):
                requests.append(real.__name__)
                return real(self, *args, **kwargs)

            return wrapper

        for name in ("solve", "solve_many"):
            monkeypatch.setattr(
                SteadyStateCache, name, spy(getattr(SteadyStateCache, name))
            )
        for precision in PRECISIONS:
            cold = [solo_profile(m, PLAT, precision=precision) for m in models]
            clear_caches()
            requests.clear()
            assert prewarm_profiles(models, PLAT, precision=precision) == len(
                models
            )
            assert requests == ["solve_many"]
            warm = [solo_profile(m, PLAT, precision=precision) for m in models]
            assert requests == ["solve_many"]  # served from the profile cache
            # repr round-trips every float field: equal bit for bit.
            assert [repr(w) for w in warm] == [repr(c) for c in cold]
