"""The static pass: staged outcomes of static runs ≡ the Server event loop.

A fast campaign prewarm steps every static (UM/CT) cell to completion in
one lock-step NumPy pass (:func:`repro.sim.server.stage_phase_products`)
and returns one :class:`~repro.sim.server.StaticOutcome` per such cell;
the supervisor hands it to the cell's ``run_pair`` (``staged=``), which
takes it instead of running a Server. The oracle here holds the two bit
for bit (``float.hex``) on every :class:`PairResult` field, timeouts
included; the remaining tests pin which runs take an entry and how often.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    UnmanagedPolicy,
)
from repro.experiments.runner import MAX_TIME_S, run_pair
from repro.experiments import supervise
from repro.experiments.supervise import (
    SupervisedExecutor,
    _prewarm_phase_products,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import (
    SimulationTimeout,
    StaticOutcome,
    stage_phase_products,
)
from repro.workloads.app import AppModel
from repro.workloads.catalog import app_names, catalog
from repro.workloads.mix import WorkloadMix, make_mix

PLAT = TABLE1_PLATFORM
NAMES = app_names()
MULTI_PHASE = [n for n in NAMES if len(catalog()[n].phases) > 1]
POLICIES = {"UM": UnmanagedPolicy(), "CT": CacheTakeoverPolicy()}


def _partition(policy, n_cores, platform=PLAT):
    allocation = policy.fresh().setup(platform.llc_ways)
    if allocation is None:
        return PartitionSpec.unmanaged(n_cores, platform.llc_ways)
    return allocation.to_partition(n_cores)


def _stage(mix, policy, max_time_s=MAX_TIME_S):
    """The prewarm's entry for one static run of ``mix`` under ``policy``."""
    models = mix.apps()
    run = (models, _partition(policy, len(models)), True)
    (entry,) = stage_phase_products(PLAT, [run], max_time_s=max_time_s)
    return entry


def _outcome(mix, policy, **run_kwargs):
    """``run_pair``'s result, or the message of the error it raised."""
    try:
        return run_pair(mix, policy, PLAT, precision="fast", **run_kwargs)
    except SimulationTimeout as exc:
        return f"SimulationTimeout: {exc}"


def _hexed(result):
    if isinstance(result, str):
        return result
    return {
        name: value.hex() if isinstance(value, float) else value
        for name, value in dataclasses.asdict(result).items()
    }


def _claimed(mix, policy, **run_kwargs):
    """(staged outcome claimed?, result) of a run_pair."""
    registry, _ = obs.enable()
    try:
        result = _outcome(mix, policy, **run_kwargs)
        claimed = registry.counter("server.static.claimed").value
    finally:
        obs.disable()
    return claimed, result


@st.composite
def static_cells(draw):
    """A catalog mix under UM or CT, often with a multi-phase app."""
    pick = st.sampled_from(NAMES)
    hp = draw(st.one_of(st.sampled_from(MULTI_PHASE), pick))
    be = draw(st.one_of(st.sampled_from(MULTI_PHASE), pick))
    n_be = draw(st.sampled_from((1, 5, 9)))
    policy = draw(st.sampled_from(sorted(POLICIES)))
    # Where the time budget sits against the run's own end: the default,
    # a fraction of it, or within a few ulps of it either side.
    budget = draw(
        st.one_of(
            st.just(None),
            st.sampled_from((0.25, 0.5, 0.999)),
            st.integers(-3, 3),
        )
    )
    return hp, be, n_be, policy, budget


class TestOracle:
    @given(static_cells())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_staged_outcome_is_the_event_loop_bit_for_bit(self, cell):
        hp, be, n_be, name, budget = cell
        mix, policy = make_mix(hp, be, n_be=n_be), POLICIES[name]
        max_time_s = MAX_TIME_S
        if budget is not None:
            end = run_pair(mix, policy, PLAT, precision="fast").duration_s
            if isinstance(budget, float):
                max_time_s = end * budget
            else:
                max_time_s = end
                for _ in range(abs(budget)):
                    max_time_s = math.nextafter(
                        max_time_s, math.inf if budget > 0 else 0.0
                    )
        loop = _outcome(mix, policy, max_time_s=max_time_s)
        entry = _stage(mix, policy, max_time_s)
        claimed, staged = _claimed(
            mix, policy, max_time_s=max_time_s, staged=entry
        )
        assert _hexed(staged) == _hexed(loop)
        if isinstance(loop, str):
            assert not claimed  # timeouts fall through to the event loop
        elif hp != be:
            # Clones of the HP may leave the product; distinct apps never.
            assert claimed == 1


class TestSweeps:
    """Fixed grids that reach the rare paths the drawn examples may miss."""

    def test_multi_phase_grid_bitwise(self, clean_caches):
        # Every multi-phase app against a slice of the catalog: the
        # boundary snap (a retire within 1e-9 of the boundary) changes
        # the bits of a few of these cells when it is left out.
        names = NAMES[:8] + MULTI_PHASE
        cells = [
            (hp, be, n_be, policy)
            for hp in names
            for be in names
            for n_be in (1, 5, 9)
            for policy in POLICIES.values()
        ]
        entries = _prewarm_phase_products(PLAT, cells, {"precision": "fast"})
        n_staged = sum(isinstance(e, StaticOutcome) for e in entries)
        assert n_staged > 0.9 * len(cells)
        staged = [
            run_pair(
                make_mix(hp, be, n_be), policy, PLAT, precision="fast",
                staged=entry,
            )
            for (hp, be, n_be, policy), entry in zip(cells, entries)
        ]
        for (hp, be, n_be, policy), result in zip(cells, staged):
            loop = run_pair(
                make_mix(hp, be, n_be), policy, PLAT, precision="fast"
            )
            assert _hexed(result) == _hexed(loop), (hp, be, n_be, policy)

    @pytest.mark.parametrize("n_be", [1, 5])
    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_one_instruction_phase_snaps_onto_its_boundary(
        self, clean_caches, name, n_be
    ):
        # Leaving a phase before a 1-instruction one lands within one
        # instruction of the next boundary: RunningApp.advance snaps the
        # position onto it.
        phase = catalog()["milc1"].phases[0]
        half = phase.instructions / 2
        hp = AppModel(
            "blip", "synthetic", "phased",
            phases=tuple(
                dataclasses.replace(phase, name=label, instructions=budget)
                for label, budget in (("head", half), ("blip", 1.0),
                                      ("tail", half))
            ),
        )
        mix = WorkloadMix(hp=hp, be=catalog()["gcc_base6"], n_be=n_be)
        policy = POLICIES[name]
        claimed, staged = _claimed(mix, policy, staged=_stage(mix, policy))
        assert claimed == 1
        assert _hexed(staged) == _hexed(_outcome(mix, policy))


#: The in-process run strategy, which prewarms and hands out entries.
IN_PROCESS = pytest.mark.parametrize(
    "executor",
    [pytest.param(lambda: SupervisedExecutor(n_workers=1), id="serial")],
)


class TestClaims:
    MIX = ("milc1", "gcc_base6", 3)

    @IN_PROCESS
    def test_duplicated_cell_claimed_once_per_copy(
        self, clean_caches, executor
    ):
        cell = (*self.MIX, UnmanagedPolicy())
        registry, _ = obs.enable()
        try:
            outcome = executor().run(
                [cell, cell], PLAT, run_kwargs={"precision": "fast"}
            )
            staged = registry.counter("server.static.staged").value
            claimed = registry.counter("server.static.claimed").value
        finally:
            obs.disable()
        assert (staged, claimed) == (2, 2)
        assert outcome.results[0] == outcome.results[1]

    def test_run_pair_without_an_entry_never_claims(self, clean_caches):
        # Right after a prewarm in this process: only the entry handed to
        # run_pair counts, nothing the prewarm left behind.
        mix, policy = make_mix(*self.MIX), UnmanagedPolicy()
        (entry,) = _prewarm_phase_products(
            PLAT, [(*self.MIX, policy)], {"precision": "fast"}
        )
        assert isinstance(entry, StaticOutcome)
        claimed, result = _claimed(mix, policy)
        assert claimed == 0
        assert _hexed(result) == _hexed(_outcome(mix, policy))

    def test_process_payloads_carry_no_entry(self, clean_caches, monkeypatch):
        payloads = []
        real_submit = supervise._Processes.submit

        def spy(self, index, payload):
            payloads.append(payload)
            real_submit(self, index, payload)

        monkeypatch.setattr(supervise._Processes, "submit", spy)
        cells = [(*self.MIX, UnmanagedPolicy()), (*self.MIX, DicerPolicy())]
        outcome = SupervisedExecutor(n_workers=2).run(
            cells, PLAT, run_kwargs={"precision": "fast"}
        )
        assert outcome.ok
        assert len(payloads) == len(cells)
        assert all(payload[-1] is None for payload in payloads)

    def test_timeout_is_not_staged_and_raises_the_loop_message(
        self, clean_caches
    ):
        mix, policy = make_mix(*self.MIX), CacheTakeoverPolicy()
        end = run_pair(mix, policy, PLAT, precision="fast").duration_s
        with pytest.raises(SimulationTimeout) as loop:
            run_pair(mix, policy, PLAT, precision="fast", max_time_s=end / 2)
        entry = _stage(mix, policy, end / 2)
        assert not isinstance(entry, StaticOutcome)  # its product only
        claimed, staged = _claimed(
            mix, policy, max_time_s=end / 2, staged=entry
        )
        assert not claimed
        assert staged == f"SimulationTimeout: {loop.value}"
        assert "simulation exceeded" in staged

    @pytest.mark.parametrize("setting", ["exact", "other-max-time"])
    def test_other_run_settings_never_claim(self, clean_caches, setting):
        # Exact precision builds no entry; another max_time_s builds the
        # entry for that budget, so no run takes one made for another.
        cell = (*self.MIX, CacheTakeoverPolicy())
        if setting == "exact":
            run_kwargs = {"precision": "exact"}
            assert _prewarm_phase_products(PLAT, [cell], run_kwargs) is None
            return
        mix, policy = make_mix(*self.MIX), cell[-1]
        end = run_pair(mix, policy, PLAT, precision="fast").duration_s
        for max_time_s, finishes in ((end / 2, False), (end, True)):
            run_kwargs = {"precision": "fast", "max_time_s": max_time_s}
            (entry,) = _prewarm_phase_products(PLAT, [cell], run_kwargs)
            assert isinstance(entry, StaticOutcome) is finishes
            claimed, staged = _claimed(
                mix, policy, max_time_s=max_time_s, staged=entry
            )
            assert claimed == finishes
            loop = _outcome(mix, policy, max_time_s=max_time_s)
            assert _hexed(staged) == _hexed(loop)

    @IN_PROCESS
    def test_dynamic_cells_stage_products_not_outcomes(
        self, clean_caches, executor
    ):
        cells = [(*self.MIX, CacheTakeoverPolicy()), (*self.MIX, DicerPolicy())]
        registry, _ = obs.enable()
        try:
            executor().run(cells, PLAT, run_kwargs={"precision": "fast"})
            staged = registry.counter("server.static.staged").value
            claimed = registry.counter("server.static.claimed").value
            used = registry.counter("server.prefetch.used").value
        finally:
            obs.disable()
        # CT and DICER start from one partition: CT takes the outcome,
        # DICER's Server is seeded with the shared product.
        assert (staged, claimed) == (1, 1)
        assert used > 0
