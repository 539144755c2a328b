"""The static pass: staged outcomes of static runs ≡ the Server event loop.

A fast campaign prewarm steps every static (UM/CT) cell to completion in
one lock-step NumPy pass (:func:`repro.sim.server.stage_phase_products`)
and stages one :class:`~repro.sim.server.StaticOutcome` per run;
``run_pair`` claims it instead of running a Server. The oracle here holds
the two bit for bit (``float.hex``) on every :class:`PairResult` field,
timeouts included; the remaining tests pin who may claim and how often.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.sim.server as server_mod
from repro import obs
from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    UnmanagedPolicy,
)
from repro.experiments.runner import MAX_TIME_S, run_pair
from repro.experiments.supervise import (
    SupervisedExecutor,
    _prewarm_phase_products,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM, PlatformConfig
from repro.sim.server import (
    SimulationTimeout,
    claim_static_outcome,
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
    models = mix.apps()
    run = (models, _partition(policy, len(models)), True)
    stage_phase_products(PLAT, [run], max_time_s=max_time_s)


def _unstage():
    stage_phase_products(PLAT, ())


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
    """(staged outcome claimed?, result) of a run_pair after a stage."""
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
        _unstage()
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
        _stage(mix, policy, max_time_s)
        claimed, staged = _claimed(mix, policy, max_time_s=max_time_s)
        _unstage()
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
        _prewarm_phase_products(PLAT, cells, {"precision": "fast"})
        n_staged = len(server_mod._OUTCOMES)
        assert n_staged > 0.9 * len(cells)
        staged = [
            run_pair(make_mix(hp, be, n_be), policy, PLAT, precision="fast")
            for hp, be, n_be, policy in cells
        ]
        assert not server_mod._OUTCOMES
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
        _stage(mix, policy)
        claimed, staged = _claimed(mix, policy)
        assert claimed == 1
        assert _hexed(staged) == _hexed(_outcome(mix, policy))


class TestClaims:
    MIX = ("milc1", "gcc_base6", 3)

    def test_duplicated_cell_claimed_once_per_copy(self, clean_caches):
        cell = (*self.MIX, UnmanagedPolicy())
        registry, _ = obs.enable()
        try:
            outcome = SupervisedExecutor(n_workers=1).run(
                [cell, cell], PLAT, run_kwargs={"precision": "fast"}
            )
            staged = registry.counter("server.static.staged").value
            claimed = registry.counter("server.static.claimed").value
        finally:
            obs.disable()
        assert (staged, claimed) == (2, 2)
        assert not server_mod._OUTCOMES
        assert outcome.results[0] == outcome.results[1]

    def test_timeout_is_not_staged_and_raises_the_loop_message(
        self, clean_caches
    ):
        mix, policy = make_mix(*self.MIX), CacheTakeoverPolicy()
        end = run_pair(mix, policy, PLAT, precision="fast").duration_s
        with pytest.raises(SimulationTimeout) as loop:
            run_pair(mix, policy, PLAT, precision="fast", max_time_s=end / 2)
        _stage(mix, policy, end / 2)
        assert not server_mod._OUTCOMES
        claimed, staged = _claimed(mix, policy, max_time_s=end / 2)
        assert not claimed
        assert staged == f"SimulationTimeout: {loop.value}"
        assert "simulation exceeded" in staged

    @pytest.mark.parametrize(
        "run_kwargs",
        [
            {"precision": "exact"},
            {"precision": "fast", "max_time_s": MAX_TIME_S / 2},
        ],
        ids=["exact", "other-max-time"],
    )
    def test_other_run_settings_never_claim(self, clean_caches, run_kwargs):
        mix, policy = make_mix(*self.MIX), UnmanagedPolicy()
        _stage(mix, policy)
        registry, _ = obs.enable()
        try:
            run_pair(mix, policy, PLAT, **run_kwargs)
            claimed = registry.counter("server.static.claimed").value
        finally:
            obs.disable()
        assert claimed == 0
        assert len(server_mod._OUTCOMES) == 1

    def test_other_platform_never_claims(self, clean_caches):
        mix, policy = make_mix(*self.MIX), UnmanagedPolicy()
        _stage(mix, policy)
        other = PlatformConfig(freq_hz=PLAT.freq_hz * 2)
        models = mix.apps()
        partition = _partition(policy, len(models), other)
        assert claim_static_outcome(other, models, partition, MAX_TIME_S) is None
        assert claim_static_outcome(PLAT, models, partition, MAX_TIME_S)

    def test_dynamic_cells_stage_products_not_outcomes(self, clean_caches):
        cells = [(*self.MIX, CacheTakeoverPolicy()), (*self.MIX, DicerPolicy())]
        registry, _ = obs.enable()
        try:
            SupervisedExecutor(n_workers=1).run(
                cells, PLAT, run_kwargs={"precision": "fast"}
            )
            staged = registry.counter("server.static.staged").value
            claimed = registry.counter("server.static.claimed").value
            used = registry.counter("server.prefetch.used").value
        finally:
            obs.disable()
        # CT and DICER start from one partition: CT takes the outcome,
        # DICER's Server still claims the shared product.
        assert (staged, claimed) == (1, 1)
        assert used > 0
        assert not server_mod._OUTCOMES and not server_mod._STAGED

    def test_clean_caches_clears_staged_outcomes(self, request):
        _stage(make_mix(*self.MIX), UnmanagedPolicy())
        assert server_mod._OUTCOMES
        request.getfixturevalue("clean_caches")
        assert not server_mod._OUTCOMES
