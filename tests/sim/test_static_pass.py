"""The static pass: staged outcomes of static runs ≡ the Server event loop.

A fast campaign prewarm steps every static (UM/CT) cell to completion in
one lock-step NumPy pass (:func:`repro.sim.server.stage_phase_products`)
and returns one :class:`~repro.sim.server.StaticOutcome` per such cell;
the supervisor hands it to the cell's ``run_pair`` (``staged=``), which
takes it instead of running a Server. The oracle here holds the two bit
for bit (``float.hex``) on every :class:`PairResult` field, timeouts
included; the remaining tests pin which runs take an entry and how often.
A frozen copy of the stage (``ref_stage_phase_products``) holds every
entry it returns, and which entries are one object, bit for bit.
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
from repro.experiments.runner import MAX_TIME_S, initial_partition, run_pair
from repro.experiments import supervise
from repro.experiments.supervise import (
    SupervisedExecutor,
    _prewarm_phase_products,
)
from repro.obs import get_registry
from repro.sim.contention import SteadyStateCache
from repro.sim.partition import PartitionSpec
from repro.sim.platform import TABLE1_PLATFORM
from repro.sim.server import (
    _MAX_PRODUCT_POINTS,
    _STATIC_CHUNK,
    SimulationTimeout,
    StaticOutcome,
    _step_static_runs,
    phase_product_points,
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


def ref_stage_phase_products(platform, runs, *, max_time_s=None):
    """Frozen copy of the fused prewarm before runs were keyed once.

    Keys each run by its partition key and its cores' phase tuples,
    hashing both, and solves its points through a throwaway
    :class:`SteadyStateCache`; the entries it returns are the oracle.
    """
    partitions: dict[tuple, PartitionSpec] = {}
    points: list[tuple] = []
    spans: dict[tuple, list[int]] = {}
    staged: list = []
    static_runs: list[bool] = []
    for run in runs:
        if run is None:
            staged.append(None)
            static_runs.append(False)
            continue
        models, partition, static = run
        partition = partitions.setdefault(partition.key(), partition)
        key = (partition.key(), *(m.phases for m in models))
        span = spans.get(key)
        if span is None:
            start = len(points)
            points += phase_product_points(
                models, partition, None, _MAX_PRODUCT_POINTS
            )
            span = spans[key] = [start, len(points), 0]
        span[2] += static
        staged.append(key)
        static_runs.append(static)
    states = (
        SteadyStateCache().solve_many(platform, points, precision="fast")
        if points
        else []
    )
    outcomes: dict[tuple, StaticOutcome] = {}
    if max_time_s is not None:
        static = [
            (key, key[1:], states[start:stop])
            for key, (start, stop, n_static) in spans.items()
            if n_static and stop > start and len(key) - 1 <= platform.n_cores
        ]
        for first in range(0, len(static), _STATIC_CHUNK):
            chunk = static[first : first + _STATIC_CHUNK]
            outcomes.update(_step_static_runs(platform, chunk, max_time_s))
        registry = get_registry()
        if registry.enabled:
            registry.counter("server.static.staged").inc(
                sum(spans[key][2] for key in outcomes)
            )
    products: dict[tuple, tuple[tuple, tuple]] = {}

    def product(key):
        entry = products.get(key)
        if entry is None:
            start, stop, _static = spans[key]
            entry = products[key] = (
                tuple(
                    SteadyStateCache.make_key(
                        platform, phases, partition, None, "fast"
                    )
                    for phases, partition, _mba, _prefetch in points[start:stop]
                ),
                tuple(states[start:stop]),
            )
        return entry

    for i, key in enumerate(staged):
        if key is not None:
            outcome = outcomes.get(key) if static_runs[i] else None
            staged[i] = product(key) if outcome is None else outcome
    return staged


def _entry_bits(entry):
    """Every bit of one staged entry: an outcome's fields, or a product's
    memo keys and its states' fields as ``float.hex``."""
    if entry is None:
        return None
    if isinstance(entry, StaticOutcome):
        return (
            "outcome",
            entry.time.hex(),
            tuple(x.hex() for x in entry.total_instructions),
            entry.hp_completions,
            tuple(x.hex() for x in entry.hp_run_times),
        )
    keys, states = entry
    return (
        "product",
        keys,
        tuple(
            (
                tuple(x.hex() for x in state.ipc.tolist()),
                tuple(x.hex() for x in state.ways.tolist()),
                tuple(x.hex() for x in state.miss_ratio.tolist()),
                tuple(x.hex() for x in state.bw_bytes.tolist()),
                state.latency_cycles.hex(),
                state.utilisation.hex(),
                state.iterations,
            )
            for state in states
        ),
    )


def _synthetic(name, phases):
    return AppModel(name, "synthetic", "phased", phases=tuple(phases))


def _phased(base, n):
    """``n`` phases of ``base``'s first phase, each a budget of its own."""
    phase = base.phases[0]
    return [
        dataclasses.replace(
            phase,
            name=f"p{k}",
            instructions=phase.instructions * (k + 1) / n,
            apki=phase.apki * (1.0 + 0.1 * k),
        )
        for k in range(n)
    ]


def _stage_population():
    """Runs over every path of the stage, ``None`` and repeats included.

    UM, CT and DICER over catalog pairs (a multi-phase HP among them) at
    2, 6 and 10 cores; a product past ``_MAX_PRODUCT_POINTS``; two
    synthetic models whose phase tuples are equal but distinct objects
    (so are their phases); ``None`` runs; and runs repeated with a fresh
    but equal partition.
    """
    cat = catalog()
    policies = (UnmanagedPolicy(), CacheTakeoverPolicy(), DicerPolicy())
    pairs = [
        ("milc1", "gcc_base6"),
        (MULTI_PHASE[0], "lbm1"),
        ("wrf1", "ferret1"),
        ("omnetpp1", "omnetpp1"),
    ]
    mixes = [
        make_mix(hp, be, n_be=n_be).apps()
        for hp, be in pairs
        for n_be in (1, 5, 9)
    ]
    # 9 x 8 = 72 phase combinations: past the product cap.
    wide_hp = _synthetic("wide_hp", _phased(cat["milc1"], 9))
    wide_be = _synthetic("wide_be", _phased(cat["gcc_base6"], 8))
    mixes.append([wide_hp] + [wide_be] * 5)
    twin_phases = _phased(cat["omnetpp1"], 2)
    twin_a = _synthetic("twin_a", twin_phases)
    twin_b = _synthetic(
        "twin_b", [dataclasses.replace(p) for p in twin_phases]
    )
    assert twin_a.phases == twin_b.phases
    assert twin_a.phases is not twin_b.phases
    mixes.append([twin_a] + [cat["lbm1"]] * 3)
    mixes.append([twin_b] + [cat["lbm1"]] * 3)
    runs = []
    for models in mixes:
        for policy in policies:
            fresh = policy.fresh()
            partition = initial_partition(fresh, len(models), PLAT.llc_ways)
            runs.append((list(models), partition, not fresh.dynamic))
    runs.insert(3, None)
    runs.append(None)
    # Repeats: the same run again, and with a fresh but equal partition.
    models, partition, static = runs[0]
    runs.append(runs[0])
    runs.append((models, _partition(UnmanagedPolicy(), len(models)), static))
    runs.append(runs[7])
    return runs


def _telemetry(registry) -> tuple:
    """The stage's counts: staged outcomes, points solved, and one
    solve-time observation per point."""
    return (
        registry.counter("server.static.staged").value,
        registry.counter("steady_cache.misses").value,
        registry.histogram("steady_cache.solve_seconds").count,
    )


class TestStageOracle:
    """The stage ≡ its frozen copy: every entry, bit for bit, and which
    entries are one object."""

    @pytest.mark.parametrize(
        "max_time_s", [None, MAX_TIME_S, 0.5], ids=["products", "full", "short"]
    )
    def test_every_entry_bitwise(self, clean_caches, max_time_s):
        runs = _stage_population()
        registry, _ = obs.enable()
        try:
            live = stage_phase_products(PLAT, runs, max_time_s=max_time_s)
            live_counts = _telemetry(registry)
        finally:
            obs.disable()
        registry, _ = obs.enable()
        try:
            ref = ref_stage_phase_products(PLAT, runs, max_time_s=max_time_s)
            ref_counts = _telemetry(registry)
        finally:
            obs.disable()
        assert len(live) == len(ref) == len(runs)
        for i, (got, want) in enumerate(zip(live, ref)):
            assert type(got) is type(want), i
            assert _entry_bits(got) == _entry_bits(want), i
        assert live_counts == ref_counts
        kinds = {type(entry) for entry in live}
        if max_time_s == MAX_TIME_S:
            assert kinds == {type(None), tuple, StaticOutcome}
        else:
            assert StaticOutcome not in kinds
        # The product past the cap is empty; every other one is not.
        assert ((), ()) in live
        # Entries are shared as the docstring promises: one object per
        # staging key, the same pairs as the frozen copy's.
        for i, entry in enumerate(live):
            for j in range(i):
                same = ref[i] is ref[j] and ref[i] is not None
                assert (entry is live[j] and entry is not None) == same, (i, j)
        # The equal twins, the repeats and the fresh-partition repeat
        # share their entries.
        assert live[-3] is live[0] and live[-2] is live[0]
        assert live[-1] is live[7]
        twins: dict[tuple, list] = {}
        for run, entry in zip(runs, live):
            if run is not None and run[0][0].name.startswith("twin_"):
                twins.setdefault((run[1].key(), run[2]), []).append(entry)
        # UM; CT; DICER, which starts from CT's partition.
        assert len(twins) == 3
        for shared in twins.values():
            assert len(shared) >= 2
            assert all(entry is shared[0] for entry in shared)
        # Memo keys share one partition key object per distinct partition.
        pkeys = [
            key[1]
            for entry in live
            if isinstance(entry, tuple)
            for key in entry[0]
        ]
        assert len({id(k) for k in pkeys}) == len(set(pkeys))
