"""Event-driven multicore server executor.

Runs one application per core against the contention model. Time advances
between *events* — phase boundaries, run completions, or controller ticks —
and within each interval the system sits at the steady state computed by
:func:`repro.sim.contention.solve_steady_state` (memoised per phase
combination × partition, which makes the 3481-pair campaigns tractable).

Per the paper's methodology (Section 4.1): all applications start together;
when one finishes it is restarted immediately, and an experiment is complete
once every application has finished at least once, so the HP always runs
under full contention.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.obs import get_registry
from repro.sim.contention import (
    ConvergenceError,
    SteadyState,
    SteadyStateCache,
    _check_precision,
    solve_steady_state_batch,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import PlatformConfig
from repro.workloads.app import AppModel, Phase

__all__ = [
    "RunningApp",
    "Server",
    "SimulationTimeout",
    "StaticOutcome",
    "phase_product_points",
    "stage_phase_products",
]

#: Relative tolerance for phase-boundary hit detection.
_BOUNDARY_RTOL = 1e-9

#: The largest phase product a Server or a campaign prewarm solves up
#: front; a larger one (a multi-phase zoo) is cheaper to solve on demand.
_MAX_PRODUCT_POINTS = 64


class SimulationTimeout(RuntimeError):
    """An experiment exceeded its simulated-time budget."""


def phase_product_points(
    models: Sequence[AppModel],
    partition: PartitionSpec,
    mba_scale: tuple[float, ...] | None = None,
    max_points: int = _MAX_PRODUCT_POINTS,
    *,
    prefetch: tuple[float, ...] | None = None,
) -> list[tuple]:
    """The cross product of per-app phases as solver batch points.

    A static-partition execution over ``models`` visits exactly the phase
    combinations in the product of each *distinct* model's phase list
    (clones share their model's phases). Returns the corresponding
    ``(phases, partition, mba_scale, prefetch)`` points, or ``[]`` when
    the product exceeds ``max_points`` (multi-phase zoos are cheaper to
    solve on demand). Shared by :meth:`Server.prefetch_phase_product` and
    :func:`stage_phase_products`, which builds each cell's entry for a
    campaign's fused prewarm. ``prefetch`` is keyword-only so the
    long-standing positional ``max_points`` callers keep binding.
    """
    distinct: list[tuple[tuple[Phase, ...], list[int]]] = []
    index_of: dict[tuple[Phase, ...], int] = {}
    # Clones share one phase tuple: most cores hit by identity (the
    # models pin the tuples for the call) before any tuple is hashed.
    index_of_id: dict[int, int] = {}
    for core, model in enumerate(models):
        model_phases = model.phases
        index = index_of_id.get(id(model_phases))
        if index is None:
            index = index_of.setdefault(model_phases, len(distinct))
            if index == len(distinct):
                distinct.append((model_phases, []))
            index_of_id[id(model_phases)] = index
        distinct[index][1].append(core)
    total = 1
    for model_phases, _cores in distinct:
        total *= len(model_phases)
        if total > max_points:
            return []
    n_cores = len(models)
    points = []
    for combo in itertools.product(
        *(model_phases for model_phases, _cores in distinct)
    ):
        per_core: list[Phase | None] = [None] * n_cores
        for (_model_phases, cores), chosen in zip(distinct, combo):
            for core in cores:
                per_core[core] = chosen
        points.append((tuple(per_core), partition, mba_scale, prefetch))
    return points


#: The factor :meth:`Server.advance` snaps a retire onto a boundary by.
_SNAP = 1.0 - _BOUNDARY_RTOL
#: Static runs stepped together: keeps the pass's arrays small (peak
#: RSS) at no measurable cost in time.
_STATIC_CHUNK = 1024


@dataclass(frozen=True)
class StaticOutcome:
    """What :meth:`Server.run_until_all_complete` leaves for the metrics.

    One finished static run: its simulated time, each app's retired
    instructions and the HP's completions and run times, as the event
    loop would have left them on its :class:`RunningApp` list.
    """

    time: float
    total_instructions: tuple[float, ...]
    hp_completions: int
    hp_run_times: tuple[float, ...]


def stage_phase_products(
    platform: PlatformConfig,
    runs: Iterable[tuple[Sequence[AppModel], PartitionSpec, bool] | None],
    *,
    max_time_s: float | None = None,
) -> list[StaticOutcome | tuple[tuple, tuple] | None]:
    """Solve the phase products of many upcoming runs in one fast batch.

    ``runs`` yields one ``(models, partition, static)`` per run, or
    ``None`` for a run that stages nothing: the apps and the initial
    partition of a Server about to start unthrottled with prefetchers
    fully on, and whether the run keeps that partition to the end. Their
    :func:`phase_product_points` go to the fast kernel as ONE fused batch
    (DESIGN.md §10). Returns one entry per run, in order: the run's
    product as ``(memo keys, states)`` for
    :meth:`Server.prefetch_phase_product` to seed its memo with, so each
    run's product and keys are built once, here. A product past
    ``_MAX_PRODUCT_POINTS`` points is empty. Runs over equal phases
    under equal partitions share one entry object, and their memo keys
    share one partition object, so thousands of runs hold a handful of
    partition keys.

    A run is keyed once: by its cores' phase tuples (each by identity,
    then by equality), then by its partition key. The combinations of one
    set of phase tuples are built once and shared by every partition of
    that set, so the batch's points under UM and CT hold the same
    per-core tuples and the kernel's parameter memo hits them by
    identity. The points are distinct and go straight to
    :func:`~repro.sim.contention.solve_steady_state_batch`; telemetry
    counts them as ``steady_cache.misses``.

    Given ``max_time_s``, the static runs are then stepped to completion
    together (:func:`_step_static_runs`) and each finished one gets its
    :class:`StaticOutcome` in place of its product: the outcome a fast,
    unthrottled Server over ``models`` reaches with
    :meth:`Server.prefetch_phase_product` and
    :meth:`Server.run_until_all_complete` under the fixed ``partition``,
    bit for bit (DESIGN.md §7). A run that would time out, leave its
    product or hit an error gets its product only: its Server's event
    loop shows what happens.
    """
    # Each core's phase tuple by id -> (the tuple, its index among the
    # distinct tuples): the value pins the tuple, so its id stays valid
    # for the call, and equal but distinct tuples share an index.
    tuple_of_id: dict[int, tuple] = {}
    tuple_index: dict[tuple, int] = {}
    # Phase set (each core's tuple index) -> (its phase tuples, its
    # per-core combinations).
    sets: dict[tuple, tuple] = {}
    partitions: dict[tuple, PartitionSpec] = {}
    points: list[tuple] = []
    # (phase set, partition key) -> span index; a span is [start, stop,
    # static runs, the set's phase tuples].
    span_of: dict[tuple, int] = {}
    spans: list[list] = []
    # Each run's span index, replaced by its entry at the end (no
    # per-run objects: they would add to the campaign's peak RSS).
    staged: list = []
    static_runs: list[bool] = []
    for run in runs:
        if run is None:
            staged.append(None)
            static_runs.append(False)
            continue
        models, partition, static = run
        key = []
        for model in models:
            hit = tuple_of_id.get(id(model.phases))
            if hit is None:
                phases = model.phases
                hit = tuple_of_id[id(phases)] = (
                    phases,
                    tuple_index.setdefault(phases, len(tuple_index)),
                )
            key.append(hit[1])
        phase_set = tuple(key)
        entry = sets.get(phase_set)
        if entry is None:
            entry = sets[phase_set] = (
                tuple([model.phases for model in models]),
                [
                    point[0]
                    for point in phase_product_points(
                        models, partition, None, _MAX_PRODUCT_POINTS
                    )
                ],
            )
        pkey = partition.key()
        span = span_of.get((phase_set, pkey))
        if span is None:
            set_cores, combos = entry
            partition = partitions.setdefault(pkey, partition)
            start = len(points)
            points += [(combo, partition, None, None) for combo in combos]
            span = span_of[phase_set, pkey] = len(spans)
            spans.append([start, len(points), 0, set_cores])
        spans[span][2] += static
        staged.append(span)
        static_runs.append(static)
    registry = get_registry()
    states: list[SteadyState] = []
    if points:
        registry.counter("steady_cache.misses").inc(len(points))
        t0 = time.perf_counter()
        states = solve_steady_state_batch(platform, points, precision="fast")
        if registry.enabled:
            # One observation per point at the call's amortised cost.
            per_point = (time.perf_counter() - t0) / len(points)
            histogram = registry.histogram("steady_cache.solve_seconds")
            for _ in points:
                histogram.observe(per_point)
    outcomes: dict[int, StaticOutcome] = {}
    if max_time_s is not None:
        static = [
            (span, set_cores, states[start:stop])
            for span, (start, stop, n_static, set_cores) in enumerate(spans)
            if n_static and stop > start and len(set_cores) <= platform.n_cores
        ]
        for first in range(0, len(static), _STATIC_CHUNK):
            chunk = static[first : first + _STATIC_CHUNK]
            outcomes.update(_step_static_runs(platform, chunk, max_time_s))
        if registry.enabled:
            registry.counter("server.static.staged").inc(
                sum(spans[span][2] for span in outcomes)
            )
    products: dict[int, tuple[tuple, tuple]] = {}

    def product(span: int) -> tuple[tuple, tuple]:
        entry = products.get(span)
        if entry is None:
            start, stop, _static, _cores = spans[span]
            entry = products[span] = (
                tuple(
                    SteadyStateCache.make_key(
                        platform, phases, partition, None, "fast"
                    )
                    for phases, partition, _mba, _prefetch in points[start:stop]
                ),
                tuple(states[start:stop]),
            )
        return entry

    for i, span in enumerate(staged):
        if span is not None:
            outcome = outcomes.get(span) if static_runs[i] else None
            staged[i] = product(span) if outcome is None else outcome
    return staged


def _phase_at(
    position: np.ndarray, instructions: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`AppModel.phase_at` on every core at once.

    ``instructions[k]`` holds each core's phase-``k`` budget (NaN past its
    last phase). Returns the phase indices, the instructions left in
    those phases and where a phase was found (``phase_at`` raises
    elsewhere). The same sequential subtraction, so the same bits.
    """
    remaining = position
    index = np.zeros(position.shape, dtype=np.intp)
    left = np.zeros(position.shape)
    found = np.zeros(position.shape, dtype=bool)
    for k, budget in enumerate(instructions):
        hit = remaining < budget - 0.5
        hit &= ~found
        index[hit] = k
        left = np.where(hit, budget - remaining, left)
        found |= hit
        remaining = remaining - budget
    return index, left, found


def _step_static_runs(
    platform: PlatformConfig,
    runs: list[tuple[Hashable, tuple[tuple[Phase, ...], ...], list]],
    max_time_s: float,
) -> dict[Hashable, StaticOutcome]:
    """Step many static runs to completion in one lock-step NumPy pass.

    ``runs`` holds ``(key, phase lists, states)``: a run's phases, one
    tuple per core, and the solved states of its phase product, in
    :func:`phase_product_points` order. Each round is one
    :meth:`Server.advance` of every live run over (run x core) arrays —
    the same ``+ - * /``, ``min`` and comparisons, which NumPy rounds
    exactly as Python floats do — and a run leaves the arrays when every
    app has completed once. Returns the finished runs' outcomes by key.
    A run is left out, for the event loop to replay, when it reaches
    ``max_time_s``, enters a phase combination outside its product
    (clones of one model in different phases), runs at a non-positive or
    non-finite rate, takes a step too small to move its clock, or its
    position leaves a run.
    """
    if not runs:
        return {}
    n_runs = len(runs)
    width = max(len(cores) for _key, cores, _states in runs)
    # Distinct phase lists; list 0 pads narrower runs to ``width`` cores
    # with one endless phase that never bounds a step. Clones share their
    # model's phase tuple, so most lookups hit by identity before hashing.
    list_of: dict[tuple, int] = {}
    list_of_id: dict[int, int] = {}
    phase_lists: list[tuple[Phase, ...]] = [()]
    totals: list[float] = [math.inf]
    ids = np.zeros((n_runs, width), dtype=np.intp)
    base = np.zeros(n_runs, dtype=np.intp)
    n_rows = 0
    for r, (_key, cores, states) in enumerate(runs):
        row = []
        for phases in cores:
            i = list_of_id.get(id(phases))
            if i is None:
                i = list_of.get(phases)
                if i is None:
                    i = list_of[phases] = len(phase_lists)
                    phase_lists.append(phases)
                    # AppModel.total_instructions, summed the same way.
                    totals.append(sum(p.instructions for p in phases) - 1.0)
                list_of_id[id(phases)] = i
            row.append(i)
        ids[r, : len(row)] = row
        base[r] = n_rows
        n_rows += len(states)
    depth = max(len(phases) for phases in phase_lists)
    budget_of = np.full((len(phase_lists), depth), np.nan)
    boundary_of = np.full((len(phase_lists), depth), np.nan)
    budget_of[0, 0] = math.inf
    for i, phases in enumerate(phase_lists[1:], 1):
        budget_of[i, : len(phases)] = [p.instructions for p in phases]
        # RunningApp.advance's snap target, summed the same way.
        boundary_of[i, : len(phases)] = [
            float(sum(p.instructions for p in phases[: k + 1]))
            for k in range(len(phases))
        ]
    n_phases = np.array([max(len(p), 1) for p in phase_lists])

    # Phase product index: the distinct phase lists of a run in order of
    # first core, the last one varying fastest; each list's first core
    # carries its stride, and clones must sit in that core's phase.
    first_of = (ids[:, :, None] == ids[:, None, :]).argmax(axis=2)
    is_first = first_of == np.arange(width)
    size = np.where(is_first, n_phases[ids], 1)
    after = np.cumprod(size[:, ::-1], axis=1)[:, ::-1]
    stride = np.zeros_like(size)
    stride[:, :-1] = after[:, 1:]
    stride[:, -1] = 1
    stride[~is_first] = 0

    ipc = np.ones((n_rows, width))
    row = 0
    for _key, cores, states in runs:
        n = len(cores)
        for state in states:
            ipc[row, :n] = state.ipc
            row += 1
    # Server._steady's rates: the state's IPCs times the clock.
    rate_of = ipc * platform.freq_hz
    bad_row = ~(np.isfinite(rate_of) & (rate_of > 0.0)).all(axis=1)
    good = np.add.reduceat(bad_row, base) == 0

    live = np.flatnonzero(good)
    ids, base = ids[live], base[live]
    first_of, stride = first_of[live], stride[live]
    threshold = np.array(totals)[ids]
    time = np.zeros(live.size)
    position = np.zeros(ids.shape)
    retired_total = np.zeros(ids.shape)
    completions = (ids == 0).astype(np.intp)  # pad cores never hold a run
    hp_start = np.zeros(live.size)
    hp_times: dict[int, list[float]] = {}

    def budgets(ids):
        return [budget_of[ids, k] for k in range(depth)]

    index, left, found = _phase_at(position, budgets(ids))
    finished = np.zeros(live.size, dtype=bool)
    moved = np.ones(live.size, dtype=bool)
    outcomes: dict[Hashable, StaticOutcome] = {}
    while live.size:
        # Server.run_until_all_complete's loop top, then Server._steady.
        # A step too small to move the clock would repeat forever.
        keep = moved & ~finished
        keep &= time < max_time_s
        keep &= (index == np.take_along_axis(index, first_of, 1)).all(axis=1)
        keep &= found.all(axis=1)
        if not keep.all():
            (live, ids, base, first_of, stride, threshold, time, position,
             retired_total, completions, hp_start, index, left) = (
                a[keep] for a in (
                    live, ids, base, first_of, stride, threshold, time,
                    position, retired_total, completions, hp_start, index,
                    left,
                )
            )
            if not live.size:
                break
        rate = rate_of[base + (index * stride).sum(axis=1)]
        # Server.advance.
        dt = np.minimum(max_time_s - time, (left / rate).min(axis=1))
        before = time
        time = time + dt
        moved = time > before
        retired = rate * dt[:, None]
        retired_total += retired
        retired = np.where(retired >= left * _SNAP, left, retired)
        # RunningApp.advance.
        position = position + retired
        done = position >= threshold
        if done.any():
            completions += done
            for r in np.flatnonzero(done[:, 0]).tolist():
                hp_times.setdefault(int(live[r]), []).append(
                    float(time[r] - hp_start[r])
                )
                hp_start[r] = time[r]
            position[done] = 0.0
        b = budgets(ids)
        index, left, found = _phase_at(position, b)
        snap = left <= 1.0
        snap &= ~done
        if snap.any():
            position = np.where(snap, boundary_of[ids, index], position)
            index2, left2, found2 = _phase_at(position, b)
            index = np.where(snap, index2, index)
            left = np.where(snap, left2, left)
            found = np.where(snap, found2, found)
        finished = (completions > 0).all(axis=1)
        for r in np.flatnonzero(finished & found.all(axis=1)).tolist():
            run = int(live[r])
            key, cores, _states = runs[run]
            outcomes[key] = StaticOutcome(
                time=float(time[r]),
                total_instructions=tuple(
                    retired_total[r, : len(cores)].tolist()
                ),
                hp_completions=int(completions[r, 0]),
                hp_run_times=tuple(hp_times.get(run, ())),
            )
    return outcomes


@dataclass
class RunningApp:
    """Execution state of one application instance on one core.

    Keeps a cursor — ``(phase index, instructions left in it)`` — for the
    current :attr:`instructions_in_run`. It is exactly what
    :meth:`AppModel.phase_at` returns for that position, recomputed only
    when the position moves, so the event loop reads it for free.
    :meth:`Server.advance` moves a one-phase app's position and cursor
    itself, with the same subtraction, while the app stays inside its run.
    """

    model: AppModel
    instructions_in_run: float = 0.0
    run_start_time: float = 0.0
    completions: int = 0
    run_times: list[float] = field(default_factory=list)
    # Cumulative counters since the experiment started (for monitoring).
    total_instructions: float = 0.0
    total_mem_bytes: float = 0.0
    # None after a snap or a restart; filled through phase_at on the next
    # read, which is where a position past the run's end raises.
    _cursor: tuple[int, float] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def cursor(self) -> tuple[int, float]:
        """``(phase index, instructions left in that phase)``."""
        if self._cursor is None:
            self._cursor = self.model.phase_at(self.instructions_in_run)
        return self._cursor

    def current_phase(self) -> tuple[Phase, float]:
        """The phase now executing and the instructions left in it."""
        idx, remaining = self.cursor
        return self.model.phases[idx], remaining

    def advance(self, instructions: float, now: float) -> bool:
        """Retire ``instructions``; handle run completion/restart at ``now``.

        Progress within a run is a float around 1e10-1e11, whose ulp is
        larger than the sub-instruction residues event alignment produces;
        anything within one instruction of a phase/run boundary is therefore
        snapped *onto* the boundary, or the accumulator could absorb the
        residue forever and wedge the event loop.

        Returns whether the app restarted its run or may have left its
        phase — the events that can change a memo key.
        """
        position = self.instructions_in_run + instructions
        self.instructions_in_run = position
        if position >= self.model.total_instructions - 1.0:
            self.completions += 1
            self.run_times.append(now - self.run_start_time)
            self.instructions_in_run = 0.0
            self.run_start_time = now
            self._cursor = None
            return True
        before = self._cursor
        idx, remaining = self.model.phase_at(position)
        if remaining <= 1.0:
            # Snap onto the boundary by assignment, not accumulation — the
            # residue may be below the accumulator's ulp.
            self.instructions_in_run = float(
                sum(p.instructions for p in self.model.phases[: idx + 1])
            )
            self._cursor = None
            return True
        self._cursor = (idx, remaining)
        return before is None or before[0] != idx


class Server:
    """A consolidated multicore server running one app per core."""

    def __init__(
        self,
        platform: PlatformConfig,
        apps: Sequence[AppModel],
        partition: PartitionSpec | None = None,
        *,
        precision: str = "exact",
    ) -> None:
        if len(apps) > platform.n_cores:
            raise ValueError(
                f"{len(apps)} apps exceed {platform.n_cores} cores"
            )
        if not apps:
            raise ValueError("need at least one application")
        self.platform = platform
        self.apps = [RunningApp(model=a) for a in apps]
        self.n_active = len(apps)
        self.time = 0.0
        self.partition = partition or PartitionSpec.unmanaged(
            self.n_active, platform.llc_ways
        )
        if self.partition.n_cores != self.n_active:
            raise ValueError(
                f"partition covers {self.partition.n_cores} cores but "
                f"{self.n_active} apps are running"
            )
        self.mba_scale: tuple[float, ...] | None = None
        self.prefetch: tuple[float, ...] | None = None
        # Operating points this server visited or prefetched.
        self._memo = SteadyStateCache()
        # Memo keys a prefetch inserted that _steady has not read yet;
        # maintained only while telemetry is enabled (the
        # server.prefetch.points/used counters).
        self._unread_prefetched: set[tuple] = set()
        # The held operating point: the state the apps run at, the phases
        # it was resolved for and its per-core rates as Python floats.
        # _steady re-resolves it (memo key, then lookup) only when a key
        # input changed: _stale is set by the reconfiguration setters,
        # _moved by an app that restarted or may have left its phase.
        self._state: SteadyState | None = None
        self._phases: tuple[Phase, ...] = ()
        self._rates: list[float] = []
        self._bw_bytes: list[float] = []
        self._ways: list[float] = []
        self._stale = True
        self._moved = True
        self._incomplete = len(self.apps)
        # Per app: the phase-0 budget of a one-phase model (advance moves
        # its cursor inline) or None, and RunningApp.advance's completion
        # threshold, subtracted once.
        self._budgets = [
            a.phases[0].instructions if len(a.phases) == 1 else None
            for a in apps
        ]
        self._limits = [a.total_instructions - 1.0 for a in apps]
        #: Solver precision contract every steady-state request runs under
        #: ("exact" = bitwise scalar parity, "fast" = tolerance-contracted
        #: vectorised kernel; DESIGN.md §10).
        self.precision = _check_precision(precision)

    # -- configuration --------------------------------------------------

    def set_partition(self, partition: PartitionSpec) -> None:
        """Apply a new LLC partitioning (takes effect immediately).

        Matches real CAT semantics: resident lines are not flushed; the
        steady-state model simply re-evaluates shares, which corresponds to
        the gradual natural eviction the paper describes (Section 3.3).
        """
        if partition is self.partition:
            return  # checked when it was set; a controller re-applies
        if partition.n_cores != self.n_active:
            raise ValueError(
                f"partition covers {partition.n_cores} cores but "
                f"{self.n_active} apps are running"
            )
        if partition.key() != self.partition.key():
            self._stale = True
        self.partition = partition

    def set_mba_scale(self, scale: Sequence[float] | None) -> None:
        """Apply per-core MBA throttles (None = unthrottled).

        Each entry is a fraction of full speed in (0, 1], one per core.
        """
        if scale is not None:
            scale = tuple(scale)
            if len(scale) != self.n_active:
                raise ValueError(f"mba_scale must have length {self.n_active}")
            if not all(0.0 < x <= 1.0 for x in scale):
                raise ValueError("mba_scale entries must be in (0, 1]")
        if scale != self.mba_scale:
            self._stale = True
        self.mba_scale = scale

    def set_prefetch_levels(self, levels: Sequence[float] | None) -> None:
        """Apply per-core prefetch-throttle levels (None = fully on).

        Levels are quantised onto the platform's actuator grid
        (:meth:`~repro.sim.platform.PlatformConfig.quantise_prefetch`).
        An all-zero vector normalises to ``None`` — the two are
        bitwise-identical operating points (see
        :func:`~repro.sim.contention.solve_steady_state`), and collapsing
        them keeps memo keys, prewarm batches and the serial-vs-parallel
        digest audit on a single canonical spelling.
        """
        prefetch = None
        if levels is not None:
            if len(levels) != self.n_active:
                raise ValueError(
                    f"prefetch covers {len(levels)} cores but "
                    f"{self.n_active} apps are running"
                )
            quantised = tuple(
                self.platform.quantise_prefetch(float(x)) for x in levels
            )
            if any(quantised):
                prefetch = quantised
        if prefetch != self.prefetch:
            self._stale = True
        self.prefetch = prefetch

    # -- execution -------------------------------------------------------

    def _steady(self) -> SteadyState:
        if self._moved:
            phases = tuple([
                app.model.phases[(app._cursor or app.cursor)[0]]
                for app in self.apps
            ])
            self._moved = False
            if phases != self._phases:
                self._phases = phases
                self._stale = True
        registry = get_registry()
        if not self._stale:
            # Still the operating point _memo returned for this key.
            if registry.enabled:
                registry.counter("server.steady_requests").inc()
                registry.counter("server.memo_hits").inc()
            return self._state
        phases = self._phases
        key = SteadyStateCache.make_key(
            self.platform, phases, self.partition, self.mba_scale,
            self.precision, prefetch=self.prefetch,
        )
        state = self._memo.get(key)
        if registry.enabled:
            registry.counter("server.steady_requests").inc()
            if state is not None:
                registry.counter("server.memo_hits").inc()
                if key in self._unread_prefetched:
                    self._unread_prefetched.discard(key)
                    registry.counter("server.prefetch.used").inc()
        if state is None:
            state = self._memo.solve(
                self.platform,
                phases,
                self.partition,
                mba_scale=self.mba_scale,
                prefetch=self.prefetch,
                precision=self.precision,
                key=key,
            )
        self._state = state
        self._rates = (state.ipc * self.platform.freq_hz).tolist()
        self._bw_bytes = state.bw_bytes.tolist()
        self._ways = state.ways.tolist()
        self._stale = False
        return state

    def steady_state(self) -> SteadyState:
        """The converged operating point for the current phases/partition.

        Public monitoring surface (used by the RDT backend's occupancy
        snapshot); held between events, so repeated calls are free.
        """
        return self._steady()

    def steady_ways(self) -> list[float]:
        """``steady_state().ways`` as Python floats, held with the state.

        The RDT backend's per-period occupancy read; the list is shared
        until the operating point changes, so callers must not mutate it.
        """
        self.steady_state()
        return self._ways

    # -- batched prefetch ------------------------------------------------

    def prefetch_partitions(self, partitions: Sequence[PartitionSpec]) -> int:
        """Pre-solve the current phases under many candidate partitions.

        Feeds every not-yet-memoised (phases, partition) point into one
        fast :meth:`SteadyStateCache.solve_many` batch, so a controller
        about to step through candidate allocations (DICER's sampling grid
        and descent ladder) pays one vectorised solve instead of a
        singleton solve per candidate. Fast lanes are pure per lane
        (DESIGN.md §10), so later lookups see exactly the values an
        on-demand fast solve would have computed. A batch that raises
        :class:`~repro.sim.contention.ConvergenceError` is dropped: its
        points are solved on demand, and the error surfaces only if the
        run reaches the point that cannot converge.

        A no-op under ``precision="exact"``: exact points are solved one
        at a time by the scalar solver, so there is nothing to batch
        (DESIGN.md §7). Every partition's shape is checked either way.
        Returns the number of points actually solved.
        """
        for partition in partitions:
            if partition.n_cores != self.n_active:
                raise ValueError(
                    f"partition covers {partition.n_cores} cores but "
                    f"{self.n_active} apps are running"
                )
        if self.precision != "fast":
            return 0
        phases = tuple(app.current_phase()[0] for app in self.apps)
        try:
            return self._prefetch_points(
                [
                    (phases, partition, self.mba_scale, self.prefetch)
                    for partition in partitions
                ]
            )
        except ConvergenceError:
            return 0

    def prefetch_phase_product(
        self,
        max_points: int = _MAX_PRODUCT_POINTS,
        *,
        staged: tuple[tuple, tuple] | None = None,
    ) -> int:
        """Pre-solve the cross product of per-app phases in one batch.

        A static-partition run visits exactly the phase combinations in
        the product of each app's phase list (clones share their model's
        phases, so the product is over *distinct* models — typically
        |HP phases| x |BE phases| points). Solving them all up front in
        one fast batch turns the event loop's per-interval solves into
        memo hits. Skipped when the product exceeds ``max_points``
        (multi-phase zoos) and under ``precision="exact"`` (see
        :meth:`prefetch_partitions`). ``staged`` is this run's product as
        a campaign prewarm already solved it (:func:`stage_phase_products`:
        ``(memo keys, states)`` for these apps under the current,
        unthrottled partition); its keys and states go into the memo
        instead of being rebuilt. Returns the number of points memoised.
        """
        if self.precision != "fast":
            return 0
        if staged is not None:
            # A key already memoised gets the same bits again (fast lanes
            # are pure per lane) and keeps its place.
            added = len(self._memo)
            self._memo.update(zip(*staged))
            return self._prefetched(len(self._memo) - added)
        return self._prefetch_points(
            phase_product_points(
                [app.model for app in self.apps],
                self.partition,
                self.mba_scale,
                max_points,
                prefetch=self.prefetch,
            )
        )

    def _prefetch_points(self, points: list[tuple]) -> int:
        """Batch-solve the not-yet-memoised points into the memo."""
        if not points:
            return 0
        added = len(self._memo)
        self._memo.solve_many(self.platform, points, precision=self.precision)
        return self._prefetched(len(self._memo) - added)

    def _prefetched(self, added: int) -> int:
        """Count the ``added`` entries a prefetch appended to the memo."""
        if added:
            registry = get_registry()
            if registry.enabled:
                registry.counter("server.prefetch.points").inc(added)
                self._unread_prefetched.update(
                    itertools.islice(reversed(self._memo), added)
                )
        return added

    @property
    def all_completed(self) -> bool:
        """Has every application finished at least one full run?"""
        return not self._incomplete

    def advance(self, max_dt: float) -> float:
        """Advance simulated time by at most ``max_dt`` seconds.

        Stops early at the next phase boundary / run completion so the
        steady state stays valid throughout the interval. Returns the
        actual time advanced.
        """
        if max_dt <= 0:
            raise ValueError(f"max_dt must be > 0, got {max_dt}")
        if self._moved or self._stale or get_registry().enabled:
            # Re-resolve the operating point, or count the request as a
            # hit; otherwise the held one is still this key's state.
            self._steady()
        apps = self.apps
        rates = self._rates
        cursors = [app._cursor or app.cursor for app in apps]
        dt = max_dt
        for (_, remaining), rate in zip(cursors, rates):
            until_boundary = remaining / rate
            if until_boundary < dt:
                dt = until_boundary

        self.time += dt
        now = self.time
        moved = False
        for app, (_, remaining), rate, bw, budget, limit in zip(
            apps, cursors, rates, self._bw_bytes, self._budgets, self._limits
        ):
            retired = rate * dt
            app.total_instructions += retired
            app.total_mem_bytes += bw * dt
            if retired >= remaining * _SNAP:
                retired = remaining  # snap exactly onto the boundary
            elif budget is not None:
                # A one-phase app that neither completes nor comes within
                # one instruction of its end: RunningApp.advance would
                # get (0, budget - position) from AppModel.phase_at, the
                # same subtraction, and report no move.
                position = app.instructions_in_run + retired
                if 0.0 <= position < limit:
                    left = budget - position
                    if left > 1.0:
                        app.instructions_in_run = position
                        app._cursor = (0, left)
                        continue
            if app.advance(retired, now):
                moved = True
        if moved:
            self._moved = True
            if self._incomplete:
                self._incomplete = sum(
                    1 for app in apps if not app.completions
                )
        return dt

    def run_until_all_complete(self, max_time_s: float = 3600.0) -> None:
        """Run (with the current static partition) until every app finishes."""
        while not self.all_completed:
            if self.time >= max_time_s:
                raise SimulationTimeout(
                    f"simulation exceeded {max_time_s}s "
                    f"(completions: {[a.completions for a in self.apps]})"
                )
            self.advance(max_time_s - self.time)

    # -- monitoring ------------------------------------------------------

    def counters(self) -> dict[str, np.ndarray | float]:
        """Cumulative per-core counters (the raw material for RDT samples)."""
        return {
            "time_s": self.time,
            "instructions": np.array(
                [a.total_instructions for a in self.apps]
            ),
            "mem_bytes": np.array([a.total_mem_bytes for a in self.apps]),
        }
