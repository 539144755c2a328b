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
import threading
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.obs import get_registry
from repro.sim.contention import (
    GLOBAL_STEADY_CACHE,
    ConvergenceError,
    SteadyState,
    SteadyStateCache,
    _check_precision,
)
from repro.sim.partition import PartitionSpec
from repro.sim.platform import PlatformConfig
from repro.workloads.app import AppModel, Phase

__all__ = [
    "RunningApp",
    "Server",
    "TimelinePoint",
    "SimulationTimeout",
    "phase_product_points",
    "stage_phase_products",
]

#: Relative tolerance for phase-boundary hit detection.
_BOUNDARY_RTOL = 1e-9


class SimulationTimeout(RuntimeError):
    """An experiment exceeded its simulated-time budget."""


def phase_product_points(
    models: Sequence[AppModel],
    partition: PartitionSpec,
    mba_scale: tuple[float, ...] | None = None,
    max_points: int = 64,
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
    the campaign-level fused prewarm in
    :func:`repro.experiments.supervise._prewarm_phase_products`.
    ``prefetch`` is keyword-only so the long-standing positional
    ``max_points`` callers keep binding.
    """
    distinct: list[tuple[tuple[Phase, ...], list[int]]] = []
    index_of: dict[tuple[Phase, ...], int] = {}
    for core, model in enumerate(models):
        model_phases = model.phases
        if model_phases not in index_of:
            index_of[model_phases] = len(distinct)
            distinct.append((model_phases, []))
        distinct[index_of[model_phases]][1].append(core)
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


#: Phase products :func:`stage_phase_products` solved, waiting for their
#: Servers: staging key (:func:`_staged_key`) -> ``[claims left, memo
#: keys, states]``. Unthrottled points with prefetchers fully on, all on
#: ``_staged_platform``.
_STAGED: dict[tuple, list] = {}
_staged_platform: PlatformConfig | None = None
_STAGED_LOCK = threading.Lock()


def _staged_key(
    models: Sequence[AppModel], partition_key: tuple, max_points: int
) -> tuple:
    # The product depends on the models only through their phases.
    return (partition_key, max_points, *(m.phases for m in models))


def stage_phase_products(
    platform: PlatformConfig,
    runs: Iterable[tuple[Sequence[AppModel], PartitionSpec]],
    max_points: int = 64,
) -> int:
    """Solve the phase products of many upcoming runs in one fast batch.

    ``runs`` yields one ``(models, partition)`` per run: the apps and the
    initial partition of a Server about to start unthrottled with
    prefetchers fully on. Their :func:`phase_product_points` go to the
    fast kernel as ONE fused batch (DESIGN.md §10), and each run's memo
    keys and states are staged until a Server running the same phases
    under that partition claims them in
    :meth:`Server.prefetch_phase_product` — so each run's product and
    keys are built once, here. Runs whose product exceeds ``max_points``
    are staged empty. Equal partitions share one object, so the memo
    keys of thousands of runs share a handful of partition keys.
    Replaces whatever an earlier call staged; a stage nobody claims
    lives until the next call. Returns the number of points submitted.
    """
    global _staged_platform
    partitions: dict[tuple, PartitionSpec] = {}
    points: list[tuple] = []
    spans: dict[tuple, list[int]] = {}  # key -> [claims, start, stop]
    for models, partition in runs:
        partition = partitions.setdefault(partition.key(), partition)
        key = _staged_key(models, partition.key(), max_points)
        span = spans.get(key)
        if span is not None:
            span[0] += 1
            continue
        start = len(points)
        points += phase_product_points(models, partition, None, max_points)
        spans[key] = [1, start, len(points)]
    states = (
        GLOBAL_STEADY_CACHE.solve_many(platform, points, precision="fast")
        if points
        else []
    )
    staged = {
        key: [
            claims,
            tuple(
                SteadyStateCache.make_key(
                    platform, phases, partition, None, "fast"
                )
                for phases, partition, _mba, _prefetch in points[start:stop]
            ),
            tuple(states[start:stop]),
        ]
        for key, (claims, start, stop) in spans.items()
    }
    with _STAGED_LOCK:
        _STAGED.clear()
        _STAGED.update(staged)
        _staged_platform = platform
    return len(points)


def _claim_staged(
    platform: PlatformConfig,
    models: Sequence[AppModel],
    partition: PartitionSpec,
    max_points: int,
) -> tuple[tuple, tuple] | None:
    """Take one claim on a staged ``(keys, states)`` (``None``: no stage)."""
    if not _STAGED:
        return None
    key = _staged_key(models, partition.key(), max_points)
    with _STAGED_LOCK:
        entry = _STAGED.get(key)
        if entry is None or _staged_platform != platform:
            return None
        entry[0] -= 1
        if not entry[0]:
            del _STAGED[key]
    return entry[1], entry[2]


@dataclass
class RunningApp:
    """Execution state of one application instance on one core.

    Keeps a cursor — ``(phase index, instructions left in it)`` — for the
    current :attr:`instructions_in_run`. It is exactly what
    :meth:`AppModel.phase_at` returns for that position, recomputed only
    when the position moves, so the event loop reads it for free.
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


@dataclass(frozen=True)
class TimelinePoint:
    """One telemetry record (captured at the start of each interval)."""

    time_s: float
    hp_ways: float
    hp_ipc: float
    total_bw_bytes: float
    latency_cycles: float
    partition_hp_ways: float | None


class Server:
    """A consolidated multicore server running one app per core."""

    def __init__(
        self,
        platform: PlatformConfig,
        apps: Sequence[AppModel],
        partition: PartitionSpec | None = None,
        *,
        record_timeline: bool = False,
        warm_start: bool = False,
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
        self.timeline: list[TimelinePoint] = []
        self._record_timeline = record_timeline
        # Operating points already visited by THIS server (includes warm-
        # started solves, which the shared process-wide cache refuses).
        self._memo: dict[tuple, SteadyState] = {}
        # Memo keys a prefetch inserted that _steady has not read yet;
        # maintained only while telemetry is enabled (the
        # server.prefetch.points/used counters).
        self._unread_prefetched: set[tuple] = set()
        self._warm_start = warm_start
        # The held operating point: the state the apps run at, the phases
        # it was resolved for and its per-core rates as Python floats.
        # _steady re-resolves it (memo key, then lookup) only when a key
        # input changed: _stale is set by the reconfiguration setters,
        # _moved by an app that restarted or may have left its phase.
        self._state: SteadyState | None = None
        self._phases: tuple[Phase, ...] = ()
        self._rates: list[float] = []
        self._bw_bytes: list[float] = []
        self._stale = True
        self._moved = True
        self._incomplete = len(self.apps)
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
            phases = tuple(app.current_phase()[0] for app in self.apps)
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
            warm = None
            if self._warm_start and self._state is not None:
                warm = (self._state.ways, self._state.latency_cycles)
            state = GLOBAL_STEADY_CACHE.solve(
                self.platform,
                phases,
                self.partition,
                mba_scale=self.mba_scale,
                prefetch=self.prefetch,
                warm_start=warm,
                precision=self.precision,
            )
            self._memo[key] = state
        self._state = state
        self._rates = (state.ipc * self.platform.freq_hz).tolist()
        self._bw_bytes = state.bw_bytes.tolist()
        self._stale = False
        return state

    def steady_state(self) -> SteadyState:
        """The converged operating point for the current phases/partition.

        Public monitoring surface (used by the RDT backend's occupancy
        snapshot); held between events, so repeated calls are free.
        """
        return self._steady()

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

        A no-op under ``precision="exact"`` — exact points are solved one
        at a time by the scalar solver, so there is nothing to batch
        (DESIGN.md §7) — and under warm-start semantics (warm-started
        solves depend on the caller's history and must not be
        pre-computed). Every partition's shape is checked either way.
        Returns the number of points actually solved.
        """
        for partition in partitions:
            if partition.n_cores != self.n_active:
                raise ValueError(
                    f"partition covers {partition.n_cores} cores but "
                    f"{self.n_active} apps are running"
                )
        if not self._batches_prefetch:
            return 0
        phases = tuple(app.current_phase()[0] for app in self.apps)
        try:
            return self._prefetch_points(
                (phases, partition, self.mba_scale, self.prefetch)
                for partition in partitions
            )
        except ConvergenceError:
            return 0

    def prefetch_phase_product(self, max_points: int = 64) -> int:
        """Pre-solve the cross product of per-app phases in one batch.

        A static-partition run visits exactly the phase combinations in
        the product of each app's phase list (clones share their model's
        phases, so the product is over *distinct* models — typically
        |HP phases| x |BE phases| points). Solving them all up front in
        one fast batch turns the event loop's per-interval solves into
        memo hits. Skipped when the product exceeds ``max_points``
        (multi-phase zoos), under ``precision="exact"`` or under
        warm-start semantics (see :meth:`prefetch_partitions`). When a
        campaign prewarm already staged this run's product
        (:func:`stage_phase_products`), its keys and states are claimed
        instead of rebuilt. Returns the number of points memoised.
        """
        if not self._batches_prefetch:
            return 0
        models = [app.model for app in self.apps]
        if self.mba_scale is None and self.prefetch is None:
            staged = _claim_staged(
                self.platform, models, self.partition, max_points
            )
            if staged is not None:
                keys, states = staged
                pairs = zip(keys, states)
                if self._memo:
                    pairs = (p for p in pairs if p[0] not in self._memo)
                return self._memoise(list(pairs))
        return self._prefetch_points(
            phase_product_points(
                models,
                self.partition,
                self.mba_scale,
                max_points,
                prefetch=self.prefetch,
            )
        )

    @property
    def _batches_prefetch(self) -> bool:
        return self.precision == "fast" and not self._warm_start

    def _prefetch_points(self, candidates) -> int:
        """Batch-solve the not-yet-memoised points into the memo."""
        points = []
        keys = []
        for phases, partition, mba_scale, prefetch in candidates:
            key = SteadyStateCache.make_key(
                self.platform, phases, partition, mba_scale, self.precision,
                prefetch=prefetch,
            )
            if key in self._memo:
                continue
            points.append((phases, partition, mba_scale, prefetch))
            keys.append(key)
        if not points:
            return 0
        states = GLOBAL_STEADY_CACHE.solve_many(
            self.platform, points, precision=self.precision
        )
        return self._memoise(list(zip(keys, states)))

    def _memoise(self, pairs: list[tuple[tuple, SteadyState]]) -> int:
        """Put prefetched ``(memo key, state)`` pairs into the memo."""
        if not pairs:
            return 0
        self._memo.update(pairs)
        registry = get_registry()
        if registry.enabled:
            registry.counter("server.prefetch.points").inc(len(pairs))
            self._unread_prefetched.update(key for key, _state in pairs)
        return len(pairs)

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
        state = self._steady()
        rates = self._rates
        cursors = [app.cursor for app in self.apps]
        dt = max_dt
        for (_, remaining), rate in zip(cursors, rates):
            until_boundary = remaining / rate
            if until_boundary < dt:
                dt = until_boundary

        if self._record_timeline:
            self.timeline.append(
                TimelinePoint(
                    time_s=self.time,
                    hp_ways=float(state.ways[0]),
                    hp_ipc=float(state.ipc[0]),
                    total_bw_bytes=state.total_bw_bytes,
                    latency_cycles=state.latency_cycles,
                    partition_hp_ways=self.partition.hp_ways,
                )
            )

        self.time += dt
        now = self.time
        moved = False
        for app, (_, remaining), rate, bw in zip(
            self.apps, cursors, rates, self._bw_bytes
        ):
            retired = rate * dt
            app.total_instructions += retired
            app.total_mem_bytes += bw * dt
            if retired >= remaining * (1.0 - _BOUNDARY_RTOL):
                retired = remaining  # snap exactly onto the boundary
            if app.advance(retired, now):
                moved = True
        if moved:
            self._moved = True
            if self._incomplete:
                self._incomplete = sum(
                    1 for app in self.apps if not app.completions
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
