"""Supervised campaign execution: crash isolation, retry, quarantine.

The paper-scale campaigns (3481 UM/CT pairs behind Figure 1, the
120-workload grid behind Figures 4-8) are hours of embarrassingly
parallel work, and the executor used to drive them through a single
``pool.map`` — one worker segfault/OOM raised ``BrokenProcessPool`` and
discarded every in-flight cell. :class:`SupervisedExecutor` replaces
that all-or-nothing dispatch with individually submitted futures under
a supervisor loop:

* **per-cell wall-clock timeouts** — a wedged worker is detected, its
  process group killed, and the cell retried (pool mode only; a serial
  in-process cell cannot be preempted);
* **bounded retry with deterministic exponential backoff** — no jitter,
  so a retry schedule is bit-reproducible;
* **pool rebuild + requeue** — ``BrokenProcessPool`` costs only the
  in-flight cells one (re-)attempt, never the campaign;
* **crash attribution by isolation** — when several cells were in
  flight during a pool break the culprit is unknown, so the suspects
  are re-run *solo* (uncounted "pool_crash" strike); a solo crash is
  exactly attributed and counts against the retry budget. Innocent
  bystanders are never quarantined for a neighbour's segfault;
* **poison-cell quarantine** — a cell that exhausts its retries yields
  a structured :class:`FailedCell` (exception, traceback, full attempt
  history) instead of killing the campaign; ``on_failure="skip"``
  surfaces partial results plus a failure manifest, ``"abort"`` raises
  :class:`CampaignError` after everything already computed has been
  handed to ``on_result``.

Determinism stays load-bearing: cells are pure, results are emitted to
``on_result`` in submission order (completions are buffered and released
contiguously), so a chaos-ridden campaign that ultimately succeeds is
bit-identical to a clean serial run — the determinism audit asserts
this. All recovery actions emit ``supervise.*`` events/counters through
:mod:`repro.obs`. Worker-fault injection for tests lives in
:mod:`repro.experiments.chaos`.

``pool="threads"`` (DESIGN.md §12) swaps the process pool for a
``ThreadPoolExecutor``: no spawn cost, no pickling, and every worker
shares the in-process ``GLOBAL_STEADY_CACHE`` and ResultStore, so the
prewarmed solo profiles and phase products serve them all. Retry,
backoff, quarantine and ordered emission are identical; what threads
cannot do is crash isolation (a segfault takes the whole process, so
there is no ``pool_crash``/solo-rerun machinery) or hard preemption — an
expired ``cell_timeout_s`` *abandons* the future (strike +
retry/quarantine as usual, late result discarded) but the wedged thread
occupies its worker slot until it returns. Chaos kinds ``crash`` and
``hang`` are process-pool-only for the same reasons.
"""

from __future__ import annotations

import heapq
import time
import traceback as _traceback
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable

from repro.core.policies import Policy
from repro.experiments.chaos import maybe_inject
from repro.experiments.runner import PairResult, run_pair
from repro.obs import get_event_log, get_registry
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM
from repro.workloads.mix import make_mix

__all__ = [
    "AttemptRecord",
    "CampaignError",
    "CampaignOutcome",
    "Cell",
    "FailedCell",
    "SuperviseConfig",
    "SupervisedExecutor",
    "backoff_schedule",
    "run_cell",
]

#: One campaign cell: (hp_name, be_name, n_be, policy).
Cell = tuple[str, str, int, Policy]

#: Attempt outcomes that consume retry budget ("pool_crash" / "pool_lost"
#: are unattributed collateral and do not).
_COUNTED_OUTCOMES = frozenset({"error", "timeout", "crash", "garbage"})

#: Cap on stored traceback text per attempt.
_MAX_TRACEBACK_CHARS = 4000


@dataclass(frozen=True)
class SuperviseConfig:
    """Retry / timeout / failure policy for a supervised campaign.

    The default is *strict*: no retries, no timeout, abort on the first
    failure — the exact semantics of the pre-supervision executor.

    Parameters
    ----------
    max_retries:
        Counted failures a cell may survive beyond its first attempt.
        ``0`` fails a cell on its first attributed failure. Unattributed
        pool breaks ("pool_crash"/"pool_lost" strikes) never consume
        budget — attribution is established by an isolated re-run first.
    cell_timeout_s:
        Wall-clock budget per attempt. Enforced in pool mode by killing
        the worker processes; unenforceable (and ignored, with a
        ``supervise.timeout_unenforced`` event) on the serial path.
    backoff_base_s / backoff_factor / backoff_cap_s:
        Deterministic exponential backoff before retry *k* (1-based):
        ``min(cap, base * factor**(k-1))``. No jitter — retried cells
        are pure, so a deterministic schedule keeps campaigns
        bit-reproducible.
    on_failure:
        ``"abort"`` raises :class:`CampaignError` on the first
        quarantined cell (after flushing completed results to
        ``on_result``); ``"skip"`` records a :class:`FailedCell` and
        carries on, returning partial results plus a failure manifest.
    """

    max_retries: int = 0
    cell_timeout_s: float | None = None
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap_s: float = 30.0
    on_failure: str = "abort"

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.cell_timeout_s is not None and self.cell_timeout_s <= 0:
            raise ValueError(
                f"cell_timeout_s must be > 0, got {self.cell_timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.on_failure not in ("abort", "skip"):
            raise ValueError(
                f"on_failure must be 'abort' or 'skip', got "
                f"{self.on_failure!r}"
            )

    def backoff_delay(self, retry: int) -> float:
        """Delay before retry ``retry`` (1-based) of a cell."""
        if retry < 1:
            return 0.0
        return min(
            self.backoff_cap_s,
            self.backoff_base_s * self.backoff_factor ** (retry - 1),
        )


def backoff_schedule(config: SuperviseConfig) -> tuple[float, ...]:
    """The full deterministic delay schedule, one entry per retry."""
    return tuple(
        config.backoff_delay(k) for k in range(1, config.max_retries + 1)
    )


@dataclass(frozen=True)
class AttemptRecord:
    """One attempt at one cell, successful or not."""

    attempt: int  #: 1-based attempt number.
    outcome: str  #: ok | error | timeout | crash | garbage | pool_crash | pool_lost
    error_type: str = ""
    message: str = ""
    traceback: str = ""
    duration_s: float = 0.0
    #: Whether this attempt consumed retry budget (unattributed pool
    #: breaks are recorded but uncounted).
    counted: bool = True


@dataclass(frozen=True)
class FailedCell:
    """A quarantined cell: retries exhausted, campaign carried on."""

    index: int  #: Position in the submitted batch.
    hp_name: str
    be_name: str
    n_be: int
    policy: str
    attempts: tuple[AttemptRecord, ...] = ()
    #: Solver precision the cell was running under when it was condemned
    #: ("exact" or "fast") — fast-math failures must be re-triageable.
    precision: str = "exact"

    @property
    def last_error(self) -> AttemptRecord | None:
        """The final counted failure (what actually condemned the cell)."""
        for record in reversed(self.attempts):
            if record.counted and record.outcome != "ok":
                return record
        return self.attempts[-1] if self.attempts else None

    def describe(self) -> str:
        """One-line manifest entry."""
        last = self.last_error
        detail = (
            f"{last.outcome}"
            + (f": {last.error_type}: {last.message}" if last.error_type else "")
            if last
            else "unknown"
        )
        return (
            f"{self.hp_name}+{self.n_be}x{self.be_name}/{self.policy} "
            f"after {len(self.attempts)} attempt(s) — {detail}"
        )


class CampaignError(RuntimeError):
    """Raised in ``on_failure="abort"`` mode when a cell is condemned."""

    def __init__(
        self,
        message: str,
        *,
        failure: FailedCell | None = None,
        cause: BaseException | None = None,
    ) -> None:
        super().__init__(message)
        self.failure = failure
        self.cause = cause


@dataclass
class CampaignOutcome:
    """What a supervised campaign produced.

    ``results`` aligns index-for-index with the submitted cells; a
    quarantined cell leaves ``None`` at its position and a
    :class:`FailedCell` in ``failures`` (only possible with
    ``on_failure="skip"``).
    """

    results: list[PairResult | None]
    failures: list[FailedCell] = field(default_factory=list)
    n_retries: int = 0
    n_pool_rebuilds: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


# Sentinel for not-yet-resolved slots.
_PENDING = object()


def _format_exception(exc: BaseException) -> str:
    """Render an exception (local or unpickled-from-a-worker) compactly."""
    cause = getattr(exc, "__cause__", None)
    if cause is not None and type(cause).__name__ == "_RemoteTraceback":
        text = str(cause)
    else:
        text = "".join(
            _traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
    return text[-_MAX_TRACEBACK_CHARS:]


def run_cell(
    platform: PlatformConfig,
    cell: Cell,
    run_kwargs: dict | None = None,
) -> PairResult:
    """Execute one campaign cell (the unit of work the pool distributes)."""
    hp_name, be_name, n_be, policy = cell
    return run_pair(
        make_mix(hp_name, be_name, n_be=n_be),
        policy,
        platform,
        **(run_kwargs or {}),
    )


def _prewarm_solo_profiles(
    platform: PlatformConfig,
    cells: list[Cell],
    run_kwargs: dict | None = None,
) -> None:
    """Batch-solve the solo baselines every cell will normalise against.

    In-process paths only: one :func:`~repro.sim.solo.prewarm_profiles`
    call feeds the distinct apps of the whole campaign into the vectorised
    solver, instead of each cell cold-solving its own pair of profiles.
    Apps missing from the catalog (tests with synthetic names) are simply
    skipped — the cell itself will raise the right error. Honours the
    campaign's solver ``precision`` (from ``run_kwargs``) so the prewarmed
    profiles are the ones the cells will actually look up.
    """
    from repro.sim.solo import prewarm_profiles
    from repro.workloads.catalog import catalog

    precision = (run_kwargs or {}).get("precision", "exact")
    apps = catalog()
    names: list[str] = []
    seen: set[str] = set()
    for hp_name, be_name, _n_be, _policy in cells:
        for name in (hp_name, be_name):
            if name not in seen:
                seen.add(name)
                names.append(name)
    prewarm_profiles(
        [apps[name] for name in names if name in apps],
        platform,
        precision=precision,
    )


def _prewarm_phase_products(
    platform: PlatformConfig,
    cells: list[Cell],
    run_kwargs: dict | None = None,
    max_points_per_cell: int = 64,
) -> int:
    """Fuse the phase-product operating points of many cells into one batch.

    Fast-mode in-process campaigns only. Each cell's execution starts from
    its policy's *initial* partition and (absent MBA throttling) visits
    exactly the phase cross product — the same points
    :meth:`~repro.sim.server.Server.prefetch_phase_product` would solve one
    cell at a time. Aggregating them across the whole campaign hands the
    vectorised fast kernel one wide fused batch instead of hundreds of
    narrow ones, which is where its throughput comes from (DESIGN.md §10).

    A no-op for ``precision="exact"`` (the scalar-parity path keeps its
    historical per-cell solve pattern) and for cells whose mix or policy
    setup fails — those cells surface their own errors when they run.
    Returns the number of operating points submitted.
    """
    from repro.sim.contention import GLOBAL_STEADY_CACHE
    from repro.sim.partition import PartitionSpec
    from repro.sim.server import phase_product_points

    if (run_kwargs or {}).get("precision", "exact") != "fast":
        return 0
    points: list[tuple] = []
    seen: set[tuple] = set()
    for hp_name, be_name, n_be, policy in cells:
        cell_key = (hp_name, be_name, n_be, policy.name)
        if cell_key in seen:
            continue
        seen.add(cell_key)
        try:
            mix = make_mix(hp_name, be_name, n_be=n_be)
            models = mix.apps()
            allocation = policy.fresh().setup(platform.llc_ways)
            partition = (
                allocation.to_partition(len(models))
                if allocation is not None
                else PartitionSpec.unmanaged(len(models), platform.llc_ways)
            )
        except Exception:
            continue
        points.extend(
            phase_product_points(models, partition, None, max_points_per_cell)
        )
    if points:
        GLOBAL_STEADY_CACHE.solve_many(platform, points, precision="fast")
    return len(points)


def _supervised_worker(payload: tuple) -> PairResult:
    """Run one cell in a worker, under the process's chaos config."""
    platform, cell, run_kwargs, index1, attempt = payload
    garbage = maybe_inject(index1, attempt)
    if garbage is not None:
        return garbage
    return run_cell(platform, cell, run_kwargs)


class _CellState:
    """Supervisor-side bookkeeping for one cell."""

    __slots__ = ("index", "cell", "attempts", "counted", "solo")

    def __init__(self, index: int, cell) -> None:
        self.index = index
        self.cell = cell
        self.attempts: list[AttemptRecord] = []
        self.counted = 0
        self.solo = False  # must run alone for crash attribution

    @property
    def next_attempt(self) -> int:
        return len(self.attempts) + 1


class SupervisedExecutor:
    """Fan campaign cells out over crash-isolated worker processes.

    Parameters
    ----------
    n_workers:
        Worker process count. ``None``/``0`` auto-detects from the CPU
        count; ``1`` runs serially in-process (retry/quarantine still
        apply, but crashes and hangs cannot be isolated).
    config:
        The :class:`SuperviseConfig` retry/timeout/failure policy
        (default: strict — no retries, abort on first failure).
    label:
        Optional tag stamped on this executor's ``campaign.batch``
        telemetry events, so batches from several cooperating processes
        (campaign-queue workers) stay attributable in one shared
        telemetry stream.
    pool:
        ``"processes"`` (default) fans out over crash-isolated worker
        processes; ``"threads"`` over a thread pool sharing the
        in-process solver caches — same retry/timeout/quarantine
        semantics minus crash attribution and hard preemption (see the
        module docstring).
    """

    #: Hard cap on pool rebuilds, as a termination backstop: every
    #: rebuild either resolves suspects or consumes counted retry
    #: budget, so a healthy supervisor never approaches this.
    _MAX_REBUILDS_BASE = 8

    def __init__(
        self,
        n_workers: int | None = None,
        *,
        config: SuperviseConfig | None = None,
        label: str | None = None,
        pool: str = "processes",
    ) -> None:
        import os

        if n_workers is None or n_workers <= 0:
            n_workers = os.cpu_count() or 1
        if pool not in ("processes", "threads"):
            raise ValueError(
                f"pool must be 'processes' or 'threads', got {pool!r}"
            )
        self.n_workers = n_workers
        self.config = config if config is not None else SuperviseConfig()
        self.label = label
        self.pool = pool

    # -- public API ----------------------------------------------------------

    def run(
        self,
        cells: Iterable,
        platform: PlatformConfig = TABLE1_PLATFORM,
        *,
        run_kwargs: dict | None = None,
        on_result: Callable[[int, tuple, PairResult], None] | None = None,
    ) -> CampaignOutcome:
        """Execute every cell under supervision.

        ``on_result(index, cell, result)`` fires in submission order (a
        completion behind an unresolved cell is buffered until the gap
        closes), which keeps downstream checkpoint artefacts
        byte-identical across worker counts and chaos schedules.
        """
        cells = list(cells)
        registry = get_registry()
        t0 = time.perf_counter() if registry.enabled else 0.0
        use_pool = self.n_workers > 1 and (
            len(cells) > 1 or self.config.cell_timeout_s is not None
        )
        if use_pool:
            workers_used = min(self.n_workers, max(1, len(cells)))
            if self.pool == "threads":
                outcome = self._run_threads(
                    cells, platform, run_kwargs, on_result, workers_used
                )
            else:
                outcome = self._run_pool(
                    cells, platform, run_kwargs, on_result, workers_used
                )
        else:
            workers_used = 1
            outcome = self._run_serial(cells, platform, run_kwargs, on_result)
        if registry.enabled and cells:
            elapsed = time.perf_counter() - t0
            registry.histogram("parallel.batch_seconds").observe(elapsed)
            registry.gauge("parallel.n_workers").set(workers_used)
            throughput = len(cells) / elapsed if elapsed > 0 else 0.0
            registry.gauge("parallel.cells_per_second").set(throughput)
            registry.gauge("parallel.cells_per_worker_second").set(
                throughput / workers_used
            )
            log = get_event_log()
            if log.enabled:
                extra = {"label": self.label} if self.label else {}
                log.emit(
                    "campaign.batch",
                    cells=len(cells),
                    workers=workers_used,
                    pool=self.pool if use_pool else "serial",
                    seconds=round(elapsed, 6),
                    cells_per_second=round(throughput, 3),
                    retries=outcome.n_retries,
                    pool_rebuilds=outcome.n_pool_rebuilds,
                    failed_cells=len(outcome.failures),
                    **extra,
                )
        return outcome

    # -- shared plumbing -----------------------------------------------------

    @staticmethod
    def _failed_cell(
        state: _CellState, run_kwargs: dict | None = None
    ) -> FailedCell:
        hp_name, be_name, n_be, policy = state.cell
        return FailedCell(
            index=state.index,
            hp_name=hp_name,
            be_name=be_name,
            n_be=n_be,
            policy=getattr(policy, "name", str(policy)),
            attempts=tuple(state.attempts),
            precision=(run_kwargs or {}).get("precision", "exact"),
        )

    def _record_attempt(
        self,
        state: _CellState,
        outcome: str,
        *,
        exc: BaseException | None = None,
        duration_s: float = 0.0,
    ) -> AttemptRecord:
        counted = outcome in _COUNTED_OUTCOMES
        record = AttemptRecord(
            attempt=state.next_attempt,
            outcome=outcome,
            error_type=type(exc).__name__ if exc is not None else "",
            message=str(exc)[:500] if exc is not None else "",
            traceback=_format_exception(exc) if exc is not None else "",
            duration_s=duration_s,
            counted=counted,
        )
        state.attempts.append(record)
        if counted:
            state.counted += 1
        return record

    @staticmethod
    def _emit_recovery(event: str, state: _CellState, **payload) -> None:
        registry = get_registry()
        registry.counter(f"supervise.{event}").inc()
        log = get_event_log()
        if log.enabled:
            hp_name, be_name, n_be, policy = state.cell
            log.emit(
                f"supervise.{event}",
                cell=f"{hp_name}+{n_be}x{be_name}",
                policy=getattr(policy, "name", str(policy)),
                index=state.index,
                attempt=len(state.attempts),
                **payload,
            )

    # -- serial path ---------------------------------------------------------

    def _run_serial(
        self,
        cells: list,
        platform: PlatformConfig,
        run_kwargs: dict | None,
        on_result,
    ) -> CampaignOutcome:
        config = self.config
        registry = get_registry()
        if config.cell_timeout_s is not None:
            log = get_event_log()
            if log.enabled:
                log.emit(
                    "supervise.timeout_unenforced",
                    timeout_s=config.cell_timeout_s,
                    reason="serial in-process execution cannot be preempted",
                )
        _prewarm_solo_profiles(platform, cells, run_kwargs)
        # Fast-mode campaigns additionally fuse every cell's phase-product
        # operating points into one wide batch up front (no-op for exact).
        _prewarm_phase_products(platform, cells, run_kwargs)
        outcome = CampaignOutcome(results=[None] * len(cells))
        for index, cell in enumerate(cells):
            state = _CellState(index, cell)
            while True:
                attempt_t0 = time.perf_counter()
                try:
                    if registry.enabled:
                        with registry.histogram("parallel.cell_seconds").time():
                            result = maybe_inject(index + 1, state.next_attempt)
                            if result is None:
                                result = run_cell(platform, cell, run_kwargs)
                    else:
                        result = maybe_inject(index + 1, state.next_attempt)
                        if result is None:
                            result = run_cell(platform, cell, run_kwargs)
                    error: BaseException | None = None
                except Exception as caught:
                    error = caught
                    result = None
                duration = time.perf_counter() - attempt_t0

                if error is None and isinstance(result, PairResult):
                    self._record_attempt(state, "ok", duration_s=duration)
                    registry.counter("parallel.cells").inc()
                    registry.counter("supervise.cells_ok").inc()
                    outcome.results[index] = result
                    if on_result is not None:
                        on_result(index, cell, result)
                    break

                kind = "error" if error is not None else "garbage"
                self._record_attempt(
                    state, kind, exc=error, duration_s=duration
                )
                if state.counted <= config.max_retries:
                    outcome.n_retries += 1
                    delay = config.backoff_delay(state.counted)
                    self._emit_recovery(
                        "retry", state, outcome=kind, delay_s=delay
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue

                failure = self._failed_cell(state, run_kwargs)
                self._emit_recovery("quarantine", state, outcome=kind)
                if config.on_failure == "abort":
                    raise CampaignError(
                        f"campaign aborted: cell {failure.describe()}",
                        failure=failure,
                        cause=error,
                    ) from error
                outcome.failures.append(failure)
                break
        return outcome

    # -- pool path -----------------------------------------------------------

    def _run_pool(
        self,
        cells: list,
        platform: PlatformConfig,
        run_kwargs: dict | None,
        on_result,
        workers: int,
    ) -> CampaignOutcome:
        config = self.config
        registry = get_registry()
        states = [_CellState(i, cell) for i, cell in enumerate(cells)]
        resolved: list = [_PENDING] * len(cells)
        outcome = CampaignOutcome(results=[None] * len(cells))
        next_emit = 0
        unresolved = len(cells)
        max_rebuilds = self._MAX_REBUILDS_BASE + 2 * len(cells)

        # Scheduling structures: indices eligible now (normal / solo), and
        # a delay heap of (not_before, index) entries serving backoff.
        ready: list[int] = list(range(len(cells)))
        heapq.heapify(ready)
        solo_ready: list[int] = []
        delayed: list[tuple[float, int]] = []

        inflight: dict[Future, int] = {}
        deadlines: dict[Future, float] = {}
        submit_times: dict[Future, float] = {}
        timed_out_pending: set[int] = set()
        deliberate_kill = False
        abort: CampaignError | None = None

        pool = ProcessPoolExecutor(max_workers=workers)

        def emit_ready() -> None:
            nonlocal next_emit
            while next_emit < len(cells) and resolved[next_emit] is not _PENDING:
                value = resolved[next_emit]
                if isinstance(value, PairResult):
                    outcome.results[next_emit] = value
                    if on_result is not None:
                        on_result(next_emit, cells[next_emit], value)
                next_emit += 1

        def flush_completed() -> None:
            # Abort path: everything resolved-ok but buffered behind a gap
            # still reaches on_result (in index order) before the raise.
            nonlocal next_emit
            for index in range(next_emit, len(cells)):
                value = resolved[index]
                if isinstance(value, PairResult):
                    outcome.results[index] = value
                    if on_result is not None:
                        on_result(index, cells[index], value)
            next_emit = len(cells)

        def resolve_ok(state: _CellState, result: PairResult, duration: float) -> None:
            nonlocal unresolved
            self._record_attempt(state, "ok", duration_s=duration)
            registry.counter("parallel.cells").inc()
            registry.counter("supervise.cells_ok").inc()
            if registry.enabled:
                registry.histogram("parallel.cell_seconds").observe(duration)
            resolved[state.index] = result
            unresolved -= 1
            emit_ready()

        def quarantine(state: _CellState, exc: BaseException | None) -> None:
            nonlocal unresolved, abort
            failure = self._failed_cell(state, run_kwargs)
            self._emit_recovery(
                "quarantine",
                state,
                outcome=failure.last_error.outcome if failure.last_error else "?",
            )
            if config.on_failure == "abort":
                abort = CampaignError(
                    f"campaign aborted: cell {failure.describe()}",
                    failure=failure,
                    cause=exc,
                )
                return
            outcome.failures.append(failure)
            resolved[state.index] = failure
            unresolved -= 1
            emit_ready()

        def requeue(state: _CellState, *, delay: float, solo: bool) -> None:
            if solo:
                state.solo = True
            if delay > 0:
                heapq.heappush(
                    delayed, (time.monotonic() + delay, state.index)
                )
            elif state.solo:
                heapq.heappush(solo_ready, state.index)
            else:
                heapq.heappush(ready, state.index)

        def strike(
            state: _CellState,
            kind: str,
            *,
            exc: BaseException | None = None,
            duration: float = 0.0,
            solo: bool = False,
        ) -> None:
            record = self._record_attempt(
                state, kind, exc=exc, duration_s=duration
            )
            if not record.counted:
                self._emit_recovery("retry", state, outcome=kind, delay_s=0.0)
                requeue(state, delay=0.0, solo=solo)
                return
            if state.counted <= config.max_retries:
                outcome.n_retries += 1
                delay = config.backoff_delay(state.counted)
                self._emit_recovery(
                    "retry", state, outcome=kind, delay_s=delay
                )
                requeue(state, delay=delay, solo=solo)
                return
            quarantine(state, exc)

        def submit(state: _CellState) -> None:
            payload = (
                platform,
                state.cell,
                run_kwargs,
                state.index + 1,
                state.next_attempt,
            )
            fut = pool.submit(_supervised_worker, payload)
            inflight[fut] = state.index
            submit_times[fut] = time.monotonic()
            if config.cell_timeout_s is not None:
                deadlines[fut] = time.monotonic() + config.cell_timeout_s

        def rebuild_pool() -> None:
            nonlocal pool
            outcome.n_pool_rebuilds += 1
            if outcome.n_pool_rebuilds > max_rebuilds:
                raise CampaignError(
                    f"campaign aborted: worker pool broke "
                    f"{outcome.n_pool_rebuilds} times (limit {max_rebuilds})"
                )
            registry.counter("supervise.pool_rebuilds").inc()
            log = get_event_log()
            if log.enabled:
                log.emit(
                    "supervise.pool_rebuild",
                    rebuilds=outcome.n_pool_rebuilds,
                    workers=workers,
                )
            try:
                pool.shutdown(wait=False)
            except Exception:
                pass
            pool = ProcessPoolExecutor(max_workers=workers)

        def handle_broken(broken: list[int]) -> None:
            nonlocal deliberate_kill
            if deliberate_kill:
                # We killed the pool ourselves over a timeout: the
                # culprit(s) are known, bystanders are innocent.
                for index in broken:
                    state = states[index]
                    if index in timed_out_pending:
                        self._emit_recovery(
                            "timeout",
                            state,
                            timeout_s=config.cell_timeout_s,
                        )
                        strike(
                            state,
                            "timeout",
                            exc=TimeoutError(
                                f"cell exceeded {config.cell_timeout_s}s"
                            ),
                        )
                    else:
                        strike(state, "pool_lost")
                deliberate_kill = False
            elif len(broken) == 1:
                # Exactly one cell was running: attribution is certain.
                state = states[broken[0]]
                registry.counter("supervise.crashes").inc()
                strike(
                    state,
                    "crash",
                    exc=BrokenProcessPool(
                        "worker process died while running this cell"
                    ),
                )
            else:
                # Unknown culprit: every suspect re-runs solo so the
                # next crash is exactly attributed; these strikes are
                # recorded but uncounted.
                for index in broken:
                    strike(states[index], "pool_crash", solo=True)
            timed_out_pending.clear()
            if abort is None:
                rebuild_pool()

        try:
            while unresolved and abort is None:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _due, index = heapq.heappop(delayed)
                    if states[index].solo:
                        heapq.heappush(solo_ready, index)
                    else:
                        heapq.heappush(ready, index)

                # Refill: normal cells fill the pool; a solo suspect only
                # launches when nothing else is in flight, and blocks
                # further submissions until it resolves.
                solo_inflight = any(
                    states[i].solo for i in inflight.values()
                )
                while not solo_inflight:
                    if ready and len(inflight) < workers:
                        submit(states[heapq.heappop(ready)])
                    elif solo_ready and not inflight:
                        submit(states[heapq.heappop(solo_ready)])
                        solo_inflight = True
                    else:
                        break

                if not inflight:
                    if delayed:
                        time.sleep(
                            min(0.05, max(0.0, delayed[0][0] - time.monotonic()))
                        )
                        continue
                    if ready or solo_ready:
                        continue  # submission blocked only transiently
                    break  # nothing left anywhere

                tick = 0.25
                if deadlines:
                    tick = min(
                        tick,
                        max(0.0, min(deadlines.values()) - time.monotonic()),
                    )
                if delayed:
                    tick = min(
                        tick, max(0.0, delayed[0][0] - time.monotonic())
                    )
                done, _pending = wait(
                    set(inflight), timeout=tick, return_when=FIRST_COMPLETED
                )

                broken: list[int] = []

                def consume(fut: Future) -> None:
                    index = inflight.pop(fut)
                    deadlines.pop(fut, None)
                    duration = time.monotonic() - submit_times.pop(fut)
                    state = states[index]
                    exc = fut.exception()
                    if exc is None:
                        result = fut.result()
                        if isinstance(result, PairResult):
                            resolve_ok(state, result, duration)
                        else:
                            registry.counter("supervise.garbage").inc()
                            strike(
                                state,
                                "garbage",
                                exc=TypeError(
                                    f"worker returned "
                                    f"{type(result).__name__!s}, "
                                    f"not PairResult"
                                ),
                                duration=duration,
                            )
                    elif isinstance(exc, BrokenProcessPool):
                        broken.append(index)
                    else:
                        registry.counter("supervise.errors").inc()
                        strike(state, "error", exc=exc, duration=duration)

                for fut in done:
                    consume(fut)
                if broken:
                    # The pool is dead: every remaining in-flight future
                    # is doomed. Drain them all now so one break is one
                    # rebuild (a completion that raced the break is
                    # still honoured as a normal result).
                    while inflight:
                        leftovers, _ = wait(set(inflight), timeout=10.0)
                        if not leftovers:
                            break
                        for fut in leftovers:
                            consume(fut)
                    handle_broken(broken)
                    continue

                # Deadline sweep: kill the pool under a wedged worker.
                if deadlines:
                    now = time.monotonic()
                    expired = [
                        fut
                        for fut, deadline in deadlines.items()
                        if now >= deadline and not fut.done()
                    ]
                    if expired:
                        deliberate_kill = True
                        for fut in expired:
                            timed_out_pending.add(inflight[fut])
                        processes = getattr(pool, "_processes", None) or {}
                        for proc in list(processes.values()):
                            proc.kill()
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

        if abort is not None:
            flush_completed()
            if abort.cause is not None:
                raise abort from abort.cause
            raise abort
        return outcome

    # -- thread path ---------------------------------------------------------

    def _run_threads(
        self,
        cells: list,
        platform: PlatformConfig,
        run_kwargs: dict | None,
        on_result,
        workers: int,
    ) -> CampaignOutcome:
        """GIL-sharing variant of :meth:`_run_pool` (DESIGN.md §12).

        Same supervisor loop minus everything that needs process
        isolation: no ``BrokenProcessPool`` handling, no solo-rerun crash
        attribution, no pool rebuilds. Timeouts are *soft* — an expired
        future is abandoned (struck and retried/quarantined exactly like
        a pool-mode timeout, its eventual result discarded), but the
        wedged thread keeps occupying a worker slot until it returns, so
        a campaign full of genuine hangs degrades to serial throughput
        rather than being killed. Worker threads share the process's
        solver caches, which is the point: the prewarmed
        ``GLOBAL_STEADY_CACHE`` serves every thread with no spawn or
        pickling cost.
        """
        config = self.config
        registry = get_registry()
        states = [_CellState(i, cell) for i, cell in enumerate(cells)]
        resolved: list = [_PENDING] * len(cells)
        outcome = CampaignOutcome(results=[None] * len(cells))
        next_emit = 0
        unresolved = len(cells)

        # Shared-cache prewarm (the serial path does the same): solo
        # profiles and fused phase products are solved once up front in
        # the supervisor thread, so worker threads start from a hot
        # in-process memo instead of racing each other on cold points.
        _prewarm_solo_profiles(platform, cells, run_kwargs)
        _prewarm_phase_products(platform, cells, run_kwargs)

        ready: list[int] = list(range(len(cells)))
        heapq.heapify(ready)
        delayed: list[tuple[float, int]] = []

        inflight: dict[Future, int] = {}
        deadlines: dict[Future, float] = {}
        submit_times: dict[Future, float] = {}
        #: Futures struck for timeout whose threads are still running;
        #: their late results (or errors) are discarded on completion.
        abandoned: set[Future] = set()
        abort: CampaignError | None = None

        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="supervise"
        )

        def work(index1: int, attempt: int, cell) -> PairResult:
            garbage = maybe_inject(index1, attempt)
            if garbage is not None:
                return garbage
            return run_cell(platform, cell, run_kwargs)

        def emit_ready() -> None:
            nonlocal next_emit
            while next_emit < len(cells) and resolved[next_emit] is not _PENDING:
                value = resolved[next_emit]
                if isinstance(value, PairResult):
                    outcome.results[next_emit] = value
                    if on_result is not None:
                        on_result(next_emit, cells[next_emit], value)
                next_emit += 1

        def flush_completed() -> None:
            nonlocal next_emit
            for index in range(next_emit, len(cells)):
                value = resolved[index]
                if isinstance(value, PairResult):
                    outcome.results[index] = value
                    if on_result is not None:
                        on_result(index, cells[index], value)
            next_emit = len(cells)

        def resolve_ok(state: _CellState, result: PairResult, duration: float) -> None:
            nonlocal unresolved
            self._record_attempt(state, "ok", duration_s=duration)
            registry.counter("parallel.cells").inc()
            registry.counter("supervise.cells_ok").inc()
            if registry.enabled:
                registry.histogram("parallel.cell_seconds").observe(duration)
            resolved[state.index] = result
            unresolved -= 1
            emit_ready()

        def quarantine(state: _CellState, exc: BaseException | None) -> None:
            nonlocal unresolved, abort
            failure = self._failed_cell(state, run_kwargs)
            self._emit_recovery(
                "quarantine",
                state,
                outcome=failure.last_error.outcome if failure.last_error else "?",
            )
            if config.on_failure == "abort":
                abort = CampaignError(
                    f"campaign aborted: cell {failure.describe()}",
                    failure=failure,
                    cause=exc,
                )
                return
            outcome.failures.append(failure)
            resolved[state.index] = failure
            unresolved -= 1
            emit_ready()

        def strike(
            state: _CellState,
            kind: str,
            *,
            exc: BaseException | None = None,
            duration: float = 0.0,
        ) -> None:
            self._record_attempt(state, kind, exc=exc, duration_s=duration)
            if state.counted <= config.max_retries:
                outcome.n_retries += 1
                delay = config.backoff_delay(state.counted)
                self._emit_recovery(
                    "retry", state, outcome=kind, delay_s=delay
                )
                if delay > 0:
                    heapq.heappush(
                        delayed, (time.monotonic() + delay, state.index)
                    )
                else:
                    heapq.heappush(ready, state.index)
                return
            quarantine(state, exc)

        def submit(state: _CellState) -> None:
            fut = pool.submit(
                work, state.index + 1, state.next_attempt, state.cell
            )
            inflight[fut] = state.index
            submit_times[fut] = time.monotonic()
            if config.cell_timeout_s is not None:
                deadlines[fut] = time.monotonic() + config.cell_timeout_s

        def consume(fut: Future) -> None:
            index = inflight.pop(fut)
            deadlines.pop(fut, None)
            duration = time.monotonic() - submit_times.pop(fut)
            state = states[index]
            exc = fut.exception()
            if exc is None:
                result = fut.result()
                if isinstance(result, PairResult):
                    resolve_ok(state, result, duration)
                else:
                    registry.counter("supervise.garbage").inc()
                    strike(
                        state,
                        "garbage",
                        exc=TypeError(
                            f"worker returned "
                            f"{type(result).__name__!s}, not PairResult"
                        ),
                        duration=duration,
                    )
            else:
                registry.counter("supervise.errors").inc()
                strike(state, "error", exc=exc, duration=duration)

        try:
            while unresolved and abort is None:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    _due, index = heapq.heappop(delayed)
                    heapq.heappush(ready, index)

                # Refill. Abandoned futures still hold worker slots, so
                # count them against capacity: submitting past the pool
                # width would only queue work behind the wedged threads.
                while ready and len(inflight) + len(abandoned) < workers:
                    submit(states[heapq.heappop(ready)])

                if not inflight:
                    if abandoned and unresolved:
                        # Every worker slot is wedged: nothing can make
                        # progress until one of them returns. Block on
                        # the abandoned set rather than spinning.
                        done, _ = wait(set(abandoned), timeout=0.25)
                        abandoned.difference_update(done)
                        continue
                    if delayed:
                        time.sleep(
                            min(0.05, max(0.0, delayed[0][0] - time.monotonic()))
                        )
                        continue
                    if ready:
                        continue
                    break

                tick = 0.25
                if deadlines:
                    tick = min(
                        tick,
                        max(0.0, min(deadlines.values()) - time.monotonic()),
                    )
                if delayed:
                    tick = min(
                        tick, max(0.0, delayed[0][0] - time.monotonic())
                    )
                done, _pending = wait(
                    set(inflight), timeout=tick, return_when=FIRST_COMPLETED
                )
                for fut in done:
                    consume(fut)

                # Reap any abandoned threads that have since returned
                # (their results are discarded — the strike already
                # resolved the cell's fate).
                abandoned.difference_update(
                    {fut for fut in abandoned if fut.done()}
                )

                # Deadline sweep: soft timeout — abandon the future and
                # strike the cell; the thread cannot be killed.
                if deadlines:
                    now = time.monotonic()
                    expired = [
                        fut
                        for fut, deadline in deadlines.items()
                        if now >= deadline and not fut.done()
                    ]
                    for fut in expired:
                        index = inflight.pop(fut)
                        deadlines.pop(fut, None)
                        duration = time.monotonic() - submit_times.pop(fut)
                        abandoned.add(fut)
                        state = states[index]
                        self._emit_recovery(
                            "timeout",
                            state,
                            timeout_s=config.cell_timeout_s,
                            enforcement="abandoned",
                        )
                        strike(
                            state,
                            "timeout",
                            exc=TimeoutError(
                                f"cell exceeded {config.cell_timeout_s}s "
                                f"(thread abandoned, not killed)"
                            ),
                            duration=duration,
                        )
        finally:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

        if abort is not None:
            flush_completed()
            if abort.cause is not None:
                raise abort from abort.cause
            raise abort
        return outcome


def strict_config() -> SuperviseConfig:
    """The pre-supervision semantics: no retries, abort on first failure."""
    return SuperviseConfig()


def resilient_config(
    *,
    max_retries: int = 2,
    cell_timeout_s: float | None = None,
    on_failure: str = "abort",
) -> SuperviseConfig:
    """The CLI's campaign defaults (see ``--max-retries`` and friends)."""
    return replace(
        SuperviseConfig(),
        max_retries=max_retries,
        cell_timeout_s=cell_timeout_s,
        on_failure=on_failure,
    )
