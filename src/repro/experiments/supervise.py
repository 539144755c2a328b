"""Supervised campaign execution: retry, quarantine, ordered emission.

The paper-scale campaigns (3481 UM/CT pairs behind Figure 1, the
120-workload grid behind Figures 4-8) are long runs of independent
cells. :class:`SupervisedExecutor` runs them under one supervisor loop
that owns everything a campaign needs whatever executes its cells:

* **bounded retry with deterministic exponential backoff** — no jitter,
  so a retry schedule is bit-reproducible; while a cell waits out its
  backoff the next ready cell runs;
* **poison-cell quarantine** — a cell that exhausts its retries yields
  a structured :class:`FailedCell` (exception, traceback, full attempt
  history) instead of killing the campaign; ``on_failure="skip"``
  surfaces partial results plus a failure manifest, ``"abort"`` raises
  :class:`CampaignError` after every completed cell has been handed to
  ``on_result`` in index order;
* **ordered emission** — results reach ``on_result`` in submission
  order (completions are buffered and released contiguously), so a
  chaos-ridden campaign that ultimately succeeds is bit-identical to a
  clean serial run; the determinism audit asserts this;
* the ``parallel.*`` / ``supervise.*`` metrics and events, through
  :mod:`repro.obs`.

*How* an attempt runs is a small run strategy, picked from the worker
count, the pool kind, the cell count and the timeout:

* **inline** (serial) runs each attempt in the caller's thread, with no
  future and no ``wait()``. A running cell cannot be preempted, so a
  ``cell_timeout_s`` is flagged ``supervise.timeout_unenforced``;
* **threads** (DESIGN.md §12) share the in-process solver caches. An
  expired deadline *abandons* the future: the cell takes a ``timeout``
  strike, but the wedged thread holds its worker slot until it returns;
* **processes** isolate crashes. An expired deadline kills the pool, and
  a ``BrokenProcessPool`` costs only the in-flight cells one
  (re-)attempt: the pool is drained and rebuilt, a sole in-flight cell
  takes a counted ``crash`` strike, and with several in flight every
  suspect re-runs *solo* (uncounted ``pool_crash`` strike) so the
  repeat crash is exactly attributed. Innocent bystanders are never
  quarantined for a neighbour's segfault.

Inline and threads prewarm the shared solo profiles and phase products
before the first cell; process workers start cold. Worker-fault
injection for tests lives in :mod:`repro.experiments.chaos`; chaos
kinds ``crash`` and ``hang`` need the process strategy.
"""

from __future__ import annotations

import heapq
import time
import traceback as _traceback
from collections import Counter
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.core.policies import Policy
from repro.experiments.chaos import maybe_inject
from repro.experiments.runner import (
    MAX_TIME_S,
    PairResult,
    initial_partition,
    run_pair,
)
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
    """One failed attempt at one cell (a successful one resolves the cell)."""

    attempt: int  #: 1-based attempt number.
    outcome: str  #: error | timeout | crash | garbage | pool_crash | pool_lost
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
            if record.counted:
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
    call solves the distinct apps of the whole campaign up front (one fast
    batch, or scalar cold solves under exact), instead of each cell
    cold-solving its own pair of profiles.
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
    :func:`~repro.sim.server.stage_phase_products` keeps each cell's solved
    product for the cell's Server to claim, so no cell builds it twice,
    and (without a timeline) steps the static cells to completion in one
    pass, so their ``run_pair`` needs no Server at all (DESIGN.md §7).
    Every copy of a repeated cell gets its own claim.

    A no-op for ``precision="exact"`` (the scalar-parity path keeps its
    historical per-cell solve pattern) and for cells whose mix or policy
    setup fails — those cells surface their own errors when they run.
    Returns the number of operating points submitted.
    """
    from repro.sim.server import stage_phase_products

    run_kwargs = run_kwargs or {}
    if run_kwargs.get("precision", "exact") != "fast":
        return 0

    def runs():
        # Local to the generator, so it is gone before the fused solve.
        copies = Counter(
            (hp_name, be_name, n_be, policy.name)
            for hp_name, be_name, n_be, policy in cells
        )
        for hp_name, be_name, n_be, policy in cells:
            n_copies = copies.pop((hp_name, be_name, n_be, policy.name), 0)
            if not n_copies:
                continue
            try:
                models = make_mix(hp_name, be_name, n_be=n_be).apps()
                fresh = policy.fresh()
                partition = initial_partition(
                    fresh, len(models), platform.llc_ways
                )
            except Exception:
                continue
            for _ in range(n_copies):
                yield models, partition, not fresh.dynamic

    return stage_phase_products(
        platform,
        runs(),
        max_points_per_cell,
        max_time_s=(
            None
            if run_kwargs.get("record_timeline", False)
            else run_kwargs.get("max_time_s", MAX_TIME_S)
        ),
    )


def _supervised_worker(payload: tuple) -> PairResult:
    """Run one attempt of a cell under the process's chaos config.

    The unit of work every run strategy submits.
    """
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


# -- run strategies -----------------------------------------------------------
#
# A strategy decides how an attempt is submitted, how an expired deadline
# is enforced and what a broken pool means. ``poll`` returns the finished
# attempts as ``(index, result, exc)`` and the attempts lost without a
# result as ``(index, kind, exc, solo)`` strikes; ``expire`` is handed the
# cells past their deadline and returns the strikes it settles at once.


class _Inline:
    """Serial: each attempt runs in the caller's thread as it is submitted."""

    name = "serial"
    workers = 1
    prewarm = True
    enforces_timeout = False
    wedged = False

    def __init__(self) -> None:
        self._done: list[tuple[int, object, BaseException | None]] = []

    def has_slot(self, running: int) -> bool:
        return not self._done

    def submit(self, index: int, payload: tuple) -> None:
        try:
            self._done.append((index, _supervised_worker(payload), None))
        except Exception as exc:
            self._done.append((index, None, exc))

    def poll(self, timeout: float) -> tuple[list, list]:
        done, self._done = self._done, []
        return done, []

    def close(self) -> None:
        pass


class _FuturePool:
    """Shared future bookkeeping of the two executor-backed strategies."""

    enforces_timeout = True
    wedged = False
    timeout_detail: dict = {}

    def __init__(self, workers: int, timeout_s: float | None) -> None:
        self.workers = workers
        self.timeout_s = timeout_s
        self._futures: dict[Future, int] = {}
        self._pool = self._new_pool()

    def has_slot(self, running: int) -> bool:
        return running < self.workers

    def submit(self, index: int, payload: tuple) -> None:
        self._futures[self._pool.submit(_supervised_worker, payload)] = index

    def _take(self, fut: Future) -> tuple[int, object, BaseException | None]:
        index = self._futures.pop(fut)
        exc = fut.exception()
        return index, (fut.result() if exc is None else None), exc

    def close(self) -> None:
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


class _Threads(_FuturePool):
    """A thread pool sharing the in-process caches; timeouts abandon."""

    name = "threads"
    prewarm = True
    timeout_detail = {"enforcement": "abandoned"}

    def __init__(self, workers: int, timeout_s: float | None) -> None:
        #: Futures struck for timeout whose threads still run: they hold
        #: worker slots, and their late results are discarded.
        self._abandoned: set[Future] = set()
        super().__init__(workers, timeout_s)

    def _new_pool(self) -> ThreadPoolExecutor:
        return ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="supervise"
        )

    @property
    def wedged(self) -> bool:
        return bool(self._abandoned)

    def has_slot(self, running: int) -> bool:
        # Submitting past the pool width would only queue work behind the
        # wedged threads.
        return running + len(self._abandoned) < self.workers

    def poll(self, timeout: float) -> tuple[list, list]:
        self._abandoned = {fut for fut in self._abandoned if not fut.done()}
        # With every slot wedged, block on the abandoned threads instead
        # of spinning until one returns.
        done, _ = wait(
            set(self._futures) or self._abandoned,
            timeout=timeout,
            return_when=FIRST_COMPLETED,
        )
        return [self._take(fut) for fut in done if fut in self._futures], []

    def expire(self, indices: set[int]) -> list:
        lost = []
        for fut, index in list(self._futures.items()):
            if index in indices and not fut.done():
                del self._futures[fut]
                self._abandoned.add(fut)
                exc = TimeoutError(
                    f"cell exceeded {self.timeout_s}s "
                    f"(thread abandoned, not killed)"
                )
                lost.append((index, "timeout", exc, False))
        return lost


class _Processes(_FuturePool):
    """Crash-isolated worker processes; timeouts kill the pool."""

    name = "processes"
    prewarm = False

    def __init__(self, workers: int, timeout_s: float | None) -> None:
        #: Cells whose expired deadline made us kill the pool.
        self._killed: set[int] = set()
        super().__init__(workers, timeout_s)

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.workers)

    def poll(self, timeout: float) -> tuple[list, list]:
        done, _ = wait(
            set(self._futures), timeout=timeout, return_when=FIRST_COMPLETED
        )
        finished: list = []
        broken: list[int] = []
        while done:
            for fut in done:
                index, result, exc = self._take(fut)
                if isinstance(exc, BrokenProcessPool):
                    broken.append(index)
                else:
                    finished.append((index, result, exc))
            if not broken or not self._futures:
                break
            # The pool is dead: every remaining future is doomed. Drain
            # them all now so one break is one rebuild (a completion that
            # raced the break is still honoured as a normal result).
            done, _ = wait(set(self._futures), timeout=10.0)
        return finished, self._attribute(broken)

    def _attribute(self, broken: list[int]) -> list:
        if not broken:
            return []
        if self._killed:
            # We killed the pool over a timeout: the culprits are known,
            # bystanders are innocent.
            killed, self._killed = self._killed, set()
            return [
                (i, "timeout", TimeoutError(f"cell exceeded {self.timeout_s}s"), False)
                if i in killed
                else (i, "pool_lost", None, False)
                for i in broken
            ]
        if len(broken) == 1:
            # Exactly one cell was running: attribution is certain.
            exc = BrokenProcessPool("worker process died while running this cell")
            return [(broken[0], "crash", exc, False)]
        # Unknown culprit: every suspect re-runs solo so the next crash is
        # exactly attributed; these strikes are recorded but uncounted.
        return [(i, "pool_crash", None, True) for i in broken]

    def expire(self, indices: set[int]) -> list:
        # Kill the pool under a wedged worker; the resulting break is
        # attributed in the next poll.
        expired = {
            index
            for fut, index in self._futures.items()
            if index in indices and not fut.done()
        }
        if expired:
            self._killed |= expired
            processes = getattr(self._pool, "_processes", None) or {}
            for proc in list(processes.values()):
                proc.kill()
        return []

    def rebuild(self) -> None:
        try:
            self._pool.shutdown(wait=False)
        except Exception:
            pass
        self._pool = self._new_pool()


class SupervisedExecutor:
    """Run campaign cells under one supervisor loop: retry, quarantine, order.

    Parameters
    ----------
    n_workers:
        Worker count. ``None``/``0`` auto-detects from the CPU count;
        ``1`` (or a single cell without a timeout) runs inline in the
        caller's thread — retry, backoff and quarantine still apply, but
        crashes and hangs cannot be isolated.
    config:
        The :class:`SuperviseConfig` retry/timeout/failure policy
        (default: strict — no retries, abort on first failure).
    label:
        Optional tag stamped on this executor's ``campaign.batch``
        telemetry events, so batches from several cooperating processes
        (campaign-queue workers) stay attributable in one shared
        telemetry stream.
    pool:
        With more than one worker: ``"processes"`` (default) runs cells in
        crash-isolated worker processes; ``"threads"`` in a thread pool
        sharing the in-process solver caches — the same loop minus crash
        attribution and hard preemption (see the module docstring).
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
        timeout = self.config.cell_timeout_s
        registry = get_registry()
        t0 = time.perf_counter() if registry.enabled else 0.0
        if self.n_workers > 1 and (len(cells) > 1 or timeout is not None):
            workers = min(self.n_workers, max(1, len(cells)))
            strategy_cls = _Threads if self.pool == "threads" else _Processes
            strategy = strategy_cls(workers, timeout)
        else:
            strategy = _Inline()
        if timeout is not None and not strategy.enforces_timeout:
            log = get_event_log()
            if log.enabled:
                log.emit(
                    "supervise.timeout_unenforced",
                    timeout_s=timeout,
                    reason="serial in-process execution cannot be preempted",
                )
        if strategy.prewarm:
            # Solo profiles and (fast precision) the fused phase-product
            # batch are solved once up front, so every in-process attempt
            # finds them staged instead of cold-solving its own.
            _prewarm_solo_profiles(platform, cells, run_kwargs)
            _prewarm_phase_products(platform, cells, run_kwargs)
        outcome = self._supervise(
            cells, platform, run_kwargs, on_result, strategy
        )
        if registry.enabled and cells:
            elapsed = time.perf_counter() - t0
            workers_used = strategy.workers
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
                    pool=strategy.name,
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

    # -- the supervisor loop -------------------------------------------------

    def _supervise(
        self,
        cells: list,
        platform: PlatformConfig,
        run_kwargs: dict | None,
        on_result,
        strategy,
    ) -> CampaignOutcome:
        config = self.config
        timeout = config.cell_timeout_s
        registry = get_registry()
        # A cell's state exists from its first submit until it resolves.
        states: list[_CellState | None] = [None] * len(cells)
        resolved: list = [_PENDING] * len(cells)
        outcome = CampaignOutcome(results=[None] * len(cells))
        next_emit = 0
        unresolved = len(cells)
        max_rebuilds = self._MAX_REBUILDS_BASE + 2 * len(cells)

        # Scheduling structures: indices eligible now (normal / solo; a
        # sorted list is already a heap), a delay heap of
        # (not_before, index) entries serving backoff, and the submit time
        # of every running attempt.
        ready: list[int] = list(range(len(cells)))
        solo_ready: list[int] = []
        delayed: list[tuple[float, int]] = []
        running: dict[int, float] = {}
        abort: CampaignError | None = None

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
            for index in range(next_emit, len(cells)):
                value = resolved[index]
                if isinstance(value, PairResult):
                    outcome.results[index] = value
                    if on_result is not None:
                        on_result(index, cells[index], value)

        def resolve_ok(index: int, result: PairResult, duration: float) -> None:
            nonlocal unresolved
            registry.counter("parallel.cells").inc()
            registry.counter("supervise.cells_ok").inc()
            if registry.enabled:
                registry.histogram("parallel.cell_seconds").observe(duration)
            resolved[index] = result
            states[index] = None
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
            states[state.index] = None
            unresolved -= 1
            emit_ready()

        def requeue(state: _CellState, *, delay: float, solo: bool) -> None:
            if solo:
                state.solo = True
            if delay > 0:
                heapq.heappush(
                    delayed, (time.monotonic() + delay, state.index)
                )
            else:
                heapq.heappush(solo_ready if state.solo else ready, state.index)

        def strike(
            index: int,
            kind: str,
            exc: BaseException | None = None,
            solo: bool = False,
        ) -> None:
            state = states[index]
            duration = time.monotonic() - running.pop(index)
            if kind == "timeout":
                self._emit_recovery(
                    "timeout", state, timeout_s=timeout,
                    **strategy.timeout_detail,
                )
            elif kind == "crash":
                registry.counter("supervise.crashes").inc()
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

        def finish(index: int, result, exc: BaseException | None) -> None:
            if exc is not None:
                registry.counter("supervise.errors").inc()
                strike(index, "error", exc)
            elif isinstance(result, PairResult):
                resolve_ok(index, result, time.monotonic() - running.pop(index))
            else:
                registry.counter("supervise.garbage").inc()
                strike(
                    index,
                    "garbage",
                    TypeError(
                        f"worker returned {type(result).__name__!s}, "
                        f"not PairResult"
                    ),
                )

        def submit(index: int) -> None:
            state = states[index]
            if state is None:
                state = states[index] = _CellState(index, cells[index])
            running[index] = time.monotonic()
            strategy.submit(
                index,
                (platform, state.cell, run_kwargs, index + 1, state.next_attempt),
            )

        def rebuild_pool() -> None:
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
                    workers=strategy.workers,
                )
            strategy.rebuild()

        try:
            while unresolved and abort is None:
                now = time.monotonic()
                while delayed and delayed[0][0] <= now:
                    index = heapq.heappop(delayed)[1]
                    heapq.heappush(
                        solo_ready if states[index].solo else ready, index
                    )

                # Refill: normal cells fill the free slots; a solo suspect
                # only launches when nothing else runs, and blocks further
                # submissions until it resolves.
                solo_running = any(states[i].solo for i in running)
                while not solo_running:
                    if ready and strategy.has_slot(len(running)):
                        submit(heapq.heappop(ready))
                    elif solo_ready and not running:
                        submit(heapq.heappop(solo_ready))
                        solo_running = True
                    else:
                        break

                if not running and not strategy.wedged:
                    if not delayed:
                        break  # nothing left anywhere
                    time.sleep(
                        min(0.05, max(0.0, delayed[0][0] - time.monotonic()))
                    )
                    continue

                tick = 0.25
                if timeout is not None and running:
                    first_deadline = min(running.values()) + timeout
                    tick = min(tick, max(0.0, first_deadline - time.monotonic()))
                if delayed:
                    tick = min(
                        tick, max(0.0, delayed[0][0] - time.monotonic())
                    )
                finished, lost = strategy.poll(tick)
                for index, result, exc in finished:
                    finish(index, result, exc)
                if lost:
                    # Only a broken process pool loses attempts in poll.
                    for index, kind, exc, solo in lost:
                        strike(index, kind, exc, solo)
                    if abort is None:
                        rebuild_pool()
                    continue

                if timeout is not None and strategy.enforces_timeout:
                    now = time.monotonic()
                    expired = {
                        index
                        for index, started in running.items()
                        if now - started >= timeout
                    }
                    if expired:
                        for index, kind, exc, solo in strategy.expire(expired):
                            strike(index, kind, exc, solo)
        finally:
            strategy.close()

        if abort is not None:
            flush_completed()
            if abort.cause is not None:
                raise abort from abort.cause
            raise abort
        return outcome
