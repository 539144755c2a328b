"""Campaign result store.

The paper's figures reuse the same underlying executions: Figures 4-8 all
draw on the 120-workload sample under UM/CT/DICER across core counts, and
Figure 1 plus the CT-F/CT-T classification share the full 3481-pair UM/CT
runs. :class:`ResultStore` memoises :class:`~repro.experiments.runner.
PairResult` objects per (hp, be, n_be, policy) in memory, with optional
persistence so a long campaign survives process restarts.

Bulk requests (:meth:`ResultStore.get_many`) partition the requested
cells into cached vs. pending and fan the pending ones out over a
:class:`~repro.experiments.supervise.SupervisedExecutor`.
Worker results merge back into the parent cache as they arrive, and — when
a ``cache_path`` is configured — are checkpointed to disk every
``checkpoint_every`` results, so an interrupted paper-scale campaign
resumes mid-grid instead of restarting.

Persistence is pluggable (DESIGN.md §11): the store holds results, the
:class:`~repro.experiments.backends.StoreBackend` engine holds the disk.
The ``file`` engine is the historical crash-safe JSON artefact
(DESIGN.md §9): payload → temp file → fsync → atomic rename → parent
fsync, with a row count and SHA-256 checksum verified on load. The
``sqlite`` engine keeps one row per result in a WAL-mode database,
checkpoints by upserting only what changed, and tolerates many
cooperating writer processes — the engine the shared campaign queue
(:mod:`repro.experiments.queue`) runs on. Either way a corrupt artefact
is *detected*, quarantined to ``<path>.corrupt-<digest>``, and salvaged
row-by-row instead of being trusted or silently dropped. During a bulk
request, SIGINT/SIGTERM flush a checkpoint before the process dies, and
a mid-campaign exception flushes one before propagating — interrupted
grids always resume from the last completed cell.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Callable, Iterable

from repro.core.policies import Policy
from repro.experiments.backends import StoreBackend, open_backend
from repro.experiments.supervise import (
    Cell,
    FailedCell,
    SupervisedExecutor,
    SuperviseConfig,
)
from repro.obs import get_event_log, get_registry
from repro.experiments.runner import PairResult, run_pair
from repro.sim.contention import _check_precision
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM
from repro.workloads.mix import make_mix

__all__ = ["ResultStore"]

_log = logging.getLogger(__name__)

#: Fields persisted per row (the decision trace is dropped — it is bulky and
#: only examples/tests inspect it).
_PERSISTED_FIELDS = (
    "hp_name",
    "be_name",
    "n_be",
    "policy",
    "hp_norm_ipc",
    "be_norm_ipc",
    "hp_slowdown",
    "efu",
    "duration_s",
    "hp_completions",
)

#: The persisted fields in ``PairResult`` field order — the key order
#: ``dataclasses.asdict`` would give a row, without its deep copy.
_ROW_FIELDS = tuple(
    f.name for f in fields(PairResult) if f.name in _PERSISTED_FIELDS
)


def _persisted_row(result: PairResult) -> dict:
    """The row a backend persists for ``result`` (no decision trace)."""
    return {name: getattr(result, name) for name in _ROW_FIELDS}


class ResultStore:
    """Memoising executor for (workload, policy, size) experiments.

    Parameters
    ----------
    platform:
        Platform every execution runs on.
    cache_path:
        Optional artefact for persistence across processes (JSON file or
        SQLite database, see ``backend``).
    n_workers:
        Worker processes for bulk requests: ``1`` (default) keeps the exact
        serial execution path, ``0``/``None`` auto-detects from the CPU
        count, ``N > 1`` fans pending cells out over N processes. Serial
        and parallel execution produce bit-identical results.
    checkpoint_every:
        With a ``cache_path``, how many freshly computed results may
        accumulate before the cache is checkpointed mid-campaign. The file
        backend rewrites the whole artefact per checkpoint, so mid-campaign
        checkpoints are additionally rate-limited to one per
        ``min_checkpoint_interval_s`` seconds; campaigns fast enough to
        finish inside that window just save once at the end.
    supervise:
        A :class:`~repro.experiments.supervise.SuperviseConfig` giving
        bulk requests retry / per-cell timeout / quarantine semantics.
        ``None`` (default) is strict: no retries, the first failure
        aborts with a :class:`~repro.experiments.supervise.CampaignError`
        wrapping the original exception (a checkpoint is still flushed
        first). With ``on_failure="skip"``, quarantined cells
        return ``None`` placeholders from :meth:`get_many` and accumulate
        in :attr:`failures`.
    min_checkpoint_interval_s:
        Override of the mid-campaign checkpoint rate limit (mostly for
        tests; campaigns keep the default).
    precision:
        Solver precision every execution in this store runs under
        ("exact" = bitwise-reproducible, "fast" = tolerance-contracted
        vectorised kernel; DESIGN.md §10). A store is single-mode: the
        mode is stamped into the persisted cache, a cache written under
        the other mode refuses to load, and per-request ``precision``
        overrides that disagree with the store are rejected — fast and
        exact results never merge into one save.
    backend:
        Persistence engine for ``cache_path``: ``"file"`` (checksummed
        atomic-rename JSON), ``"sqlite"`` (WAL database, incremental
        row upserts, concurrent-writer safe), ``"auto"`` (default —
        resolve by path suffix / file magic), or a ready
        :class:`~repro.experiments.backends.StoreBackend` instance.
    batch_label:
        Optional tag stamped on this store's ``campaign.batch`` telemetry
        events — campaign-queue workers set it to their worker id so a
        shared telemetry file attributes batches to workers.
    """

    #: Minimum seconds between mid-campaign checkpoint rewrites.
    _MIN_CHECKPOINT_INTERVAL_S = 5.0

    def __init__(
        self,
        platform: PlatformConfig = TABLE1_PLATFORM,
        cache_path: Path | str | None = None,
        *,
        n_workers: int | None = 1,
        checkpoint_every: int = 256,
        supervise: SuperviseConfig | None = None,
        min_checkpoint_interval_s: float | None = None,
        precision: str = "exact",
        backend: str | StoreBackend = "auto",
        batch_label: str | None = None,
    ) -> None:
        self.platform = platform
        self.precision = _check_precision(precision)
        self._supervise = supervise if supervise is not None else SuperviseConfig()
        self._executor = SupervisedExecutor(
            n_workers, config=self._supervise, label=batch_label
        )
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self._checkpoint_every = checkpoint_every
        self._min_checkpoint_interval_s = (
            self._MIN_CHECKPOINT_INTERVAL_S
            if min_checkpoint_interval_s is None
            else min_checkpoint_interval_s
        )
        self._results: dict[tuple[str, str, int, str], PairResult] = {}
        self._cache_path = Path(cache_path) if cache_path else None
        self._backend: StoreBackend | None = (
            open_backend(self._cache_path, backend)
            if self._cache_path
            else None
        )
        #: Keys computed since the last save, in computation order (a
        #: checkpoint builds rows only for these).
        self._dirty: dict[tuple[str, str, int, str], None] = {}
        self._n_loaded = 0
        self._n_dropped = 0
        self._n_salvaged = 0
        self._n_corrupt_files = 0
        self._n_computed = 0
        self._n_served = 0
        self._pending_checkpoint = 0
        self._last_checkpoint = float("-inf")
        #: Quarantined cells from bulk requests (``on_failure="skip"``).
        self.failures: list[FailedCell] = []
        if self._backend and self._backend.exists():
            self._load()

    @property
    def n_workers(self) -> int:
        """Worker process count used for bulk requests."""
        return self._executor.n_workers

    @property
    def supervise_config(self) -> SuperviseConfig:
        """The retry/timeout/failure policy bulk requests run under."""
        return self._supervise

    @property
    def backend(self) -> StoreBackend | None:
        """The persistence engine (``None`` for a memory-only store)."""
        return self._backend

    @staticmethod
    def _key(cell: Cell) -> tuple[str, str, int, str]:
        hp_name, be_name, n_be, policy = cell
        return (hp_name, be_name, n_be, policy.name)

    def _run_kwargs(self, run_kwargs: dict) -> dict:
        """Stamp the store's precision into per-request kwargs.

        An explicit ``precision`` that matches the store
        is redundant but allowed; one that disagrees would mix solver
        modes inside a single cache file and is refused.
        """
        requested = run_kwargs.get("precision")
        if requested is not None and requested != self.precision:
            raise ValueError(
                f"store runs precision={self.precision!r}; refusing "
                f"per-request precision={requested!r} (mixed-mode results "
                "must not merge into one cache)"
            )
        return {**run_kwargs, "precision": self.precision}

    # -- execution ---------------------------------------------------------

    def get(
        self,
        hp_name: str,
        be_name: str,
        policy: Policy,
        n_be: int = 9,
        **run_kwargs,
    ) -> PairResult:
        """Fetch (or run and memoise) one experiment."""
        run_kwargs = self._run_kwargs(run_kwargs)
        key = (hp_name, be_name, n_be, policy.name)
        registry = get_registry()
        result = self._results.get(key)
        if result is None:
            with registry.histogram("store.cell_seconds").time():
                result = run_pair(
                    make_mix(hp_name, be_name, n_be=n_be),
                    policy,
                    self.platform,
                    **run_kwargs,
                )
            self._results[key] = result
            self._dirty[key] = None
            self._n_computed += 1
            registry.counter("store.computed").inc()
        else:
            self._n_served += 1
            registry.counter("store.served").inc()
        return result

    def get_many(
        self,
        cells: Iterable[Cell],
        *,
        on_result: Callable[[int, Cell, PairResult], None] | None = None,
        **run_kwargs,
    ) -> list[PairResult | None]:
        """Fetch a batch of cells, fanning pending ones out over workers.

        Cells are ``(hp_name, be_name, n_be, policy)`` tuples. The request
        is partitioned into cached vs. pending; pending cells (deduplicated,
        in first-appearance order) run on the store's supervised executor,
        merge back into the cache as they complete, and are checkpointed to
        ``cache_path`` along the way. Returns results aligned
        index-for-index with ``cells``. ``on_result(index, cell, result)``
        fires per freshly computed cell (in submission order over the
        deduplicated pending batch) after it has merged into the cache —
        campaign-queue workers use it to heartbeat their leases.

        Failure semantics follow the store's ``supervise`` config: by
        default the first failure aborts (after a checkpoint flush) with
        a :class:`~repro.experiments.supervise.CampaignError` whose
        ``cause`` is the original exception; with ``on_failure="skip"`` a
        quarantined
        cell yields ``None`` at its positions and a
        :class:`~repro.experiments.supervise.FailedCell` in
        :attr:`failures`. A SIGINT/SIGTERM during the bulk request
        flushes a checkpoint before the process dies.
        """
        cells = list(cells)
        run_kwargs = self._run_kwargs(run_kwargs)
        keys = [self._key(cell) for cell in cells]
        pending: dict[tuple[str, str, int, str], Cell] = {}
        for key, cell in zip(keys, cells):
            if key not in self._results and key not in pending:
                pending[key] = cell
        self._n_served += len(cells) - len(pending)
        registry = get_registry()
        registry.counter("store.served").inc(len(cells) - len(pending))

        if pending:
            pending_keys = list(pending)

            def merge(index: int, cell: Cell, result: PairResult) -> None:
                key = pending_keys[index]
                self._results[key] = result
                self._dirty[key] = None
                self._n_computed += 1
                registry.counter("store.computed").inc()
                self._pending_checkpoint += 1
                if (
                    self._backend
                    and self._pending_checkpoint >= self._checkpoint_every
                    and time.monotonic() - self._last_checkpoint
                    >= self._min_checkpoint_interval_s
                ):
                    self.save()
                if on_result is not None:
                    on_result(index, cell, result)

            try:
                with self._checkpoint_on_signal():
                    outcome = self._executor.run(
                        list(pending.values()),
                        self.platform,
                        run_kwargs=run_kwargs,
                        on_result=merge,
                    )
            finally:
                # A checkpoint survives whatever interrupted the campaign:
                # quarantine-abort, a worker exception, KeyboardInterrupt.
                if self._backend and self._pending_checkpoint:
                    self.save()
            if outcome.failures:
                self.failures.extend(outcome.failures)
                registry.counter("store.failed_cells").inc(
                    len(outcome.failures)
                )

        return [self._results.get(key) for key in keys]

    def __len__(self) -> int:
        return len(self._results)

    def failure_manifest(self) -> list[dict]:
        """Quarantined cells as plain dicts (for reports / JSON)."""
        return [
            {
                "hp_name": f.hp_name,
                "be_name": f.be_name,
                "n_be": f.n_be,
                "policy": f.policy,
                "precision": f.precision,
                "attempts": len(f.attempts),
                "outcome": f.last_error.outcome if f.last_error else "?",
                "error": (
                    f"{f.last_error.error_type}: {f.last_error.message}"
                    if f.last_error and f.last_error.error_type
                    else ""
                ),
            }
            for f in self.failures
        ]

    def stats(self) -> dict[str, int]:
        """Bookkeeping counters for campaign reports.

        ``cached``: results currently held; ``loaded``: rows restored from
        the persisted cache; ``recomputed``: executions this store ran;
        ``served``: requests answered from memory; ``dropped``: persisted
        *rows* ignored on load (schema drift, or salvaged rows whose
        precision stamp cannot be trusted); ``corrupt_files``: cache
        files that failed integrity/parse checks (quarantined, counted
        separately from row drops); ``salvaged``: rows recovered out of a
        corrupt file; ``failed_cells``: cells quarantined by the
        supervisor.
        """
        return {
            "cached": len(self._results),
            "loaded": self._n_loaded,
            "recomputed": self._n_computed,
            "served": self._n_served,
            "dropped": self._n_dropped,
            "corrupt_files": self._n_corrupt_files,
            "salvaged": self._n_salvaged,
            "failed_cells": len(self.failures),
        }

    # -- persistence ---------------------------------------------------------

    @contextmanager
    def _checkpoint_on_signal(self):
        """Flush a checkpoint when SIGINT/SIGTERM lands mid-campaign.

        Installs chaining handlers for the duration of a bulk request:
        the checkpoint is written first, then the previous handler (or
        default action) runs, so ``kill -TERM`` of a mid-grid campaign
        leaves a valid, integrity-checked cache behind. Signal handlers
        only exist on the main thread; elsewhere this is a no-op.
        """
        if (
            not self._backend
            or threading.current_thread() is not threading.main_thread()
        ):
            yield
            return

        previous: dict[int, object] = {}

        def flush_and_chain(signum, frame):
            try:
                self.save()
                log = get_event_log()
                if log.enabled:
                    log.emit(
                        "store.signal_flush",
                        signal=signal.Signals(signum).name,
                        results=len(self._results),
                    )
            finally:
                prev = previous.get(signum, signal.SIG_DFL)
                signal.signal(signum, prev)
                if callable(prev):
                    prev(signum, frame)
                else:
                    # SIG_DFL (or SIG_IGN, where re-raising is harmless):
                    # re-deliver so the default action runs.
                    os.kill(os.getpid(), signum)

        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, flush_and_chain)
        except (ValueError, OSError):  # pragma: no cover - exotic hosts
            yield
            return
        try:
            yield
        finally:
            for signum, prev in previous.items():
                try:
                    signal.signal(signum, prev)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    def save(self) -> None:
        """Checkpoint all results to the cache backend (no-op without one).

        Rows are built only for results computed since the previous save:
        the sqlite backend upserts just those, and the file backend
        rewrites the whole checksummed artefact from its per-key row cache
        (each result's row is built once). Either way the artefact
        afterwards holds every result this store knows, and the row
        building of a checkpoint costs O(new results), not O(campaign).
        """
        if not self._backend:
            return
        t0 = time.perf_counter()
        results = self._results
        n_built = 0

        def build_row(key: tuple[str, str, int, str]) -> dict:
            nonlocal n_built
            n_built += 1
            return _persisted_row(results[key])

        n_written = self._backend.checkpoint(
            results.keys(), list(self._dirty), build_row, self.precision
        )
        self._dirty.clear()
        self._pending_checkpoint = 0
        self._last_checkpoint = time.monotonic()
        registry = get_registry()
        if registry.enabled:
            elapsed = time.perf_counter() - t0
            registry.counter("store.checkpoints").inc()
            registry.counter("store.rows_built").inc(n_built)
            registry.counter("store.rows_written").inc(n_written)
            registry.histogram("store.checkpoint_seconds").observe(elapsed)
            log = get_event_log()
            if log.enabled:
                log.emit(
                    "store.checkpoint",
                    path=str(self._cache_path),
                    backend=self._backend.kind,
                    results=len(self._results),
                    built=n_built,
                    written=n_written,
                    seconds=round(elapsed, 6),
                )

    def _load(self) -> None:
        assert self._backend is not None
        loaded = self._backend.load()
        self._n_corrupt_files += loaded.corrupt_files
        rows = loaded.rows
        n_total = len(rows)
        file_precision = loaded.precision
        if (
            not loaded.salvaged
            and file_precision is not None
            and file_precision != self.precision
        ):
            raise ValueError(
                f"result cache {self._cache_path} was written under "
                f"precision={file_precision!r} but this store runs "
                f"precision={self.precision!r}; refusing to merge "
                "mixed-mode results (use a separate cache path per mode)"
            )
        if loaded.salvaged and self.precision != (file_precision or "exact"):
            # A corrupt cache carries no trustworthy precision stamp;
            # salvaged rows keep the mode the artefact declared before it
            # was damaged and must not leak into a store running the
            # other mode. This is a precision drop, not schema drift —
            # logged as such, with the real row count.
            self._n_dropped += n_total
            if n_total:
                _log.warning(
                    "result cache %s: dropping all %d salvaged row(s) — "
                    "they were written under precision=%r and this store "
                    "runs precision=%r; they will be recomputed",
                    self._cache_path,
                    n_total,
                    file_precision or "exact",
                    self.precision,
                )
            rows = []
        n_schema_dropped = 0
        for row in rows:
            try:
                result = PairResult(**row)
            except TypeError:
                n_schema_dropped += 1
                continue  # schema drift: recompute
            key = (result.hp_name, result.be_name, result.n_be, result.policy)
            self._results[key] = result
            self._n_loaded += 1
            if loaded.salvaged:
                self._n_salvaged += 1
        self._n_dropped += n_schema_dropped
        if n_schema_dropped:
            _log.warning(
                "result cache %s: ignored %d of %d rows (schema drift); "
                "they will be recomputed",
                self._cache_path,
                n_schema_dropped,
                n_total,
            )
