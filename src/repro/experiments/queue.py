"""Shared campaign queue: many workers, one grid, every cell exactly once.

A paper-scale campaign is one big bag of independent cells. Within a
single process the :class:`~repro.experiments.store.ResultStore` already
fans cells out over a worker pool; this module scales the same bag
*across processes and hosts sharing a filesystem*: a :class:`
CampaignQueue` is an SQLite database of content-addressed cells that any
number of ``dicer-repro campaign --queue`` workers drain cooperatively,
each computing its claims through its own supervised store into a shared
SQLite result store (DESIGN.md §11).

Coordination is lease-based, the classic work-queue state machine::

    pending ──claim──► claimed ──mark_done──► done
       ▲                  │ │
       │                  │ └──mark_failed──► failed
       └────release───────┘
            (also: lease expiry ⇒ stealable by any worker)

* **Content-addressed keys** — a cell's key is the SHA-256 of its
  canonical ``(hp_name, be_name, n_be, policy)`` JSON, so enqueueing is
  idempotent (``INSERT OR IGNORE``): every worker can enqueue the full
  grid on startup and exactly one row per cell exists. ``seq`` records
  first-enqueue order (canonical grid order), so claims proceed in the
  same order a serial campaign would.
* **Leases + heartbeats** — a claim holds a wall-clock lease; the
  draining worker heartbeats as results arrive. A worker that dies
  (crash, OOM, lost host) simply stops heartbeating and its cells
  become stealable when the lease expires — no coordinator, no janitor
  process.
* **Work stealing** — ``claim()`` takes expired-lease cells as readily
  as pending ones (counting a steal on the cell), so a straggler or a
  corpse never strands work.
* **Exactly-once artefacts** — cells are pure and deterministic
  (DESIGN.md §9), so the rare double-execution race (steal from a
  slow-but-alive worker) is harmless: both writers upsert identical
  bytes into the shared store. "Exactly once" is a property of the
  *artefact*, not the execution.

:func:`drain` is the worker loop; :func:`render_monitor` renders live
progress for ``dicer-repro campaign monitor``.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.core.policies import Policy, policy_from_name
from repro.experiments.backends.sqlite import connect_wal
from repro.obs import get_event_log, get_registry
from repro.util.lease import LeaseClock, jittered_interval
from repro.util.tables import format_table

__all__ = [
    "CampaignQueue",
    "QueueSnapshot",
    "QueuedCell",
    "cell_key",
    "drain",
    "policy_from_name",
    "render_monitor",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS cells (
    key           TEXT PRIMARY KEY,
    hp_name       TEXT NOT NULL,
    be_name       TEXT NOT NULL,
    n_be          INTEGER NOT NULL,
    policy        TEXT NOT NULL,
    seq           INTEGER NOT NULL,
    status        TEXT NOT NULL DEFAULT 'pending',
    owner         TEXT,
    lease_expires REAL,
    claims        INTEGER NOT NULL DEFAULT 0,
    steals        INTEGER NOT NULL DEFAULT 0,
    error         TEXT,
    enqueued_ts   REAL,
    claimed_ts    REAL,
    done_ts       REAL
);
CREATE INDEX IF NOT EXISTS cells_status_seq ON cells (status, seq);
"""

#: Process-wide lease clock: wall-clock-valued (cross-process comparable)
#: but monotonically non-decreasing, so a backwards NTP step can neither
#: un-expire a peer's lease nor prematurely expire one we are extending.
LEASE_CLOCK = LeaseClock()


def cell_key(hp_name: str, be_name: str, n_be: int, policy: str) -> str:
    """Content-addressed cell identity (SHA-256 of the canonical JSON)."""
    canonical = json.dumps(
        [hp_name, be_name, n_be, policy], separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class QueuedCell:
    """One queue row."""

    key: str
    hp_name: str
    be_name: str
    n_be: int
    policy: str  #: Policy *name*; rebuild with :func:`policy_from_name`.
    seq: int
    status: str = "pending"
    owner: str | None = None
    claims: int = 0
    steals: int = 0
    error: str | None = None

    def cell(self) -> tuple[str, str, int, Policy]:
        """This row as a store cell."""
        return (
            self.hp_name,
            self.be_name,
            self.n_be,
            policy_from_name(self.policy),
        )


@dataclass(frozen=True)
class QueueSnapshot:
    """Aggregate queue state at one instant (what the monitor renders)."""

    total: int = 0
    pending: int = 0
    claimed: int = 0
    done: int = 0
    failed: int = 0
    steals: int = 0  #: Total expired-lease takeovers so far.
    claims: int = 0  #: Total claim events (>= cells ever claimed).
    #: Per-owner (done, failed, currently-claimed) breakdown.
    owners: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    #: Wall-clock of the earliest claim and the latest completion.
    first_claimed_ts: float | None = None
    last_done_ts: float | None = None

    @property
    def terminal(self) -> bool:
        """Every cell is done or failed — the campaign is over."""
        return self.pending == 0 and self.claimed == 0

    @property
    def throughput(self) -> float | None:
        """Completed cells per second since the first claim, if underway."""
        if not self.done or self.first_claimed_ts is None:
            return None
        last = self.last_done_ts or self.first_claimed_ts
        elapsed = last - self.first_claimed_ts
        if elapsed <= 0:
            return None
        return self.done / elapsed

    @property
    def eta_s(self) -> float | None:
        """Seconds to drain the remaining cells at current throughput."""
        rate = self.throughput
        if rate is None or rate <= 0:
            return None
        return (self.pending + self.claimed) / rate


class CampaignQueue:
    """Lease-based shared work queue over one SQLite database.

    Parameters
    ----------
    path:
        The queue database. Opened per operation (fork-safe, no held
        handles); WAL journaling keeps concurrent workers from blocking
        each other except inside the short claim transactions.
    lease_s:
        Seconds a claim stays exclusive without a heartbeat. Must
        comfortably exceed the slowest single batch a worker drains;
        expiry makes the cell stealable, it never aborts the holder.
    """

    def __init__(self, path: Path | str, *, lease_s: float = 300.0) -> None:
        if lease_s <= 0:
            raise ValueError(f"lease_s must be > 0, got {lease_s}")
        self.path = Path(path)
        self.lease_s = lease_s

    def _connect(self) -> sqlite3.Connection:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        return connect_wal(self.path, _SCHEMA)

    # -- producing -------------------------------------------------------

    def enqueue(self, cells: Iterable) -> int:
        """Idempotently add ``cells`` (store-cell tuples); return #new.

        Sequence numbers extend monotonically from the current maximum in
        first-enqueue order, so every worker enqueueing the same grid in
        the same canonical order yields one identical queue.
        """
        rows = []
        now = LEASE_CLOCK.now()
        for hp_name, be_name, n_be, policy in cells:
            name = getattr(policy, "name", str(policy))
            policy_from_name(name)  # refuse unqueueable policies early
            rows.append(
                (cell_key(hp_name, be_name, n_be, name), hp_name, be_name,
                 n_be, name, now)
            )
        with closing(self._connect()) as conn:
            with conn:
                conn.execute("BEGIN IMMEDIATE")
                base = conn.execute(
                    "SELECT COALESCE(MAX(seq), -1) FROM cells"
                ).fetchone()[0]
                before = conn.execute(
                    "SELECT COUNT(*) FROM cells"
                ).fetchone()[0]
                conn.executemany(
                    "INSERT OR IGNORE INTO cells "
                    "(key, hp_name, be_name, n_be, policy, seq, enqueued_ts) "
                    "VALUES (?, ?, ?, ?, ?, ?, ?)",
                    [
                        (key, hp, be, n_be, name, base + 1 + i, ts)
                        for i, (key, hp, be, n_be, name, ts) in enumerate(rows)
                    ],
                )
                added = conn.execute(
                    "SELECT COUNT(*) FROM cells"
                ).fetchone()[0] - before
        get_registry().counter("queue.enqueued").inc(added)
        log = get_event_log()
        if log.enabled and rows:
            log.emit(
                "queue.enqueue",
                path=str(self.path),
                offered=len(rows),
                added=added,
            )
        return added

    # -- claiming --------------------------------------------------------

    def claim(self, worker_id: str, limit: int = 1) -> list[QueuedCell]:
        """Atomically claim up to ``limit`` runnable cells for ``worker_id``.

        Runnable = pending, or claimed under an expired lease (a steal).
        Claims are taken in ``seq`` order inside one ``BEGIN IMMEDIATE``
        transaction, so two racing workers never claim the same cell.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        now = LEASE_CLOCK.now()
        claimed: list[QueuedCell] = []
        stolen = 0
        with closing(self._connect()) as conn:
            with conn:
                conn.execute("BEGIN IMMEDIATE")
                rows = conn.execute(
                    "SELECT key, hp_name, be_name, n_be, policy, seq, "
                    "       status, claims, steals "
                    "FROM cells WHERE status = 'pending' "
                    "   OR (status = 'claimed' AND lease_expires < ?) "
                    "ORDER BY seq LIMIT ?",
                    (now, limit),
                ).fetchall()
                for (key, hp, be, n_be, name, seq, status, claims,
                     steals) in rows:
                    steal = status == "claimed"
                    stolen += steal
                    conn.execute(
                        "UPDATE cells SET status = 'claimed', owner = ?, "
                        "lease_expires = ?, claims = claims + 1, "
                        "steals = steals + ?, claimed_ts = ?, error = NULL "
                        "WHERE key = ?",
                        (worker_id, now + self.lease_s, int(steal), now, key),
                    )
                    claimed.append(
                        QueuedCell(
                            key=key, hp_name=hp, be_name=be, n_be=n_be,
                            policy=name, seq=seq, status="claimed",
                            owner=worker_id, claims=claims + 1,
                            steals=steals + int(steal),
                        )
                    )
        registry = get_registry()
        registry.counter("queue.claimed").inc(len(claimed))
        if stolen:
            registry.counter("queue.steals").inc(stolen)
        log = get_event_log()
        if log.enabled and claimed:
            log.emit(
                "queue.claim",
                worker=worker_id,
                cells=len(claimed),
                stolen=stolen,
                first_seq=claimed[0].seq,
            )
        return claimed

    def heartbeat(self, worker_id: str, keys: Sequence[str]) -> None:
        """Extend ``worker_id``'s leases on ``keys`` (still-claimed only)."""
        if not keys:
            return
        now = LEASE_CLOCK.now()
        with closing(self._connect()) as conn:
            with conn:
                conn.executemany(
                    "UPDATE cells SET lease_expires = ? "
                    "WHERE key = ? AND owner = ? AND status = 'claimed'",
                    [(now + self.lease_s, key, worker_id) for key in keys],
                )

    # -- resolving -------------------------------------------------------

    def mark_done(self, worker_id: str, keys: Sequence[str]) -> int:
        """Move ``keys`` to ``done``; returns how many rows moved.

        Ownership is *not* required: if the lease was stolen mid-flight
        and the thief finished first, the row is already ``done`` and
        this is a no-op for it (both executions produced identical
        artefacts, see the module doc).
        """
        if not keys:
            return 0
        now = LEASE_CLOCK.now()
        with closing(self._connect()) as conn:
            with conn:
                moved = 0
                for key in keys:
                    moved += conn.execute(
                        "UPDATE cells SET status = 'done', done_ts = ?, "
                        "owner = ?, error = NULL "
                        "WHERE key = ? AND status != 'done'",
                        (now, worker_id, key),
                    ).rowcount
        get_registry().counter("queue.done").inc(moved)
        return moved

    def mark_failed(self, worker_id: str, key: str, error: str) -> None:
        """Move ``key`` to ``failed`` with a diagnostic (unless done)."""
        now = LEASE_CLOCK.now()
        with closing(self._connect()) as conn:
            with conn:
                conn.execute(
                    "UPDATE cells SET status = 'failed', done_ts = ?, "
                    "owner = ?, error = ? WHERE key = ? AND status != 'done'",
                    (now, worker_id, error[:500], key),
                )
        get_registry().counter("queue.failed").inc()
        log = get_event_log()
        if log.enabled:
            log.emit("queue.failed", worker=worker_id, key=key, error=error[:200])

    def release(self, worker_id: str, keys: Sequence[str]) -> None:
        """Return unprocessed claims to ``pending`` (clean worker exit)."""
        if not keys:
            return
        with closing(self._connect()) as conn:
            with conn:
                conn.executemany(
                    "UPDATE cells SET status = 'pending', owner = NULL, "
                    "lease_expires = NULL "
                    "WHERE key = ? AND owner = ? AND status = 'claimed'",
                    [(key, worker_id) for key in keys],
                )

    # -- observing -------------------------------------------------------

    def cells(self) -> list[QueuedCell]:
        """Every queue row in ``seq`` order."""
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT key, hp_name, be_name, n_be, policy, seq, status, "
                "       owner, claims, steals, error "
                "FROM cells ORDER BY seq"
            ).fetchall()
        return [QueuedCell(*row) for row in rows]

    def snapshot(self) -> QueueSnapshot:
        """Aggregate counts for progress reporting."""
        with closing(self._connect()) as conn:
            by_status = dict(
                conn.execute(
                    "SELECT status, COUNT(*) FROM cells GROUP BY status"
                ).fetchall()
            )
            totals = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(steals), 0), "
                "       COALESCE(SUM(claims), 0), MIN(claimed_ts), "
                "       MAX(done_ts) FROM cells"
            ).fetchone()
            owners = {
                owner: (done, failed, claimed)
                for owner, done, failed, claimed in conn.execute(
                    "SELECT owner, "
                    "  SUM(status = 'done'), SUM(status = 'failed'), "
                    "  SUM(status = 'claimed') "
                    "FROM cells WHERE owner IS NOT NULL GROUP BY owner "
                    "ORDER BY owner"
                )
            }
        total, steals, claims, first_claimed, last_done = totals
        return QueueSnapshot(
            total=total,
            pending=by_status.get("pending", 0),
            claimed=by_status.get("claimed", 0),
            done=by_status.get("done", 0),
            failed=by_status.get("failed", 0),
            steals=steals,
            claims=claims,
            owners=owners,
            first_claimed_ts=first_claimed,
            last_done_ts=last_done,
        )


def drain(
    store,
    queue: CampaignQueue,
    worker_id: str,
    *,
    claim_batch: int = 8,
    poll_s: float = 1.0,
    max_polls: int | None = None,
    **run_kwargs,
) -> dict[str, int]:
    """Worker loop: claim → compute through ``store`` → resolve, until dry.

    Each claimed batch runs as one supervised bulk request; every freshly
    computed result heartbeats the batch's leases, the store checkpoints
    before any cell is marked ``done`` (results are durable first, so a
    crash between save and mark costs a recompute, never a lost result),
    and quarantined cells become ``failed`` rows carrying the error.

    When nothing is claimable but other workers still hold live leases,
    the worker naps ``poll_s`` and retries — a dying peer's lease will
    expire and be stolen. ``max_polls`` bounds those naps (for tests);
    ``None`` waits as long as the queue is non-terminal. Returns this
    worker's tally: ``{"done": ..., "failed": ..., "batches": ...,
    "stolen": ...}``.

    Heartbeats are throttled to roughly a third of the lease (so a
    healthy worker refreshes well before expiry without writing the
    queue on *every* result) and jittered deterministically per worker
    id, so a fleet started in lockstep spreads its heartbeat writes
    instead of stampeding the shared database.
    """
    tally = {"done": 0, "failed": 0, "batches": 0, "stolen": 0}
    polls = 0
    beat_every_s = jittered_interval(queue.lease_s / 3.0, worker_id)
    last_beat = time.monotonic()
    while True:
        batch = queue.claim(worker_id, claim_batch)
        if not batch:
            snap = queue.snapshot()
            if snap.terminal:
                break
            polls += 1
            if max_polls is not None and polls > max_polls:
                break
            time.sleep(poll_s)
            continue
        polls = 0
        tally["batches"] += 1
        tally["stolen"] += sum(
            1 for q in batch if q.steals and q.owner == worker_id
        )
        keys = [q.key for q in batch]
        failed_before = len(store.failures)

        def pulse(index, cell, result, _keys=keys):
            nonlocal last_beat
            now_mono = time.monotonic()
            if now_mono - last_beat < beat_every_s:
                return
            last_beat = now_mono
            queue.heartbeat(worker_id, _keys)

        try:
            store.get_many(
                [q.cell() for q in batch], on_result=pulse, **run_kwargs
            )
        except Exception as exc:
            # Abort-mode store: the condemned cell fails, the rest of the
            # claim goes back to pending for other workers, and the error
            # propagates to the caller (completed cells were checkpointed
            # by the store before the raise).
            failure = getattr(exc, "failure", None)
            if failure is not None:
                bad = cell_key(
                    failure.hp_name, failure.be_name, failure.n_be,
                    failure.policy,
                )
                queue.mark_failed(worker_id, bad, str(exc))
                keys = [k for k in keys if k != bad]
            queue.release(worker_id, keys)
            raise
        # Durability before visibility: everything computed in this batch
        # is persisted before the queue admits it is done.
        store.save()
        failed_keys = {
            cell_key(f.hp_name, f.be_name, f.n_be, f.policy): f
            for f in store.failures[failed_before:]
        }
        done_keys = []
        for q in batch:
            failure = failed_keys.get(q.key)
            if failure is not None:
                last = failure.last_error
                queue.mark_failed(
                    worker_id,
                    q.key,
                    f"{last.error_type}: {last.message}" if last else "failed",
                )
                tally["failed"] += 1
            else:
                done_keys.append(q.key)
        tally["done"] += queue.mark_done(worker_id, done_keys)
    log = get_event_log()
    if log.enabled:
        log.emit("queue.drained", worker=worker_id, **tally)
    return tally


def _fmt_duration(seconds: float) -> str:
    seconds = int(round(seconds))
    if seconds < 60:
        return f"{seconds}s"
    if seconds < 3600:
        return f"{seconds // 60}m{seconds % 60:02d}s"
    return f"{seconds // 3600}h{(seconds % 3600) // 60:02d}m"


def render_monitor(snapshot: QueueSnapshot, *, path: str = "") -> str:
    """Render one queue snapshot as the ``campaign monitor`` report."""
    pct = 100.0 * snapshot.done / snapshot.total if snapshot.total else 0.0
    rows = [
        ["cells", snapshot.total],
        ["pending", snapshot.pending],
        ["claimed", snapshot.claimed],
        ["done", f"{snapshot.done} ({pct:.1f}%)"],
        ["failed", snapshot.failed],
        ["claims", snapshot.claims],
        ["steals", snapshot.steals],
        [
            "throughput",
            f"{snapshot.throughput:.2f} cells/s"
            if snapshot.throughput
            else "-",
        ],
        [
            "eta",
            "drained"
            if snapshot.terminal
            else (
                _fmt_duration(snapshot.eta_s)
                if snapshot.eta_s is not None
                else "-"
            ),
        ],
    ]
    title = "Campaign queue" + (f": {path}" if path else "")
    out = format_table(["metric", "value"], rows, title=title)
    if snapshot.owners:
        out += "\n\n" + format_table(
            ["worker", "done", "failed", "claimed"],
            [
                [owner, done, failed, claimed]
                for owner, (done, failed, claimed) in snapshot.owners.items()
            ],
            title="Workers",
        )
    return out
