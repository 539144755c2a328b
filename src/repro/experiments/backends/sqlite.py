"""SQLite store backend: WAL mode, row-level upserts, concurrent writers.

Where :class:`~repro.experiments.backends.filejson.FileBackend` rewrites
one whole JSON artefact per checkpoint, this backend keeps one row per
result in an SQLite database and checkpoints by *upserting only the rows
that changed* — a mid-grid checkpoint of a 3481-pair campaign writes a
handful of rows, not megabytes. WAL journaling plus SQLite's own
transaction locking make the artefact safe for many cooperating writer
processes (the campaign-queue workers of DESIGN.md §11), each committing
its freshly computed cells into the shared database as it drains the
queue.

Layout::

    results(hp_name, be_name, n_be, policy, precision, row)
        -- row is the canonical JSON of the persisted PairResult dict;
        -- (hp_name, be_name, n_be, policy) is the primary key;
        -- precision stamps the solver mode per row (DESIGN.md §10)
    meta(key, value)   -- format version + store-level precision stamp

Rows round-trip through JSON text, so a result read back from SQLite is
*value-identical* to one read from the JSON file backend — int stays
int, float stays float — which is what lets ``StoreBackend.digest()``
compare artefacts across engines byte-for-byte.

Corruption semantics mirror the file backend: a database that fails to
open or fails ``PRAGMA integrity_check`` is quarantined to
``<path>.corrupt-<digest>`` and every structurally readable row is
salvaged; a file that is not SQLite at all is quarantined with nothing
salvageable. Load never raises on corruption.
"""

from __future__ import annotations

import json
import logging
import sqlite3
import time
from contextlib import closing

from repro.experiments.backends.base import (
    CACHE_VERSION,
    LoadedRows,
    StoreBackend,
)

__all__ = ["SqliteBackend", "connect_wal"]

_log = logging.getLogger(__name__)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    hp_name   TEXT    NOT NULL,
    be_name   TEXT    NOT NULL,
    n_be      INTEGER NOT NULL,
    policy    TEXT    NOT NULL,
    precision TEXT    NOT NULL,
    row       TEXT    NOT NULL,
    PRIMARY KEY (hp_name, be_name, n_be, policy)
);
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: Seconds a writer waits on a locked database before giving up.
_BUSY_TIMEOUT_S = 30.0


def connect_wal(path, script: str | None = None) -> sqlite3.Connection:
    """Open ``path`` in WAL mode with ``synchronous=NORMAL``.

    The one open of the result store's SQLite engine and the campaign
    queue: a 30 s busy timeout, then ``script`` (a schema) if given. A
    failing pragma or script closes the connection before re-raising.
    """
    conn = sqlite3.connect(path, timeout=_BUSY_TIMEOUT_S)
    try:
        _enter_wal(conn)
        conn.execute("PRAGMA synchronous=NORMAL")
        if script is not None:
            conn.executescript(script)
    except sqlite3.Error:
        conn.close()
        raise
    return conn


def _enter_wal(conn: sqlite3.Connection) -> None:
    """Switch ``conn``'s database to WAL, waiting out other writers.

    On a rollback-journal database the switch fails at once with
    ``database is locked`` while another connection holds a write lock:
    SQLite never consults the busy handler for it. Retry it, backing off,
    until the busy timeout elapses. Once the file is in WAL mode the
    pragma succeeds under a held lock, so only a fresh database waits.
    """
    deadline = time.monotonic() + _BUSY_TIMEOUT_S
    pause = 0.001
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as exc:
            if "locked" not in str(exc) or time.monotonic() >= deadline:
                raise
        time.sleep(pause)
        pause = min(pause * 2, 0.05)


#: A row's canonical JSON (sorted keys, no whitespace): the same bytes as
#: ``json.dumps(row, sort_keys=True, separators=(",", ":"))`` without
#: building an encoder per row.
_row_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class SqliteBackend(StoreBackend):
    """One SQLite database per store; safe for concurrent writers."""

    kind = "sqlite"

    # Connections are opened per operation and closed before returning:
    # no long-lived handle to leak across fork() into campaign workers,
    # and every save is one self-contained transaction.

    def _connect(self) -> sqlite3.Connection:
        return connect_wal(self.path)

    def exists(self) -> bool:
        """The artefact exists once it holds any schema at all."""
        return self.path.exists()

    # -- persistence -----------------------------------------------------

    def save(
        self,
        rows: list[dict],
        precision: str,
        *,
        dirty: list[dict] | None = None,
    ) -> None:
        """Upsert ``dirty`` (or, without the hint, every row) in one
        transaction.

        The incremental path relies on SQLite itself being the durable
        union of every previous commit: rows already on disk need no
        rewrite, so a checkpoint costs O(new results) instead of
        O(campaign). Concurrent savers interleave safely — upserts are
        keyed by cell and every writer computes identical values for
        identical cells (determinism is load-bearing, DESIGN.md §9).
        """
        self._upsert(rows if dirty is None else dirty, precision)

    def checkpoint(self, keys, dirty, build_row, precision) -> int:
        """Upsert the dirty keys' rows; clean rows are never built."""
        rows = [build_row(key) for key in dirty]
        self._upsert(rows, precision)
        return len(rows)

    def _upsert(self, to_write: list[dict], precision: str) -> None:
        """Stamp the artefact and upsert ``to_write`` in one transaction."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with closing(self._connect()) as conn:
            with conn:  # one transaction: schema + meta + upserts
                conn.executescript(_SCHEMA)
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES ('version', ?)",
                    (str(CACHE_VERSION),),
                )
                conn.execute(
                    "INSERT OR REPLACE INTO meta VALUES ('precision', ?)",
                    (precision,),
                )
                conn.executemany(
                    "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?, ?)",
                    [
                        (
                            row["hp_name"],
                            row["be_name"],
                            row["n_be"],
                            row["policy"],
                            precision,
                            _row_json(row),
                        )
                        for row in to_write
                    ],
                )

    # -- loading ---------------------------------------------------------

    def _read_all(self, conn: sqlite3.Connection) -> tuple[list[dict], str | None]:
        """(rows in insertion order, precision stamp) from a healthy db.

        A database that passes integrity but has never been saved to
        (no schema yet) reads as empty rather than corrupt.
        """
        try:
            rows = [
                json.loads(row_json)
                for (row_json,) in conn.execute(
                    "SELECT row FROM results ORDER BY rowid"
                )
            ]
            stamp = conn.execute(
                "SELECT value FROM meta WHERE key = 'precision'"
            ).fetchone()
        except sqlite3.OperationalError as exc:
            if "no such table" in str(exc):
                return [], None
            raise
        return rows, stamp[0] if stamp else None

    @staticmethod
    def _salvage_read(conn: sqlite3.Connection) -> tuple[list[dict], str | None]:
        """Row-by-row best-effort read from a damaged database.

        Fetches one row at a time so everything stored on pages *before*
        the damage is recovered — the cursor dies at the first bad page
        (the SQLite analogue of the file backend's truncation salvage).
        """
        rows: list[dict] = []
        try:
            cursor = conn.execute("SELECT row FROM results ORDER BY rowid")
            while True:
                try:
                    fetched = cursor.fetchone()
                except sqlite3.Error:
                    break
                if fetched is None:
                    break
                try:
                    rows.append(json.loads(fetched[0]))
                except ValueError:
                    continue
        except sqlite3.Error:
            pass
        stamp = None
        try:
            found = conn.execute(
                "SELECT value FROM meta WHERE key = 'precision'"
            ).fetchone()
            stamp = found[0] if found else None
        except sqlite3.Error:
            pass
        return rows, stamp

    def _integrity_ok(self, conn: sqlite3.Connection) -> str | None:
        """``None`` when ``PRAGMA integrity_check`` passes, else the fault."""
        verdict = conn.execute("PRAGMA integrity_check").fetchone()
        if verdict and verdict[0] == "ok":
            return None
        return str(verdict[0]) if verdict else "integrity_check returned nothing"

    def _quarantine_db(self, reason: str, rows: list[dict]) -> None:
        """Move the damaged database (and its WAL sidecars) aside."""
        try:
            raw = self.path.read_bytes()
        except OSError:  # pragma: no cover - vanished mid-quarantine
            raw = reason.encode("utf-8")
        moved = self._quarantine(raw)
        for sidecar in ("-wal", "-shm"):
            side = self.path.with_name(self.path.name + sidecar)
            if side.exists():
                try:
                    side.unlink()
                except OSError:  # pragma: no cover
                    pass
        self._emit_corrupt(reason, moved, len(rows))

    def load(self) -> LoadedRows:
        try:
            # Plain connection: the WAL pragma writes to the header, which
            # a damaged database may reject before salvage gets a chance.
            with closing(
                sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT_S)
            ) as conn:
                try:
                    fault = self._integrity_ok(conn)
                except sqlite3.Error as exc:
                    fault = f"malformed ({exc})"
                if fault is None:
                    rows, stamp = self._read_all(conn)
                    return LoadedRows(
                        rows=rows,
                        # A populated pre-stamp db reads as exact, like
                        # the file backend's legacy layout; an empty db
                        # carries no stamp to check.
                        precision=stamp if stamp else ("exact" if rows else None),
                    )
                # Integrity failure: salvage whatever still SELECTs.
                rows, stamp = self._salvage_read(conn)
        except sqlite3.Error as exc:
            # Not a database / unopenable: nothing to salvage.
            fault = f"unopenable ({exc})"
            rows, stamp = [], None
        except OSError:
            _log.warning(
                "result cache %s is unreadable (I/O error); all results "
                "will be recomputed",
                self.path,
            )
            return LoadedRows(precision=None, corrupt_files=1)
        self._quarantine_db(fault, rows)
        return LoadedRows(
            rows=rows,
            precision=stamp if stamp else "exact",
            salvaged=True,
            corrupt_files=1,
        )
