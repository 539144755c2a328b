"""Cross-backend conformance for the pluggable store engines.

Every test in :class:`TestBackendConformance` runs against both engines:
the contract (round trip, resume, checkpointing, precision refusal,
corrupt-quarantine) belongs to :class:`StoreBackend`, not to any one
implementation. Engine-specific behaviour (byte-identical JSON
artefacts, per-pid temp files, WAL/upsert mechanics) gets its own
classes below.
"""

import json
import logging
import os
import sqlite3
import threading
from contextlib import closing

import pytest

from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
from repro.experiments.backends import (
    BACKENDS,
    FileBackend,
    SqliteBackend,
    open_backend,
)
from repro.experiments.backends.sqlite import connect_wal
from repro.experiments.queue import CampaignQueue
from repro.experiments.store import ResultStore
from repro.experiments.supervise import SuperviseConfig

CELLS = [
    ("milc1", "gcc_base6", 3, UnmanagedPolicy()),
    ("milc1", "gcc_base6", 3, CacheTakeoverPolicy()),
    ("omnetpp1", "gcc_base6", 3, UnmanagedPolicy()),
    ("omnetpp1", "gcc_base6", 3, CacheTakeoverPolicy()),
]

_SUFFIX = {"file": "cache.json", "sqlite": "cache.db"}


def _cache(tmp_path, kind):
    return tmp_path / _SUFFIX[kind]


@pytest.fixture(params=sorted(BACKENDS))
def kind(request):
    return request.param


class TestBackendConformance:
    def test_round_trip(self, tmp_path, kind):
        path = _cache(tmp_path, kind)
        store = ResultStore(cache_path=path, backend=kind)
        result = store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.save()
        assert path.exists()
        reloaded = ResultStore(cache_path=path, backend=kind)
        assert len(reloaded) == 1
        cached = reloaded.get("milc1", "gcc_base6", UnmanagedPolicy())
        assert cached.hp_norm_ipc == result.hp_norm_ipc
        assert cached.efu == result.efu

    def test_resume_recomputes_nothing(self, tmp_path, kind):
        path = _cache(tmp_path, kind)
        first = ResultStore(cache_path=path, backend=kind)
        first.get_many(CELLS)
        first.save()
        resumed = ResultStore(cache_path=path, backend=kind)
        assert resumed.stats()["loaded"] == len(CELLS)
        resumed.get_many(CELLS)
        assert resumed.stats()["recomputed"] == 0

    def test_checkpoints_mid_grid_without_save(self, tmp_path, kind):
        path = _cache(tmp_path, kind)
        store = ResultStore(
            cache_path=path,
            backend=kind,
            checkpoint_every=1,
            min_checkpoint_interval_s=0.0,
        )
        store.get_many(CELLS[:2])
        # The bulk call itself persisted; no explicit save() happened.
        assert path.exists()
        resumed = ResultStore(cache_path=path, backend=kind)
        assert resumed.stats()["loaded"] == 2
        resumed.get_many(CELLS)
        assert resumed.stats()["recomputed"] == len(CELLS) - 2

    def test_single_mode_precision_refusal(self, tmp_path, kind):
        path = _cache(tmp_path, kind)
        store = ResultStore(cache_path=path, backend=kind, precision="fast")
        store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.save()
        with pytest.raises(ValueError, match="precision"):
            ResultStore(cache_path=path, backend=kind, precision="exact")

    def test_garbage_artefact_quarantined_not_trusted(
        self, tmp_path, kind, caplog
    ):
        path = _cache(tmp_path, kind)
        path.write_bytes(b"\x00garbage, neither json nor sqlite\xff" * 8)
        with caplog.at_level(logging.WARNING):
            store = ResultStore(cache_path=path, backend=kind)
        assert len(store) == 0
        assert store.stats()["corrupt_files"] == 1
        quarantined = list(tmp_path.glob(path.name + ".corrupt-*"))
        assert len(quarantined) == 1
        assert any("unreadable" in r.getMessage() for r in caplog.records)
        # The store stays usable: recompute and persist over the slot.
        store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.save()
        assert ResultStore(
            cache_path=path, backend=kind
        ).stats()["loaded"] == 1

    def test_damaged_artefact_salvages_intact_rows(self, tmp_path, kind):
        path = _cache(tmp_path, kind)
        store = ResultStore(cache_path=path, backend=kind)
        store.get_many(CELLS)
        store.save()
        if kind == "file":
            raw = path.read_text()
            path.write_text(raw[: int(len(raw) * 0.8)])  # torn write
        else:
            # Zero the final page: integrity fails, earlier pages (and
            # the precision stamp) stay readable for salvage.
            with open(path, "r+b") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                fh.seek(max(0, size - 4096))
                fh.write(b"\x00" * min(4096, size))
        reloaded = ResultStore(cache_path=path, backend=kind)
        stats = reloaded.stats()
        assert stats["corrupt_files"] == 1
        assert stats["salvaged"] == stats["loaded"]
        assert list(tmp_path.glob(path.name + ".corrupt-*"))

    def test_digest_is_backend_independent(self, tmp_path):
        stores = {
            kind: ResultStore(
                cache_path=_cache(tmp_path, kind), backend=kind
            )
            for kind in sorted(BACKENDS)
        }
        digests = set()
        for store in stores.values():
            store.get_many(CELLS)
            store.save()
            digests.add(store.backend.digest())
        assert len(digests) == 1

    def test_explicit_backend_beats_auto_detection(self, tmp_path, kind):
        # A mismatched suffix must not override an explicit choice.
        path = tmp_path / "oddly.named"
        store = ResultStore(cache_path=path, backend=kind)
        assert store.backend.kind == kind


class TestOpenBackend:
    def test_suffix_selects_sqlite(self, tmp_path):
        for name in ("a.db", "a.sqlite", "a.sqlite3", "A.DB"):
            assert isinstance(
                open_backend(tmp_path / name), SqliteBackend
            )

    def test_default_is_file(self, tmp_path):
        assert isinstance(open_backend(tmp_path / "a.json"), FileBackend)
        assert isinstance(open_backend(tmp_path / "bare"), FileBackend)

    def test_magic_sniff_on_existing_file(self, tmp_path):
        path = tmp_path / "cache.json"  # lying suffix
        sqlite3.connect(path).executescript(
            "CREATE TABLE t (x); INSERT INTO t VALUES (1);"
        )
        assert isinstance(open_backend(path), SqliteBackend)

    def test_unknown_backend_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown store backend"):
            open_backend(tmp_path / "x", "parquet")

    def test_instance_passes_through(self, tmp_path):
        backend = FileBackend(tmp_path / "x.json")
        assert open_backend(tmp_path / "x.json", backend) is backend


class TestFileBackendArtefact:
    """The JSON engine keeps the exact historical on-disk format."""

    def test_artefact_bytes_match_historical_format(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path)
        store.get_many(CELLS[:2])
        store.save()
        payload = json.loads(path.read_text())
        # Exact key order and content of the v2 payload.
        assert list(payload) == [
            "version", "precision", "n_rows", "sha256", "rows",
        ]
        assert path.read_text() == json.dumps(payload)

    def test_tmp_files_are_per_artefact_and_per_pid(self, tmp_path):
        """Regression: ``with_suffix(".tmp")`` collapsed sibling caches
        like ``grid.json`` and ``grid.jsonl`` onto one ``grid.tmp``."""
        a = FileBackend(tmp_path / "grid.json")._tmp_path()
        b = FileBackend(tmp_path / "grid.jsonl")._tmp_path()
        assert a != b
        assert a.name == f"grid.json.tmp.{os.getpid()}"

    def test_stale_temps_swept_live_ones_kept(self, tmp_path):
        path = tmp_path / "cache.json"
        backend = FileBackend(path)
        dead = tmp_path / "cache.json.tmp.999999999"
        dead.write_text("abandoned by a dead process")
        alive = tmp_path / f"cache.json.tmp.{os.getpid()}"
        alive.write_text("a concurrent writer mid-save")
        unrelated = tmp_path / "cache.json.tmp.notapid"
        unrelated.write_text("not ours to judge")
        backend.save([], "exact")
        assert not dead.exists()
        assert unrelated.exists()
        # Our own pid's temp was consumed by this save's rename cycle.
        assert json.loads(path.read_text())["n_rows"] == 0

    @pytest.mark.parametrize("stage", ["write", "fsync"])
    def test_failed_save_leaves_no_temp_and_keeps_the_old(
        self, tmp_path, monkeypatch, stage
    ):
        path = tmp_path / "cache.json"
        backend = FileBackend(path)
        backend.save([], "exact")
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError(f"injected {stage} failure")

        if stage == "fsync":
            monkeypatch.setattr(os, "fsync", boom)
        else:
            real_open = open

            def failing_open(file, mode="r", *args, **kwargs):
                fh = real_open(file, mode, *args, **kwargs)
                if "w" in mode:
                    fh.write = boom
                return fh

            monkeypatch.setattr("builtins.open", failing_open)
        rows = [{"hp_name": "a", "be_name": "b", "n_be": 1, "policy": "UM"}]
        with pytest.raises(OSError):
            backend.save(rows, "exact")
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]
        assert path.read_bytes() == before


class TestSqliteBackendMechanics:
    def test_wal_mode_and_per_row_precision_stamp(self, tmp_path):
        path = tmp_path / "cache.db"
        store = ResultStore(cache_path=path, precision="fast")
        store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.save()
        with sqlite3.connect(path) as conn:
            assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "wal"
            rows = conn.execute(
                "SELECT hp_name, precision FROM results"
            ).fetchall()
        assert rows == [("milc1", "fast")]

    def test_incremental_save_writes_only_dirty_rows(self, tmp_path):
        path = tmp_path / "cache.db"
        backend = SqliteBackend(path)
        all_rows = [
            {"hp_name": "a", "be_name": "b", "n_be": 1, "policy": "UM"},
            {"hp_name": "c", "be_name": "d", "n_be": 1, "policy": "UM"},
        ]
        backend.save(all_rows, "exact")
        # Second save pretends only one row changed; disk must still hold
        # the union afterwards.
        updated = dict(all_rows[0], n_be=1)
        backend.save([updated] + all_rows[1:], "exact", dirty=[updated])
        assert len(backend.load().rows) == 2

    def test_two_writers_interleave_without_loss(self, tmp_path):
        path = tmp_path / "cache.db"
        a, b = SqliteBackend(path), SqliteBackend(path)
        row_a = {"hp_name": "a", "be_name": "x", "n_be": 1, "policy": "UM"}
        row_b = {"hp_name": "b", "be_name": "x", "n_be": 1, "policy": "UM"}
        a.save([row_a], "exact", dirty=[row_a])
        b.save([row_b], "exact", dirty=[row_b])
        loaded = a.load()
        assert {r["hp_name"] for r in loaded.rows} == {"a", "b"}
        assert loaded.precision == "exact"

    def test_explicitly_saved_empty_store_keeps_its_stamp(self, tmp_path):
        # Parity with the file backend: even a row-less save stamps the
        # artefact's mode, and the other mode refuses it.
        path = tmp_path / "cache.db"
        SqliteBackend(path).save([], "fast")
        with pytest.raises(ValueError, match="precision"):
            ResultStore(cache_path=path, precision="exact")

    def test_schemaless_database_file_loads_as_unstamped(self, tmp_path):
        path = tmp_path / "cache.db"
        path.touch()  # zero bytes: a valid, never-saved SQLite database
        for precision in ("exact", "fast"):
            assert len(
                ResultStore(cache_path=path, precision=precision)
            ) == 0


class TestStoreBugfixes:
    """Regression tests for the store-layer fixes shipped with the
    backend split."""

    def test_salvaged_precision_drop_reports_true_count(
        self, tmp_path, caplog
    ):
        """A corrupt fast-mode cache loaded by an exact store used to
        log "ignored N of 0 rows (schema drift)" — wrong count, wrong
        reason."""
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, precision="fast")
        store.get_many(CELLS[:2])
        store.save()
        payload = json.loads(path.read_text())
        payload["sha256"] = "0" * 64  # silent bit-rot: salvage keeps rows
        path.write_text(json.dumps(payload))
        with caplog.at_level(logging.WARNING):
            exact = ResultStore(cache_path=path, precision="exact")
        assert len(exact) == 0
        stats = exact.stats()
        assert stats["dropped"] == 2
        assert stats["corrupt_files"] == 1
        messages = [r.getMessage() for r in caplog.records]
        assert any(
            "dropping all 2 salvaged row(s)" in m
            and "precision='fast'" in m
            for m in messages
        )
        assert not any("schema drift" in m for m in messages)

    def test_salvaged_matching_precision_rows_survive(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, precision="fast")
        store.get_many(CELLS[:2])
        store.save()
        payload = json.loads(path.read_text())
        payload["sha256"] = "0" * 64
        path.write_text(json.dumps(payload))
        again = ResultStore(cache_path=path, precision="fast")
        assert again.stats()["salvaged"] == 2
        assert again.stats()["dropped"] == 0

    def test_truncated_fast_cache_cannot_leak_into_exact_store(
        self, tmp_path
    ):
        """Even when the payload is too broken to parse, the textually
        recovered precision stamp keeps fast salvage out of an exact
        store."""
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, precision="fast")
        store.get_many(CELLS[:2])
        store.save()
        path.write_text(path.read_text()[:-3])  # JSON no longer parses
        exact = ResultStore(cache_path=path, precision="exact")
        assert len(exact) == 0
        assert exact.stats()["dropped"] >= 1

    def test_duplicate_failing_cells_leave_holes(
        self, monkeypatch
    ):
        """A failing cell requested three times is quarantined once and
        leaves a ``None`` placeholder at each of its positions."""
        from repro.experiments.chaos import CHAOS_ENV_VAR, chaos_env

        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={1: "raise"}, persistent=[1])
        )
        store = ResultStore(
            supervise=SuperviseConfig(
                max_retries=0, backoff_base_s=0.0, on_failure="skip"
            )
        )
        results = store.get_many([CELLS[0], CELLS[0], CELLS[0], CELLS[1]])
        assert results[:3] == [None, None, None]
        assert results[3] is not None
        assert len(store.failures) == 1
        assert (store.stats()["recomputed"], store.stats()["served"]) == (1, 2)

    def test_duplicates_of_a_computed_cell_run_once(self):
        store = ResultStore()
        results = store.get_many([CELLS[0], CELLS[0], CELLS[1]])
        assert results[0] is results[1]
        assert (store.stats()["recomputed"], store.stats()["served"]) == (2, 1)


class TestConnectWalUnderAHeldLock:
    """A fresh database switches to WAL while another connection writes.

    SQLite fails the switch at once, without its busy handler, while a
    write lock is held on a rollback-journal file; ``connect_wal`` waits
    for the lock instead. The holder takes the lock before the open and
    a timer thread releases it.
    """

    @staticmethod
    def _hold_write_lock(path, seconds: float) -> threading.Timer:
        holder = sqlite3.connect(
            path, isolation_level=None, check_same_thread=False
        )
        holder.execute("BEGIN IMMEDIATE")

        def release():
            holder.rollback()
            holder.close()

        timer = threading.Timer(seconds, release)
        timer.start()
        return timer

    def test_connect_wal_waits_for_the_lock(self, tmp_path):
        path = tmp_path / "fresh.db"
        timer = self._hold_write_lock(path, 0.3)
        try:
            conn = connect_wal(path, "CREATE TABLE t (x INTEGER);")
        finally:
            timer.join(timeout=10)
        assert not timer.is_alive()
        with closing(conn):
            mode = conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_campaign_queue_opens_under_the_lock(self, tmp_path):
        path = tmp_path / "queue.db"
        timer = self._hold_write_lock(path, 0.3)
        try:
            added = CampaignQueue(path).enqueue(
                [("omnetpp1", "lbm1", 1, UnmanagedPolicy())]
            )
        finally:
            timer.join(timeout=10)
        assert not timer.is_alive()
        assert added == 1
        assert CampaignQueue(path).snapshot().pending == 1
