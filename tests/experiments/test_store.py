"""Tests for the memoising result store."""

import hashlib
import json
import logging
import sqlite3
from dataclasses import asdict

import pytest

from repro import obs
from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    UnmanagedPolicy,
)
from repro.experiments.backends import CACHE_VERSION, FileBackend, rows_digest
from repro.experiments.chaos import CHAOS_ENV_VAR, chaos_env
from repro.experiments.store import _PERSISTED_FIELDS, ResultStore
from repro.experiments.supervise import CampaignError, SuperviseConfig


class TestMemoisation:
    def test_same_key_returns_cached(self):
        store = ResultStore()
        a = store.get("milc1", "gcc_base6", UnmanagedPolicy())
        b = store.get("milc1", "gcc_base6", UnmanagedPolicy())
        assert a is b
        assert len(store) == 1

    def test_distinct_policies_distinct_entries(self):
        store = ResultStore()
        store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.get("milc1", "gcc_base6", CacheTakeoverPolicy())
        assert len(store) == 2

    def test_distinct_sizes_distinct_entries(self):
        store = ResultStore()
        store.get("milc1", "gcc_base6", UnmanagedPolicy(), n_be=3)
        store.get("milc1", "gcc_base6", UnmanagedPolicy(), n_be=9)
        assert len(store) == 2


class TestPersistence:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path)
        result = store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.save()
        assert path.exists()

        reloaded = ResultStore(cache_path=path)
        assert len(reloaded) == 1
        cached = reloaded.get("milc1", "gcc_base6", UnmanagedPolicy())
        assert cached.hp_norm_ipc == result.hp_norm_ipc

    def test_save_without_path_is_noop(self):
        store = ResultStore()
        store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.save()  # must not raise

    def test_corrupt_cache_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        store = ResultStore(cache_path=path)
        assert len(store) == 0

    def test_schema_drift_recomputes(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps([{"unknown_field": 1}]))
        store = ResultStore(cache_path=path)
        assert len(store) == 0

    def test_schema_drift_warns_with_count(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text(
            json.dumps([{"unknown_field": 1}, {"another": 2}])
        )
        with caplog.at_level(logging.WARNING, "repro.experiments.store"):
            store = ResultStore(cache_path=path)
        assert store.stats()["dropped"] == 2
        assert any(
            "ignored 2 of 2 rows" in record.getMessage()
            for record in caplog.records
        )

    def test_corrupt_cache_warns(self, tmp_path, caplog):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        with caplog.at_level(logging.WARNING, "repro.experiments.store"):
            ResultStore(cache_path=path)
        assert any("unreadable" in r.getMessage() for r in caplog.records)


class TestStats:
    def test_counts_computed_and_served(self):
        store = ResultStore()
        store.get("milc1", "gcc_base6", UnmanagedPolicy())
        store.get("milc1", "gcc_base6", UnmanagedPolicy())
        stats = store.stats()
        assert stats["cached"] == 1
        assert stats["recomputed"] == 1
        assert stats["served"] == 1
        assert stats["loaded"] == 0
        assert stats["dropped"] == 0

    def test_counts_loaded_rows(self, tmp_path):
        path = tmp_path / "cache.json"
        first = ResultStore(cache_path=path)
        first.get("milc1", "gcc_base6", UnmanagedPolicy())
        first.save()
        reloaded = ResultStore(cache_path=path)
        assert reloaded.stats()["loaded"] == 1
        reloaded.get("milc1", "gcc_base6", UnmanagedPolicy())
        assert reloaded.stats()["recomputed"] == 0


class TestBulkAndResume:
    CELLS = [
        ("milc1", "gcc_base6", 3, UnmanagedPolicy()),
        ("milc1", "gcc_base6", 3, CacheTakeoverPolicy()),
        ("omnetpp1", "gcc_base6", 3, UnmanagedPolicy()),
        ("omnetpp1", "gcc_base6", 3, CacheTakeoverPolicy()),
    ]

    def test_get_many_partitions_cached_vs_pending(self):
        store = ResultStore()
        first = store.get_many(self.CELLS[:2])
        assert (store.stats()["recomputed"], store.stats()["served"]) == (2, 0)
        second = store.get_many(self.CELLS)
        assert (store.stats()["recomputed"], store.stats()["served"]) == (4, 2)
        assert second[:2] == first

    def test_get_many_then_get_is_cached(self):
        store = ResultStore()
        results = store.get_many(self.CELLS)
        hp, be, n_be, policy = self.CELLS[0]
        assert store.get(hp, be, policy, n_be=n_be) is results[0]

    def test_campaign_checkpoints_and_resumes(self, tmp_path):
        """A mid-grid restart recomputes only what never ran."""
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, checkpoint_every=1)
        store.get_many(self.CELLS[:2])
        # Checkpointing happened during the bulk call, without save().
        assert path.exists()

        resumed = ResultStore(cache_path=path)
        assert resumed.stats()["loaded"] == 2
        resumed.get_many(self.CELLS)
        stats = resumed.stats()
        assert stats["recomputed"] == 2  # only the two missing cells
        assert stats["served"] == 2

    def test_resumed_results_match_fresh_ones(self, tmp_path):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path)
        fresh = store.get_many(self.CELLS)
        store.save()
        resumed = ResultStore(cache_path=path).get_many(self.CELLS)
        for a, b in zip(fresh, resumed):
            assert a.hp_slowdown == b.hp_slowdown
            assert a.efu == b.efu


def _populated_cache(tmp_path, cells):
    """Save ``cells`` through a store and return the cache path."""
    path = tmp_path / "cache.json"
    store = ResultStore(cache_path=path)
    store.get_many(cells)
    store.save()
    return path


class TestCrashSafety:
    """The integrity-checked on-disk format (DESIGN.md §9)."""

    CELLS = TestBulkAndResume.CELLS

    def test_payload_carries_verifiable_integrity_footer(self, tmp_path):
        path = _populated_cache(tmp_path, self.CELLS[:3])
        payload = json.loads(path.read_text())
        assert payload["version"] == 2
        assert payload["n_rows"] == len(payload["rows"]) == 3
        canonical = json.dumps(
            payload["rows"], sort_keys=True, separators=(",", ":")
        )
        assert payload["sha256"] == hashlib.sha256(
            canonical.encode()
        ).hexdigest()

    def test_legacy_bare_list_cache_still_loads(self, tmp_path):
        path = _populated_cache(tmp_path, self.CELLS[:2])
        rows = json.loads(path.read_text())["rows"]
        path.write_text(json.dumps(rows))  # rewrite as the v1 layout
        store = ResultStore(cache_path=path)
        assert store.stats()["loaded"] == 2
        assert store.stats()["corrupt_files"] == 0

    def test_truncated_cache_quarantined_and_salvaged(self, tmp_path):
        path = _populated_cache(tmp_path, self.CELLS)
        raw = path.read_text()
        # Tear the write mid-way through the last row.
        path.write_text(raw[: int(len(raw) * 0.8)])
        store = ResultStore(cache_path=path)
        stats = store.stats()
        assert stats["corrupt_files"] == 1
        assert 1 <= stats["salvaged"] < len(self.CELLS)
        assert stats["salvaged"] == stats["loaded"]
        assert stats["dropped"] == 0
        # The damaged file was set aside as evidence, not deleted.
        quarantined = list(tmp_path.glob("cache.json.corrupt-*"))
        assert len(quarantined) == 1

    def test_checksum_mismatch_detected(self, tmp_path):
        path = _populated_cache(tmp_path, self.CELLS[:2])
        payload = json.loads(path.read_text())
        payload["rows"][0]["efu"] = 0.123456  # silent bit-rot
        path.write_text(json.dumps(payload))
        store = ResultStore(cache_path=path)
        assert store.stats()["corrupt_files"] == 1
        assert list(tmp_path.glob("cache.json.corrupt-*"))
        # Salvage still recovers structurally-intact rows.
        assert store.stats()["salvaged"] == 2

    def test_row_count_mismatch_detected(self, tmp_path):
        path = _populated_cache(tmp_path, self.CELLS[:2])
        payload = json.loads(path.read_text())
        payload["n_rows"] = 99
        path.write_text(json.dumps(payload))
        assert ResultStore(cache_path=path).stats()["corrupt_files"] == 1

    def test_unparseable_cache_counts_as_file_corruption_not_rows(
        self, tmp_path
    ):
        path = tmp_path / "cache.json"
        path.write_text("{not json")
        stats = ResultStore(cache_path=path).stats()
        assert stats["corrupt_files"] == 1
        assert stats["dropped"] == 0  # row drops are schema drift only

    def test_schema_drift_still_counts_rows_not_files(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text(json.dumps([{"unknown_field": 1}]))
        stats = ResultStore(cache_path=path).stats()
        assert stats["dropped"] == 1
        assert stats["corrupt_files"] == 0

    def test_unreadable_cache_file_counts_as_corrupt(self, tmp_path):
        path = tmp_path / "cache.json"
        path.mkdir()  # read_text() raises an OSError
        stats = ResultStore(cache_path=path).stats()
        assert stats["corrupt_files"] == 1
        assert stats["loaded"] == 0


class TestSupervisedFailures:
    CELLS = TestBulkAndResume.CELLS

    def test_exception_mid_campaign_flushes_checkpoint(
        self, tmp_path, monkeypatch
    ):
        """Kill cell 3 of 4: cells 1-2 must survive on disk."""
        path = tmp_path / "cache.json"
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={3: "raise"}, persistent=[3])
        )
        # checkpoint_every is deliberately larger than the batch: only
        # the flush-on-failure path may write the cache.
        store = ResultStore(cache_path=path, checkpoint_every=99)
        with pytest.raises(CampaignError):
            store.get_many(self.CELLS)
        assert path.exists()
        resumed = ResultStore(cache_path=path)
        assert resumed.stats()["loaded"] == 2
        monkeypatch.delenv(CHAOS_ENV_VAR)
        resumed.get_many(self.CELLS)
        assert resumed.stats()["recomputed"] == 2  # only cells 3 and 4

    def test_skip_mode_leaves_none_holes_and_a_manifest(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(
            CHAOS_ENV_VAR, chaos_env(schedule={2: "raise"}, persistent=[2])
        )
        store = ResultStore(
            supervise=SuperviseConfig(
                max_retries=1, backoff_base_s=0.0, on_failure="skip"
            )
        )
        results = store.get_many(self.CELLS)
        assert results[1] is None
        assert all(r is not None for i, r in enumerate(results) if i != 1)
        assert store.stats()["failed_cells"] == 1
        [entry] = store.failure_manifest()
        assert entry["outcome"] == "error"
        assert entry["attempts"] == 2
        assert "ChaosInjected" in entry["error"]
        assert entry["policy"] == self.CELLS[1][3].name


#: A small UM/CT/DICER campaign: the DICER rows carry decision traces.
MIXED_CELLS = [
    (hp, "gcc_base6", 3, policy)
    for hp in ("milc1", "omnetpp1")
    for policy in (UnmanagedPolicy(), CacheTakeoverPolicy(), DicerPolicy())
]


@pytest.fixture(params=["file", "sqlite"])
def backend_path(request, tmp_path):
    suffix = {"file": "cache.json", "sqlite": "cache.db"}[request.param]
    return request.param, tmp_path / suffix


@pytest.fixture
def registry():
    registry, _ = obs.enable()
    yield registry
    obs.disable()


class TestCheckpointWork:
    """A checkpoint builds rows only for results computed since the last."""

    def test_rows_built_only_for_new_results(self, backend_path, registry):
        kind, path = backend_path
        built = registry.counter("store.rows_built")
        store = ResultStore(cache_path=path, backend=kind, precision="fast")
        store.get_many(MIXED_CELLS[:2])  # flushes a checkpoint at the end
        assert built.value == 2
        store.get_many(MIXED_CELLS)
        assert built.value == len(MIXED_CELLS)
        store.save()  # nothing dirty
        assert built.value == len(MIXED_CELLS)
        store.get("lbm1", "gcc_base6", UnmanagedPolicy(), n_be=3)
        store.save()
        assert built.value == len(MIXED_CELLS) + 1
        assert registry.counter("store.checkpoints").value == 4
        assert len(ResultStore(cache_path=path, backend=kind,
                               precision="fast")) == len(MIXED_CELLS) + 1

    def test_rows_written_per_engine(self, backend_path, registry):
        kind, path = backend_path
        store = ResultStore(cache_path=path, backend=kind, precision="fast")
        store.get_many(MIXED_CELLS[:2])
        store.get_many(MIXED_CELLS[2:3])
        written = registry.counter("store.rows_written").value
        # sqlite upserts the new rows; the file engine rewrites them all.
        assert written == {"sqlite": 3, "file": 2 + 3}[kind]


def _reference_rows(results) -> list[dict]:
    """The historical row projection: ``asdict``, then filter."""
    return [
        {k: v for k, v in asdict(r).items() if k in _PERSISTED_FIELDS}
        for r in results
    ]


def _file_bytes(rows, precision) -> str:
    return json.dumps(
        {
            "version": CACHE_VERSION,
            "precision": precision,
            "n_rows": len(rows),
            "sha256": rows_digest(rows),
            "rows": rows,
        }
    )


class TestRowBytes:
    """Rows stay byte-identical to the ``asdict`` projection."""

    @pytest.fixture(scope="class")
    def results(self):
        store = ResultStore(precision="fast")
        results = store.get_many(MIXED_CELLS)
        assert any(r.trace for r in results)
        return results

    def test_file_artefact_bytes(self, tmp_path, results):
        path = tmp_path / "cache.json"
        store = ResultStore(cache_path=path, precision="fast")
        store.get_many(MIXED_CELLS[:2])
        store.get_many(MIXED_CELLS)  # second checkpoint reuses cached rows
        assert path.read_text() == _file_bytes(
            _reference_rows(results), "fast"
        )

    def test_sqlite_row_column(self, tmp_path, results):
        path = tmp_path / "cache.db"
        store = ResultStore(cache_path=path, precision="fast")
        store.get_many(MIXED_CELLS[:2])
        store.get_many(MIXED_CELLS)
        with sqlite3.connect(path) as conn:
            column = [
                row for (row,) in conn.execute(
                    "SELECT row FROM results ORDER BY rowid"
                )
            ]
        assert column == [
            json.dumps(row, sort_keys=True, separators=(",", ":"))
            for row in _reference_rows(results)
        ]

    def test_sqlite_load_then_file_save(self, tmp_path, results):
        db = tmp_path / "cache.db"
        ResultStore(cache_path=db, precision="fast").get_many(MIXED_CELLS)
        reloaded = ResultStore(cache_path=db, precision="fast")
        assert reloaded.stats()["loaded"] == len(MIXED_CELLS)
        # Loaded sqlite rows have sorted keys: the file artefact must be
        # rebuilt from the results, not from those dicts.
        path = tmp_path / "cache.json"
        reloaded._backend = FileBackend(path)
        reloaded.save()
        assert path.read_text() == _file_bytes(
            _reference_rows(results), "fast"
        )
