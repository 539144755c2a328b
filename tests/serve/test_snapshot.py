"""Unit tests for the checksummed atomic snapshot store."""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.serve.snapshot import SNAPSHOT_VERSION, load_snapshot, save_snapshot


STATE = {"applied_seq": 41, "jobs": [], "counters": {"submitted": 0}}


class TestSnapshotRoundTrip:
    def test_save_then_load(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, STATE)
        assert load_snapshot(path) == STATE

    def test_save_overwrites_atomically(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, STATE)
        newer = dict(STATE, applied_seq=42)
        save_snapshot(path, newer)
        assert load_snapshot(path) == newer
        # No stray temp files left behind.
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]

    def test_missing_snapshot_is_none(self, tmp_path):
        assert load_snapshot(tmp_path / "absent.json") is None

    def test_file_is_the_hashed_canonical_bytes(self, tmp_path):
        """The state is serialised once: the file holds exactly the
        bytes the checksum covers."""
        path = tmp_path / "snap.json"
        save_snapshot(path, STATE)
        raw = path.read_bytes()
        body = json.dumps(
            STATE, sort_keys=True, separators=(",", ":")
        ).encode()
        assert body in raw
        payload = json.loads(raw)
        assert payload["version"] == SNAPSHOT_VERSION == 2
        assert payload["sha256"] == hashlib.sha256(body).hexdigest()
        assert raw == json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ).encode()

    def test_version_1_payload_loads(self, tmp_path):
        """The version-1 writer's layout (spaced JSON, same checksum
        rule) still loads."""
        path = tmp_path / "snap.json"
        canonical = json.dumps(STATE, sort_keys=True, separators=(",", ":"))
        path.write_text(json.dumps({
            "version": 1,
            "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "state": STATE,
        }, sort_keys=True))
        assert load_snapshot(path) == STATE


class TestSnapshotWriteFailure:
    @pytest.mark.parametrize("stage", ["serialise", "write", "fsync"])
    def test_failed_save_leaves_no_temp_and_keeps_the_old(
        self, tmp_path, monkeypatch, stage
    ):
        path = tmp_path / "snap.json"
        save_snapshot(path, STATE)
        before = path.read_bytes()
        newer = dict(STATE, applied_seq=42)
        if stage == "serialise":
            newer["bad"] = {1, 2}  # a set is not JSON
            error = TypeError
        else:
            error = OSError

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
        with pytest.raises(error):
            save_snapshot(path, newer)
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["snap.json"]
        assert path.read_bytes() == before


class TestSnapshotCorruption:
    def test_truncated_payload_quarantined(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, STATE)
        raw = path.read_text()
        path.write_text(raw[: len(raw) // 2])
        assert load_snapshot(path) is None
        assert not path.exists()
        assert (tmp_path / "snap.json.corrupt").exists()

    def test_checksum_mismatch_quarantined(self, tmp_path):
        path = tmp_path / "snap.json"
        save_snapshot(path, STATE)
        payload = json.loads(path.read_text())
        payload["state"]["applied_seq"] = 999  # tamper without re-hashing
        path.write_text(json.dumps(payload))
        assert load_snapshot(path) is None
        assert (tmp_path / "snap.json.corrupt").exists()

    def test_quarantine_names_do_not_collide(self, tmp_path):
        path = tmp_path / "snap.json"
        for _ in range(3):
            path.write_text("{broken")
            assert load_snapshot(path) is None
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "snap.json.corrupt",
            "snap.json.corrupt.1",
            "snap.json.corrupt.2",
        ]

    def test_wrong_shape_quarantined(self, tmp_path):
        path = tmp_path / "snap.json"
        path.write_text(json.dumps(["not", "an", "object"]))
        assert load_snapshot(path) is None
        path2 = tmp_path / "snap2.json"
        path2.write_text(json.dumps({"version": 1}))  # no state
        assert load_snapshot(path2) is None

    @pytest.mark.parametrize("version", [None, 0, 3, "2", True])
    def test_missing_or_unknown_version_quarantined(self, tmp_path, version):
        """A version this reader does not know is refused like a
        checksum mismatch, even when the checksum holds."""
        path = tmp_path / "snap.json"
        save_snapshot(path, STATE)
        payload = json.loads(path.read_text())
        if version is None:
            del payload["version"]
        else:
            payload["version"] = version
        raw = json.dumps(payload).encode()
        path.write_bytes(raw)
        assert load_snapshot(path) is None
        assert not path.exists()
        assert (tmp_path / "snap.json.corrupt").read_bytes() == raw
