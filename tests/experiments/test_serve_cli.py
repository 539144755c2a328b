"""Tests for the ``serve`` CLI subcommand and the monitor guard math.

The loadgen/chaos/monitor paths are solver-free and run in tier-1; the
full ``serve run`` round trip is covered by the serve-marked suites and
``make serve-smoke``.
"""

from __future__ import annotations

import json
import re
import shutil

from repro.experiments.cli import (
    _monitor_telemetry,
    _render_serve_status,
    main,
)
from repro.serve.events import read_events
from repro.serve.snapshot import load_snapshot, save_snapshot

from tests.serve.conftest import make_plane
from tests.serve.test_snapshot_format import V1_FIXTURE, v1_fixture_events


class TestServeLoadgenAndChaos:
    def test_loadgen_writes_a_replayable_stream(self, tmp_path, capsys):
        out = tmp_path / "events.jsonl"
        assert main(["serve", "loadgen", "--out", str(out),
                     "--events", "50"]) == 0
        events = read_events(out)
        assert len(events) == 50
        assert all(e.kind in ("submit", "depart") for e in events)
        assert "50 events" in capsys.readouterr().out

    def test_chaos_weaves_and_writes_a_plan(self, tmp_path, capsys):
        base = tmp_path / "base.jsonl"
        woven = tmp_path / "chaos.jsonl"
        plan_path = tmp_path / "plan.json"
        assert main(["serve", "loadgen", "--out", str(base),
                     "--events", "60"]) == 0
        assert main([
            "serve", "chaos", "--base", str(base), "--out", str(woven),
            "--plan", str(plan_path), "--nodes", "3",
        ]) == 0
        plan = json.loads(plan_path.read_text())
        assert plan["counts"]["node_crash"] >= 1
        assert len(read_events(woven)) > 60
        assert 0 < plan["kill_seq"] < len(read_events(woven))

    def test_same_seed_reproduces_the_stream(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        for out in (a, b):
            assert main(["serve", "loadgen", "--out", str(out),
                         "--events", "40", "--seed", "99"]) == 0
        assert a.read_text() == b.read_text()


class TestServeMonitor:
    def empty_state(self, **counters) -> dict:
        base = {"events_applied": 0, "submitted": 0,
                "placement_failures": 0, "placement_retries": 0}
        base.update(counters)
        return {
            "applied_seq": -1,
            "jobs": [],
            "nodes": {"node00": {"health": "healthy", "restarts": 0}},
            "counters": base,
            "elapsed_s": 0.0,
        }

    def test_zero_progress_renders_dash_not_division_error(self):
        out = _render_serve_status(self.empty_state(), total_events=10)
        assert "-" in out
        assert "remaining" in out

    def test_zero_elapsed_with_events_is_still_guarded(self):
        state = self.empty_state(events_applied=5)
        state["applied_seq"] = 4
        out = _render_serve_status(state, total_events=10)
        assert "events/s" not in out  # no throughput claim without time

    def test_failures_render_beside_throughput(self):
        state = self.empty_state(events_applied=5, placement_failures=3)
        state["elapsed_s"] = 2.0
        out = _render_serve_status(state)
        assert "failed placements" in out
        assert "3" in out
        assert "2.5 events/s" in out

    def test_drained_eta(self):
        state = self.empty_state(events_applied=10)
        state["applied_seq"] = 9
        state["elapsed_s"] = 1.0
        out = _render_serve_status(state, total_events=10)
        assert "drained" in out

    def test_monitor_command_renders_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "snap.json"
        save_snapshot(snap, self.empty_state())
        assert main(["serve", "monitor", str(snap)]) == 0
        out = capsys.readouterr().out
        assert "Serve fleet" in out and "node00" in out

    def test_v1_and_v2_snapshots_render_identical_tables(self, tmp_path):
        v1 = tmp_path / "v1.json"
        shutil.copy(V1_FIXTURE, v1)
        plane = make_plane()
        for event in v1_fixture_events():
            plane.apply_event(event)
        v2 = tmp_path / "v2.json"
        save_snapshot(v2, plane.snapshot_state())
        old, new = load_snapshot(v1), load_snapshot(v2)
        assert "jobs" in old and "live" in new
        out = _render_serve_status(old, total_events=200)
        assert out == _render_serve_status(new, total_events=200)
        for status, count in (("placed", 17), ("pending", 4),
                              ("rejected", 5), ("departed", 61)):
            assert re.search(rf"jobs {status} \|\s+{count}$", out, re.M)

    def test_monitor_without_snapshot_says_so(self, tmp_path, capsys):
        assert main(["serve", "monitor", str(tmp_path / "none.json")]) == 0
        assert "no snapshot" in capsys.readouterr().out


class TestCampaignTelemetryGuards:
    def write(self, tmp_path, records):
        path = tmp_path / "telemetry.jsonl"
        path.write_text(
            "".join(json.dumps(r) + "\n" for r in records)
        )
        return str(path)

    def test_zero_cells_renders_zero_rate_not_crash(self, tmp_path):
        path = self.write(tmp_path, [
            {"kind": "campaign.batch", "label": "w0", "cells": 0,
             "failed_cells": 0, "seconds": 0.0},
        ])
        out = _monitor_telemetry(path)
        assert out is not None
        assert "0.0" in out

    def test_failed_cells_column_aggregates(self, tmp_path):
        path = self.write(tmp_path, [
            {"kind": "campaign.batch", "label": "w0", "cells": 10,
             "failed_cells": 2, "seconds": 1.0},
            {"kind": "campaign.batch", "label": "w0", "cells": 10,
             "failed_cells": 3, "seconds": 1.0},
        ])
        out = _monitor_telemetry(path)
        assert "failed" in out
        assert "5" in out  # 2 + 3 aggregated
        assert "10.0" in out  # 20 cells / 2 s

    def test_missing_file_and_no_batches_return_none(self, tmp_path):
        assert _monitor_telemetry(str(tmp_path / "absent.jsonl")) is None
        path = self.write(tmp_path, [{"kind": "other.event"}])
        assert _monitor_telemetry(path) is None
