"""The version-2 snapshot: sized by live jobs, carrying the admission memo.

A v2 state holds the live jobs in full and only the ids of rejected and
departed jobs, so its bytes grow by an id per terminal job instead of a
whole job record. It also carries the :class:`AdmissionCache` memo,
tagged with what the answers depend on, so a resumed plane skips the
searches its predecessor already ran. ``data/snapshot_v1.json`` was
written by the version-1 writer from :func:`v1_fixture_events` on a
3-node DICER plane at SLO 0.9; it must keep loading to the same plane.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from dataclasses import replace
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.events import ServeEvent
from repro.serve.loadgen import generate_events
from repro.serve.placement import ControlPlane
from repro.serve.snapshot import load_snapshot, save_snapshot
from repro.sim.platform import TABLE1_PLATFORM

from tests.serve.conftest import make_plane

V1_FIXTURE = Path(__file__).parent / "data" / "snapshot_v1.json"
#: The fixture plane's placement digest, as the version-1 code gave it.
V1_DIGEST = "f2c2df1bcea931b4fc8c42ed6f3e9f8224d392cbdbaa5c4d6ea9c9c3c31dce85"


def v1_fixture_events() -> list[ServeEvent]:
    return generate_events(5, 150) + [
        ServeEvent(seq=150, kind="node_crash", node_id="node01")
    ]


def fold(events, plane=None):
    plane = plane or make_plane()
    for event in events:
        plane.apply_event(event)
    return plane


def v1_bytes(plane: ControlPlane, events) -> int:
    """Size of the version-1 file for ``plane``: every job ever
    submitted in full, written as the version-1 writer wrote it."""
    jobs = []
    for event in events:
        if event.kind != "submit":
            continue
        live = plane.jobs.get(event.job_id)
        if live is not None:
            jobs.append(live.to_dict())
            continue
        status = (
            "rejected" if event.job_id in plane.rejected_ids else "departed"
        )
        jobs.append({
            "job_id": event.job_id, "kind": event.job_kind,
            "app": event.app, "seq": event.seq, "status": status,
            "node_id": None,
        })
    state = {
        "config": plane.config.to_dict(),
        "applied_seq": plane.applied_seq,
        "jobs": jobs,
        "nodes": {nid: e.to_dict() for nid, e in plane.nodes.items()},
        "counters": dict(plane.counters),
        "elapsed_s": plane.elapsed_s,
    }
    canonical = json.dumps(state, sort_keys=True, separators=(",", ":"))
    payload = {
        "version": 1,
        "sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "state": state,
    }
    return len(json.dumps(payload, sort_keys=True).encode())


class TestVersion1:
    def load_fixture(self, tmp_path) -> dict:
        path = tmp_path / "snap.json"
        shutil.copy(V1_FIXTURE, path)
        state = load_snapshot(path)
        assert state is not None and "jobs" in state
        return state

    def test_v1_loads_to_the_same_digest_with_an_empty_memo(self, tmp_path):
        restored = ControlPlane.from_snapshot(self.load_fixture(tmp_path))
        assert restored.digest() == V1_DIGEST
        assert restored.admission.memo_state()["max_bes"] == []
        twin = fold(v1_fixture_events())
        assert twin.digest() == V1_DIGEST
        assert restored.summary()["jobs"] == twin.summary()["jobs"]
        assert restored.counters == twin.counters
        assert restored.live_jobs() == twin.live_jobs()
        assert list(restored.rejected_ids) == list(twin.rejected_ids)
        assert set(restored.departed_ids) == set(twin.departed_ids)
        assert restored.nodes == twin.nodes

    def test_v1_resume_continues_like_the_uninterrupted_plane(
        self, tmp_path, admission
    ):
        base = v1_fixture_events()
        live = [j.job_id for j in fold(base).live_jobs()]
        tail = [
            ServeEvent(seq=151, kind="node_recover", node_id="node01"),
            ServeEvent(seq=152, kind="depart", job_id=live[0]),
            ServeEvent(seq=153, kind="depart", job_id=live[-1]),
        ]
        tail += [
            replace(e, seq=e.seq + 154, job_id=f"x{e.job_id}")
            for e in generate_events(6, 40) if e.kind == "submit"
        ]
        events = base + tail
        restored = ControlPlane.from_snapshot(
            self.load_fixture(tmp_path), admission=admission
        )
        fold(events[151:], restored)
        straight = fold(events)
        assert restored.digest() == straight.digest()
        assert restored.counters == straight.counters


class TestSize:
    def test_snapshot_is_bounded_by_live_jobs(self, tmp_path):
        """Over a 3,000-event 3-node churn the v2 file stays a small
        fraction of v1 and grows by at most 24 bytes per terminal job."""
        events = generate_events(11, 3000)
        plane = make_plane()
        path = tmp_path / "snap.json"
        sizes = {}
        for event in events:
            plane.apply_event(event)
            if event.seq in (299, 1499, 2999):
                save_snapshot(path, plane.snapshot_state())
                sizes[event.seq] = path.stat().st_size
                live = len(plane.jobs)
                terminal = len(plane.rejected_ids) + len(plane.departed_ids)
                assert sizes[event.seq] <= 4096 + 160 * live + 24 * terminal
        assert terminal > 1000  # the history really is long
        assert sizes[2999] <= 0.25 * v1_bytes(plane, events)
        restored = ControlPlane.from_snapshot(load_snapshot(path))
        assert restored.digest() == plane.digest()


class TestAdmissionMemo:
    def test_memo_survives_a_restart(self, tmp_path):
        events = generate_events(3, 120)
        plane = fold(events)
        path = tmp_path / "snap.json"
        save_snapshot(path, plane.snapshot_state())
        held = plane.admission.memo_state()["max_bes"]
        assert held  # the stream submitted HPs, so searches ran
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            # No admission cache handed over: the plane builds a fresh
            # one from its config, and the snapshot fills it.
            restored = ControlPlane.from_snapshot(load_snapshot(path))
            for hp, be, n in held:
                assert restored.admission.max_bes(hp, be) == n
        finally:
            set_registry(previous)
        assert registry.counter("serve.admission.searches").value == 0
        assert restored.admission.memo_state() == plane.admission.memo_state()

    def test_memo_from_another_setting_is_dropped(self):
        plane = fold(generate_events(3, 60))
        state = plane.snapshot_state()
        assert state["admission"]["max_bes"]
        for field, value in (("slo", 0.85), ("policy", "LFOC"),
                             ("precision", "exact")):
            other = json.loads(json.dumps(state))
            other["config"][field] = value
            restored = ControlPlane.from_snapshot(other)
            assert restored.admission.memo_state()["max_bes"] == []
        restored = ControlPlane.from_snapshot(
            state, platform=replace(TABLE1_PLATFORM, queue_gain=0.2)
        )
        assert restored.admission.memo_state()["max_bes"] == []
        restored = ControlPlane.from_snapshot(state)
        assert restored.admission.memo_state() == state["admission"]
