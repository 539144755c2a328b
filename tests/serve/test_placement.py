"""Unit tests for the declarative placement state machine.

The load-bearing properties: placement is a pure function of the live
job history, node failure drains without dropping, recovery converges
back to the clean placement, and admission ignores node health.
"""

from __future__ import annotations

import pytest

from repro.serve.events import ServeEvent
from repro.serve.placement import ControlPlane, PlaneConfig

from tests.serve.conftest import make_plane


def submit(plane, seq, job_id, app, kind="be"):
    return plane.apply_event(
        ServeEvent(seq=seq, kind="submit", job_id=job_id, job_kind=kind,
                   app=app)
    )


class TestAdmissionAndPlacement:
    def test_accepted_job_is_placed_immediately(self, plane):
        outcome = submit(plane, 0, "a", "bzip22")
        assert outcome["outcome"] == "accepted"
        job = plane.jobs["a"]
        assert job.status == "placed"
        assert job.node_id in plane.config.node_ids

    def test_hp_jobs_spread_one_per_node(self, plane):
        for i, app in enumerate(["namd1", "povray1", "gamess1"]):
            submit(plane, i, f"h{i}", app, kind="hp")
        nodes = {plane.jobs[f"h{i}"].node_id for i in range(3)}
        assert len(nodes) == 3

    def test_fourth_hp_on_three_nodes_is_rejected(self, plane):
        for i, app in enumerate(["namd1", "povray1", "gamess1", "h264ref1"]):
            submit(plane, i, f"h{i}", app, kind="hp")
        assert plane.jobs["h3"].status == "rejected"
        assert plane.counters["rejected"] == 1

    def test_unknown_app_raises(self, plane):
        with pytest.raises(ValueError, match="catalog"):
            submit(plane, 0, "a", "not-an-app")

    def test_duplicate_job_id_raises(self, plane):
        submit(plane, 0, "a", "bzip22")
        with pytest.raises(ValueError, match="duplicate"):
            submit(plane, 1, "a", "bzip22")

    def test_stale_seq_raises(self, plane):
        submit(plane, 5, "a", "bzip22")
        with pytest.raises(ValueError, match="already applied"):
            submit(plane, 5, "b", "bzip22")

    def test_depart_of_rejected_or_unknown_job_is_noop(self, plane):
        for i, app in enumerate(["namd1", "povray1", "gamess1", "h264ref1"]):
            submit(plane, i, f"h{i}", app, kind="hp")
        out = plane.apply_event(ServeEvent(seq=4, kind="depart", job_id="h3"))
        assert out["outcome"] == "noop"
        out = plane.apply_event(ServeEvent(seq=5, kind="depart", job_id="zz"))
        assert out["outcome"] == "noop"
        assert plane.counters["departed"] == 0


class TestFailureAndRecovery:
    def test_crash_drains_jobs_to_survivors_without_dropping(self, plane):
        for i in range(4):
            submit(plane, i, f"b{i}", "bzip22")
        victims = {
            j.node_id for j in plane.jobs.values() if j.status == "placed"
        }
        assert victims  # sanity: something was placed
        down = sorted(victims)[0]
        plane.apply_event(
            ServeEvent(seq=4, kind="node_crash", node_id=down)
        )
        live = [j for j in plane.jobs.values() if j.status in
                ("placed", "pending")]
        assert len(live) == 4  # nothing dropped
        assert all(j.node_id != down for j in live)

    def test_all_nodes_down_queues_everything_as_pending(self, plane):
        submit(plane, 0, "a", "bzip22")
        for i, nid in enumerate(plane.config.node_ids):
            plane.apply_event(
                ServeEvent(seq=1 + i, kind="node_crash", node_id=nid)
            )
        assert plane.jobs["a"].status == "pending"
        assert plane.jobs["a"].node_id is None
        assert plane.degraded()

    def test_admission_ignores_node_health(self, plane):
        # Crash the whole roster; a submit must still be *accepted*
        # (queued), because admission is judged on the full roster.
        for i, nid in enumerate(plane.config.node_ids):
            plane.apply_event(
                ServeEvent(seq=i, kind="node_crash", node_id=nid)
            )
        outcome = submit(plane, 3, "a", "bzip22")
        assert outcome["outcome"] == "accepted"
        assert plane.jobs["a"].status == "pending"

    def test_recovery_converges_to_the_clean_placement(self):
        clean = make_plane()
        chaos = make_plane()
        stream = [
            ("submit", "h0", "namd1", "hp"),
            ("submit", "b0", "bzip22", "be"),
            ("submit", "b1", "lbm1", "be"),
            ("submit", "h1", "povray1", "hp"),
            ("submit", "b2", "hmmer1", "be"),
        ]
        for seq, (kind, jid, app, jkind) in enumerate(stream):
            submit(clean, seq, jid, app, kind=jkind)
        # Same submissions, but a crash/recover cycle woven through.
        chaos.apply_event(
            ServeEvent(seq=0, kind="node_crash", node_id="node01")
        )
        for i, (kind, jid, app, jkind) in enumerate(stream):
            submit(chaos, 1 + i, jid, app, kind=jkind)
        chaos.apply_event(
            ServeEvent(seq=6, kind="node_recover", node_id="node01")
        )
        assert chaos.digest() == clean.digest()
        assert chaos.counters["migrations"] + chaos.counters["drains"] > 0

    def test_crash_recover_increments_restarts(self, plane):
        plane.apply_event(
            ServeEvent(seq=0, kind="node_crash", node_id="node00")
        )
        plane.apply_event(
            ServeEvent(seq=1, kind="node_recover", node_id="node00")
        )
        assert plane.nodes["node00"].restarts == 1
        # Hang recovery keeps controller state: no restart counted.
        plane.apply_event(
            ServeEvent(seq=2, kind="node_hang", node_id="node00")
        )
        plane.apply_event(
            ServeEvent(seq=3, kind="node_recover", node_id="node00")
        )
        assert plane.nodes["node00"].restarts == 1

    def test_assign_fault_leaves_placement_untouched(self, plane):
        submit(plane, 0, "a", "bzip22")
        before = plane.digest()
        plane.apply_event(
            ServeEvent(seq=1, kind="assign_fault", node_id="node00", count=2)
        )
        assert plane.digest() == before
        assert plane.counters["placement_faults"] == 2


class TestDigest:
    def test_digest_excludes_path_dependent_counters(self):
        # Two planes with identical terminal job state but different
        # migration histories must agree on the digest.
        a = make_plane()
        b = make_plane()
        submit(a, 0, "x", "bzip22")
        b.apply_event(ServeEvent(seq=0, kind="node_crash", node_id="node00"))
        submit(b, 1, "x", "bzip22")
        b.apply_event(ServeEvent(seq=2, kind="node_recover",
                                 node_id="node00"))
        assert a.counters["migrations"] != b.counters["migrations"] or (
            b.counters["drains"] + b.counters["node_crashes"] > 0
        )
        assert a.digest() == b.digest()

    def test_snapshot_round_trip_preserves_digest_and_counters(self, plane):
        submit(plane, 0, "h", "namd1", kind="hp")
        submit(plane, 1, "b", "bzip22")
        plane.apply_event(
            ServeEvent(seq=2, kind="node_crash", node_id="node02")
        )
        restored = ControlPlane.from_snapshot(plane.snapshot_state())
        assert restored.digest() == plane.digest()
        assert restored.counters == plane.counters
        assert restored.applied_seq == plane.applied_seq
        assert restored.nodes["node02"].health == "crashed"

    def test_snapshot_with_retired_kernel_field_loads(self, plane):
        """Snapshots written while a ``kernel`` setting existed still
        resume, to the same digest."""
        submit(plane, 0, "h", "namd1", kind="hp")
        submit(plane, 1, "b", "bzip22")
        state = plane.snapshot_state()
        state["config"]["kernel"] = "compiled"
        restored = ControlPlane.from_snapshot(state)
        assert restored.digest() == plane.digest()
        assert restored.config == plane.config

    def test_roster_change_invalidates_snapshot(self, plane):
        state = plane.snapshot_state()
        state["config"]["node_ids"] = ["other00"]
        restored = ControlPlane.from_snapshot(state)
        assert restored.config.node_ids == ("other00",)


class TestConfig:
    def test_for_nodes_names_and_validation(self):
        config = PlaneConfig.for_nodes(2)
        assert config.node_ids == ("node00", "node01")
        with pytest.raises(ValueError):
            PlaneConfig.for_nodes(0)
        with pytest.raises(ValueError):
            PlaneConfig(node_ids=("a", "a"))
        with pytest.raises(ValueError):
            PlaneConfig(node_ids=("a",), slo=1.5)

    def test_config_round_trip(self):
        config = PlaneConfig.for_nodes(2, policy="LFOC", slo=0.85)
        assert PlaneConfig.from_dict(config.to_dict()) == config

    def test_retired_kernel_key_is_ignored(self):
        config = PlaneConfig.for_nodes(2, policy="LFOC", slo=0.85)
        old = {**config.to_dict(), "kernel": "compiled"}
        assert PlaneConfig.from_dict(old) == config
        assert "kernel" not in config.to_dict()
