"""Unit tests for the declarative placement state machine.

The load-bearing properties: placement is a pure function of the live
job history, node failure drains without dropping, recovery converges
back to the clean placement, and admission ignores node health. The work
bounds pin the incremental fold: what an event costs depends on the live
jobs and the nodes, never on the departed or rejected history, and a
departure re-adds only the jobs that arrived after the departed one.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.obs.metrics import MetricsRegistry, set_registry
from repro.serve.events import ServeEvent
from repro.serve.placement import (
    AdmissionCache,
    ControlPlane,
    PlaneConfig,
    _Fold,
)

from tests.serve.conftest import SLO, make_plane


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
        assert list(plane.rejected_ids) == ["h3"]
        assert "h3" not in plane.jobs
        assert plane.counters["rejected"] == 1

    def test_unknown_app_raises(self, plane):
        with pytest.raises(ValueError, match="catalog"):
            submit(plane, 0, "a", "not-an-app")

    def test_duplicate_job_id_raises(self, plane):
        submit(plane, 0, "a", "bzip22")
        with pytest.raises(ValueError, match="duplicate"):
            submit(plane, 1, "a", "bzip22")

    def test_terminal_ids_stay_taken(self, plane):
        """A rejected or departed job leaves the job table, but its id
        can never be submitted again."""
        for i, app in enumerate(["namd1", "povray1", "gamess1", "h264ref1"]):
            submit(plane, i, f"h{i}", app, kind="hp")
        plane.apply_event(ServeEvent(seq=4, kind="depart", job_id="h0"))
        assert list(plane.rejected_ids) == ["h3"]
        assert list(plane.departed_ids) == ["h0"]
        assert sorted(plane.jobs) == ["h1", "h2"]
        for seq, job_id in ((5, "h3"), (6, "h0")):
            with pytest.raises(ValueError, match="duplicate"):
                submit(plane, seq, job_id, "bzip22")

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


class NoScanIds(dict):
    """An id set that allows membership tests and inserts, not walks."""

    def _scan(self, *args):
        raise AssertionError("per-event work scanned the job history")

    __iter__ = keys = values = items = _scan


class CountingAdmission(AdmissionCache):
    """An admission memo that counts ``max_bes`` lookups."""

    def __init__(self, shared: AdmissionCache) -> None:
        super().__init__(policy=shared.policy, slo=shared.slo,
                         precision=shared.precision)
        self._max_bes = shared._max_bes  # reuse the session's searches
        self.lookups = 0

    def max_bes(self, hp_app, be_app):
        self.lookups += 1
        return super().max_bes(hp_app, be_app)


def warm_fleet(admission, n_nodes=30):
    """A 30-node plane with 10 HPs and 40 BEs placed, fold cache warm."""
    plane = ControlPlane(
        PlaneConfig.for_nodes(n_nodes, slo=SLO), admission=admission
    )
    hps = ["namd1", "povray1", "gamess1", "h264ref1"]
    bes = ["bzip22", "lbm1", "hmmer1", "milc1"]
    seq = 0
    for i in range(10):
        submit(plane, seq, f"h{i}", hps[i % len(hps)], kind="hp")
        seq += 1
    for i in range(40):
        submit(plane, seq, f"b{i}", bes[i % len(bes)])
        seq += 1
    return plane, seq


def spy_on_folds(plane, monkeypatch):
    """Record from-scratch placements (their job counts) and fold adds."""
    rebuilds, adds = [], []
    rebuild = plane.canonical_placement
    add = _Fold.add

    def spy_rebuild(jobs, node_ids):
        rebuilds.append(len(jobs))
        return rebuild(jobs, node_ids)

    def spy_add(fold, job):
        adds.append(job.job_id)
        return add(fold, job)

    monkeypatch.setattr(plane, "canonical_placement", spy_rebuild)
    monkeypatch.setattr(_Fold, "add", spy_add)
    return rebuilds, adds


class TestWorkBounds:
    def test_accepted_be_submit_extends_the_fold(self, admission,
                                                 monkeypatch):
        counting = CountingAdmission(admission)
        plane, seq = warm_fleet(counting)
        rebuilds, adds = spy_on_folds(plane, monkeypatch)
        counting.lookups = 0
        outcome = submit(plane, seq, "new", "bzip22")
        assert outcome["outcome"] == "accepted"
        assert rebuilds == []
        # The fold has judged bzip22 before: its answer row covers every
        # node, so neither the admission check nor the reconcile looks up.
        assert counting.lookups == 0
        # Without the row, each HP app on the fleet costs one lookup.
        fold = plane._folds[plane.config.node_ids]
        del fold._rows["bzip22"]
        hp_apps = {hp for hp in fold.hp_on.values() if hp is not None}
        submit(plane, seq + 1, "new2", "bzip22")
        assert counting.lookups == len(hp_apps) > 0
        seq += 1
        # A depart rewinds the fold to the departed job and re-adds only
        # the jobs that arrived after it.
        live_ids = [j.job_id for j in plane.live_jobs()]
        i = live_ids.index("b3")
        adds.clear()
        plane.apply_event(ServeEvent(seq=seq + 1, kind="depart", job_id="b3"))
        assert rebuilds == []
        assert adds == live_ids[i + 1:]
        assert len(adds) == len(plane.live_jobs()) - i

    def test_degraded_depart_and_submit_never_rebuild(self, admission,
                                                      monkeypatch):
        plane, seq = warm_fleet(admission, n_nodes=5)
        plane.apply_event(
            ServeEvent(seq=seq, kind="node_crash", node_id="node02")
        )
        rebuilds, adds = spy_on_folds(plane, monkeypatch)
        # The depart refreshes only the healthy-set fold; the submit's
        # admission check catches the stale roster fold up by rewinding.
        plane.apply_event(ServeEvent(seq=seq + 1, kind="depart", job_id="b5"))
        submit(plane, seq + 2, "late", "hmmer1")
        assert rebuilds == []
        assert adds
        # Each cached fold equals a from-scratch fold of the live prefix
        # it covers (the roster's has not seen "late" yet).
        live = plane.live_jobs()
        for node_ids in (plane.config.node_ids, tuple(plane.healthy_nodes())):
            fold = plane._folds[node_ids]
            covered = live[: len(fold.job_ids)]
            assert fold.job_ids == [j.job_id for j in covered]
            oracle = plane.canonical_placement(covered, node_ids)
            assert fold.assignment == oracle.assignment
            assert fold.overflow == oracle.overflow

    def test_events_never_scan_the_job_history(self, admission,
                                               monkeypatch):
        plane, seq = warm_fleet(admission, n_nodes=3)
        submit(plane, seq, "extra", "namd1", kind="hp")  # rejected: 3 HPs
        assert list(plane.rejected_ids)[-1] == "extra"
        plane.apply_event(ServeEvent(seq=seq + 1, kind="depart", job_id="b1"))
        # The history is the terminal id sets; per-event work may add to
        # them and test membership, never walk them.
        monkeypatch.setattr(plane, "rejected_ids",
                            NoScanIds(plane.rejected_ids))
        monkeypatch.setattr(plane, "departed_ids",
                            NoScanIds(plane.departed_ids))
        submit(plane, seq + 2, "late", "bzip22")
        submit(plane, seq + 3, "extra2", "namd1", kind="hp")  # rejected
        plane.apply_event(ServeEvent(seq=seq + 4, kind="depart", job_id="b0"))
        plane.apply_event(
            ServeEvent(seq=seq + 5, kind="depart", job_id="late")
        )
        with pytest.raises(ValueError, match="duplicate"):
            plane.validate_event(
                ServeEvent(seq=seq + 6, kind="submit", job_id="extra",
                           job_kind="be", app="bzip22")
            )
        assert "extra2" in plane.rejected_ids
        assert "late" in plane.departed_ids

    def test_live_index_survives_a_snapshot(self, admission):
        plane, seq = warm_fleet(admission, n_nodes=3)
        for i, jid in enumerate(["b1", "h2", "b7"]):
            plane.apply_event(
                ServeEvent(seq=seq + i, kind="depart", job_id=jid)
            )
        restored = ControlPlane.from_snapshot(
            plane.snapshot_state(), admission=admission
        )
        live = restored.live_jobs()
        assert live == sorted(live, key=lambda j: j.seq)
        assert all(j.status in ("placed", "pending") for j in live)
        assert [j.job_id for j in live] == [
            j.job_id for j in plane.live_jobs()
        ]
        assert list(restored.departed_ids) == ["b1", "h2", "b7"]
        assert restored.rejected_ids == plane.rejected_ids
        assert restored.assignments() == plane.assignments()


class TestTelemetry:
    def test_latency_histograms_and_fold_counters(self, plane):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            submit(plane, 0, "h", "namd1", kind="hp")
            submit(plane, 1, "b", "bzip22")
            plane.apply_event(ServeEvent(seq=2, kind="depart", job_id="b"))
        finally:
            set_registry(previous)
        assert registry.histogram("serve.apply_s").count == 3
        assert registry.histogram("serve.reconcile_s").count == 3
        # Fresh plane: one rebuild; every later admission check and
        # reconcile reuses the cached fold, the depart rewinding one job.
        assert registry.counter("serve.placement.rebuilds").value == 1
        assert registry.counter("serve.placement.extends").value == 4
        assert registry.counter("serve.placement.rewound").value == 1

    def test_only_first_use_searches_are_timed(self, monkeypatch):
        searched = []

        def fake_search(hp, be, *args, **kwargs):
            searched.append((hp, be))
            return SimpleNamespace(max_bes=3)

        monkeypatch.setattr(
            "repro.serve.placement.find_max_bes", fake_search
        )
        cache = AdmissionCache(policy="DICER", slo=SLO)
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            for hp, be in [("namd1", "bzip22"), ("namd1", "lbm1"),
                           ("namd1", "bzip22"), (None, "lbm1")]:
                cache.max_bes(hp, be)
        finally:
            set_registry(previous)
        assert searched == [("namd1", "bzip22"), ("namd1", "lbm1")]
        assert registry.counter("serve.admission.searches").value == 2
        assert registry.histogram("serve.admission.search_s").count == 2


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

    def test_unknown_policy_or_precision_is_refused(self):
        """Refused at construction with find_max_bes's own messages,
        not at the first HP submit, and never written to a snapshot."""
        for field, value, message in (
            ("policy", "bogus", "cannot rebuild policy"),
            ("precision", "bogus", "precision must be one of"),
        ):
            with pytest.raises(ValueError, match=message):
                PlaneConfig.for_nodes(2, **{field: value})
            raw = {**PlaneConfig.for_nodes(2).to_dict(), field: value}
            with pytest.raises(ValueError, match=message):
                PlaneConfig.from_dict(raw)

    def test_retired_kernel_key_is_ignored(self):
        config = PlaneConfig.for_nodes(2, policy="LFOC", slo=0.85)
        old = {**config.to_dict(), "kernel": "compiled"}
        assert PlaneConfig.from_dict(old) == config
        assert "kernel" not in config.to_dict()
