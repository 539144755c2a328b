"""Property suites for the control plane's determinism contract.

Hypothesis drives the two structural claims the smoke test checks once:

* **Snapshot round-trip**: folding a prefix, snapshotting, restoring and
  folding the rest lands on the same digest as folding straight through
  — for any stream and any split point.
* **Chaos invariance**: weaving seeded node faults (all recovered before
  the end) into a stream never changes the terminal placement digest.
* **Incremental ≡ from scratch**: the plane's cached greedy fold
  (extended on submits, rewound to the departed job on departures)
  agrees with :meth:`ControlPlane.canonical_placement` run from scratch
  after every event of a churn + chaos stream.

Streams come from the seeded load generator, so every example is a
realistic churn history; the admission memo is shared session-wide, so
examples after the first are solver-free.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.chaos import weave_chaos
from repro.serve.loadgen import generate_events
from repro.serve.placement import ControlPlane, Job
from repro.serve.snapshot import load_snapshot, save_snapshot

from tests.serve.conftest import make_plane

N_EVENTS = 60


def fold(events, upto=None):
    plane = make_plane()
    for event in events if upto is None else events[:upto]:
        plane.apply_event(event)
    return plane


class TestSnapshotRoundTripProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        split_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_split_fold_equals_straight_fold(self, seed, split_frac):
        events = generate_events(seed, N_EVENTS)
        split = int(split_frac * len(events))
        straight = fold(events)
        prefix = fold(events, upto=split)
        resumed = ControlPlane.from_snapshot(
            prefix.snapshot_state(), admission=prefix.admission
        )
        for event in events[split:]:
            resumed.apply_event(event)
        assert resumed.digest() == straight.digest()
        assert resumed.counters == straight.counters

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_disk_round_trip_is_lossless(self, seed, tmp_path_factory):
        events = generate_events(seed, N_EVENTS // 2)
        plane = fold(events)
        path = tmp_path_factory.mktemp("snap") / "snap.json"
        save_snapshot(path, plane.snapshot_state())
        restored = ControlPlane.from_snapshot(
            load_snapshot(path), admission=plane.admission
        )
        assert restored.digest() == plane.digest()
        assert restored.applied_seq == plane.applied_seq


class TestChaosInvarianceProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chaos_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_weave_never_moves_the_terminal_digest(self, seed, chaos_seed):
        base = generate_events(seed, N_EVENTS)
        plan = weave_chaos(
            base,
            seed=chaos_seed,
            node_ids=tuple(f"node{i:02d}" for i in range(3)),
            recover_after=15,
        )
        clean = fold(base)
        chaotic = fold(list(plan.events))
        assert chaotic.digest() == clean.digest()
        # Admission outcomes are chaos-invariant too, not just placement.
        assert chaotic.counters["rejected"] == clean.counters["rejected"]
        assert chaotic.counters["accepted"] == clean.counters["accepted"]
        # The weave actually exercised failure handling.
        assert chaotic.counters["node_crashes"] >= 1


def chaos_stream(seed, chaos_seed):
    return list(
        weave_chaos(
            generate_events(seed, N_EVENTS),
            seed=chaos_seed,
            node_ids=tuple(f"node{i:02d}" for i in range(3)),
            recover_after=15,
        ).events
    )


def from_scratch_admits(plane, event):
    candidate = Job(
        job_id=event.job_id, kind=event.job_kind, app=event.app, seq=event.seq
    )
    fold = plane.canonical_placement(
        plane.live_jobs() + [candidate], plane.config.node_ids
    )
    return candidate.job_id in fold.assignment


class TestIncrementalOracleProperty:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chaos_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_every_event_matches_the_from_scratch_placement(
        self, seed, chaos_seed
    ):
        plane = make_plane()
        for event in chaos_stream(seed, chaos_seed):
            expected = None
            if event.kind == "submit":
                expected = from_scratch_admits(plane, event)
            outcome = plane.apply_event(event)
            if expected is not None:
                assert (outcome["outcome"] == "accepted") == expected
            oracle = plane.canonical_placement(
                plane.live_jobs(), plane.healthy_nodes()
            )
            placed = {
                j.job_id: j.node_id
                for j in plane.live_jobs()
                if j.status == "placed"
            }
            pending = [
                j.job_id for j in plane.live_jobs() if j.status == "pending"
            ]
            assert placed == oracle.assignment
            assert pending == oracle.overflow

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        chaos_seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=10, deadline=None)
    def test_cold_cache_twin_ends_identically(self, seed, chaos_seed):
        # Migrations and drains are path-dependent, so the counters catch
        # any event where the cached fold placed differently.
        events = chaos_stream(seed, chaos_seed)
        warm = make_plane()
        cold = make_plane()
        for event in events:
            warm.apply_event(event)
            cold._folds.clear()
            cold.apply_event(event)
        assert cold.digest() == warm.digest()
        assert cold.counters == warm.counters
