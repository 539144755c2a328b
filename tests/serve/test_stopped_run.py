"""A daemon stopped before ``run()`` checkpoints without replaying.

The benchmark's serve replay applies events through ``apply_event``,
then requests a stop and calls ``run()`` only for its exit checkpoint.
That run must not parse the events file it will not apply, and must
leave the snapshot and summary a run stopped at its first unapplied
event leaves.
"""

from __future__ import annotations

import asyncio
import json

from repro.serve import daemon as daemon_module
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.events import write_events
from repro.serve.loadgen import generate_events
from repro.serve.placement import PlaneConfig

N_EVENTS = 40
APPLIED = 25


def _stopped_run(tmp_path, monkeypatch, *, stop_before_run: bool):
    """Apply a prefix, then run a stopped daemon; count events-file reads."""
    events = generate_events(3, N_EVENTS)
    write_events(tmp_path / "events.jsonl", events)
    daemon = ServeDaemon(
        ServeConfig(
            plane=PlaneConfig.for_nodes(3, slo=0.9),
            events_path=tmp_path / "events.jsonl",
            snapshot_path=tmp_path / "snap.json",
        )
    )
    reads = []
    real_read = daemon_module.read_events

    def read_events(path):
        reads.append(path)
        if not stop_before_run:
            # The stop lands after the replay has started, before it
            # applies anything: the replay loop's own early exit.
            daemon.request_stop()
        return real_read(path)

    monkeypatch.setattr(daemon_module, "read_events", read_events)

    async def drive():
        for event in events[:APPLIED]:
            await daemon.apply_event(event)
        if stop_before_run:
            daemon.request_stop()
        return await daemon.run()

    summary = asyncio.run(drive())
    snapshot = json.loads((tmp_path / "snap.json").read_text())["state"]
    for state in (summary, snapshot):
        state.pop("elapsed_s")
    return reads, summary, snapshot


def test_stop_before_run_skips_the_events_file(tmp_path, monkeypatch):
    reads, summary, snapshot = _stopped_run(
        tmp_path / "early", monkeypatch, stop_before_run=True
    )
    assert reads == []
    assert summary["stopped_early"]
    assert summary["applied_seq"] == APPLIED - 1

    ref_reads, ref_summary, ref_snapshot = _stopped_run(
        tmp_path / "replay", monkeypatch, stop_before_run=False
    )
    assert len(ref_reads) == 1
    assert summary == ref_summary
    assert snapshot == ref_snapshot
