"""Unit tests for the serve event model and its JSONL codec."""

from __future__ import annotations

import json

import pytest

from repro.serve.daemon import _tail_seq
from repro.serve.events import (
    EVENT_KINDS,
    ServeEvent,
    read_events,
    write_events,
)


class TestServeEvent:
    def test_round_trip_preserves_all_fields(self):
        event = ServeEvent(
            seq=7, kind="submit", job_id="j00007", job_kind="hp", app="namd1"
        )
        assert ServeEvent.from_dict(event.to_dict()) == event

    def test_to_dict_keeps_seq_zero_but_drops_unset_fields(self):
        raw = ServeEvent(seq=0, kind="node_recover", node_id="node01").to_dict()
        assert raw["seq"] == 0
        assert "job_id" not in raw
        assert "count" not in raw

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ServeEvent(seq=0, kind="reboot")

    def test_every_declared_kind_constructs(self):
        for kind in EVENT_KINDS:
            assert ServeEvent(seq=0, kind=kind).kind == kind


class TestEventsFile:
    def test_write_then_read_round_trips(self, tmp_path):
        events = [
            ServeEvent(seq=0, kind="submit", job_id="a", job_kind="be",
                       app="bzip22"),
            ServeEvent(seq=1, kind="node_crash", node_id="node00"),
            ServeEvent(seq=2, kind="depart", job_id="a"),
        ]
        path = tmp_path / "events.jsonl"
        write_events(path, events)
        assert read_events(path) == events

    def test_corrupt_line_raises_not_quarantines(self, tmp_path):
        # The events file is ground truth for replay — a bad line is a
        # hard error, never silently skipped.
        path = tmp_path / "events.jsonl"
        good = json.dumps(ServeEvent(seq=0, kind="submit", job_id="a",
                                     job_kind="be", app="bzip22").to_dict())
        path.write_text(good + "\n{not json\n")
        with pytest.raises(ValueError):
            read_events(path)


class TestTailSeq:
    """The daemon's write-ahead guard reads only the end of the file."""

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"", None),
            (b"\n\n  \n", None),
            (b"\n" * 10_000, None),
            (b'{"seq": 4}', 4),
            (b'{"seq": 4}\n', 4),
            (b'{"seq": 1}\n{"seq": 2}\n\n \n\n', 2),
            (b'{"seq": 1}\n{"seq": 2}' + b"\n" * 10_000, 2),
            (b'{"seq": 1}\r\n{"seq": 12}\r\n', 12),
            (b'{"seq": 7, "job_id": "' + b"x" * 10_000 + b'"}\n', 7),
        ],
    )
    def test_last_non_blank_line(self, tmp_path, content, expected):
        path = tmp_path / "events.jsonl"
        path.write_bytes(content)
        assert _tail_seq(path) == expected

    def test_missing_file(self, tmp_path):
        assert _tail_seq(tmp_path / "absent.jsonl") is None

    def test_matches_the_written_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        events = [ServeEvent(seq=i, kind="depart", job_id=f"j{i}")
                  for i in range(500)]
        write_events(path, events)
        assert _tail_seq(path) == 499
