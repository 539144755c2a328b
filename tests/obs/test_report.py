"""Tests for telemetry summarisation and rendering (repro.obs.report)."""

import json

from repro.obs.report import (
    load_jsonl,
    render_metrics_summary,
    summarise_metrics,
)


def _hist_row(name, *, count, total, lo, hi, p50, p90, p99):
    return {
        "kind": "metric",
        "type": "histogram",
        "name": name,
        "count": count,
        "sum": total,
        "min": lo,
        "max": hi,
        "mean": total / count,
        "p50": p50,
        "p90": p90,
        "p99": p99,
    }


class TestLoadJsonl:
    def test_reads_records_and_flags_corruption(self, tmp_path):
        path = tmp_path / "tel.jsonl"
        path.write_text(
            json.dumps({"kind": "a"})
            + "\n\n"  # blank line is skipped silently
            + '{"kind": "b"'  # truncated final write
            + "\n[1, 2]\n"  # valid JSON but not an object
        )
        records = load_jsonl(path)
        assert [r["kind"] for r in records] == ["a", "_corrupt", "_corrupt"]


class TestSummariseMetrics:
    def test_events_counters_gauges(self):
        records = [
            {"kind": "dicer.decision", "run": "r1", "ts": 10.0},
            {"kind": "dicer.decision", "run": "r1", "ts": 11.0},
            {"kind": "campaign.start", "run": "r2", "ts": 12.5},
            {"kind": "metric", "type": "counter", "name": "c", "value": 2.0},
            {"kind": "metric", "type": "counter", "name": "c", "value": 3.0},
            {"kind": "metric", "type": "gauge", "name": "g", "value": 1.0},
            {"kind": "metric", "type": "gauge", "name": "g", "value": 9.0},
            {"kind": "_corrupt"},
        ]
        summary = summarise_metrics(records)
        assert summary["n_records"] == 8
        assert summary["n_events"] == 3
        assert summary["n_corrupt"] == 1
        assert summary["runs"] == ["r1", "r2"]
        assert summary["span_s"] == 2.5
        # Sorted by descending count, then kind.
        assert list(summary["events_by_kind"].items()) == [
            ("dicer.decision", 2),
            ("campaign.start", 1),
        ]
        assert summary["counters"] == {"c": 5.0}  # counters sum across runs
        assert summary["gauges"] == {"g": 9.0}  # gauges keep the last write

    def test_histograms_merge_across_runs(self):
        records = [
            _hist_row("h", count=2, total=4.0, lo=1.0, hi=3.0,
                      p50=2.0, p90=3.0, p99=3.0),
            _hist_row("h", count=6, total=36.0, lo=4.0, hi=10.0,
                      p50=6.0, p90=9.0, p99=10.0),
        ]
        h = summarise_metrics(records)["histograms"]["h"]
        assert h["count"] == 8
        assert h["sum"] == 40.0
        assert h["mean"] == 5.0
        assert h["min"] == 1.0 and h["max"] == 10.0
        # Percentiles merge as a count-weighted average.
        assert h["p50"] == (2.0 * 2 + 6.0 * 6) / 8

    def test_empty_input(self):
        summary = summarise_metrics([])
        assert summary["n_records"] == 0
        assert summary["span_s"] == 0.0
        assert summary["counters"] == {}
        assert summary["histograms"] == {}


class TestRender:
    def test_all_sections_present(self):
        records = [
            {"kind": "dicer.decision", "run": "r1", "ts": 1.0},
            {"kind": "metric", "type": "counter",
             "name": "steady_cache.misses", "value": 9.0},
            {"kind": "metric", "type": "gauge",
             "name": "dicer.hp_ways", "value": 4.0},
            _hist_row("steady_cache.solve_seconds", count=3, total=0.3,
                      lo=0.05, hi=0.15, p50=0.1, p90=0.15, p99=0.15),
        ]
        text = render_metrics_summary(summarise_metrics(records))
        assert "Telemetry report: 4 records (1 events)" in text
        for needle in (
            "Events",
            "dicer.decision",
            "Counters",
            "steady_cache.misses",
            "Gauges",
            "dicer.hp_ways",
            "Histograms",
            "steady_cache.solve_seconds",
        ):
            assert needle in text
        assert "corrupt" not in text

    def test_corrupt_lines_flagged_and_empty_sections_omitted(self):
        text = render_metrics_summary(
            summarise_metrics([{"kind": "_corrupt"}])
        )
        assert "[1 corrupt line(s) skipped]" in text

    def test_failed_cells_counted_and_rendered(self):
        records = [
            {"kind": "supervise.quarantine", "run": "r1", "ts": 1.0},
            {"kind": "supervise.quarantine", "run": "r1", "ts": 2.0},
            {"kind": "supervise.retry", "run": "r1", "ts": 1.5},
        ]
        summary = summarise_metrics(records)
        assert summary["n_failed_cells"] == 2
        assert "n_failed_cells: 2" in render_metrics_summary(summary)

    def test_no_quarantines_renders_zero(self):
        text = render_metrics_summary(summarise_metrics([]))
        assert "n_failed_cells: 0" in text
        assert "Counters" not in text
        assert "Histograms" not in text
        assert "prefetch used/points" not in text

    def test_prefetch_yield_rendered(self):
        records = [
            {"kind": "metric", "type": "counter",
             "name": "server.prefetch.points", "value": 1367.0},
            {"kind": "metric", "type": "counter",
             "name": "server.prefetch.used", "value": 1243.0},
        ]
        text = render_metrics_summary(summarise_metrics(records))
        assert "prefetch used/points: 1243/1367 (91%)" in text

    def test_checkpoint_rows_rendered(self):
        records = [
            {"kind": "metric", "type": "counter",
             "name": "store.checkpoints", "value": 3.0},
            {"kind": "metric", "type": "counter",
             "name": "store.rows_built", "value": 7137.0},
            {"kind": "metric", "type": "counter",
             "name": "store.rows_written", "value": 7137.0},
        ]
        text = render_metrics_summary(summarise_metrics(records))
        assert "checkpoint rows built/written: 7137/7137" in text
        assert "checkpoint rows" not in render_metrics_summary(
            summarise_metrics([])
        )

    def test_static_outcomes_rendered(self):
        records = [
            {"kind": "metric", "type": "counter",
             "name": "server.static.staged", "value": 6962.0},
            {"kind": "metric", "type": "counter",
             "name": "server.static.claimed", "value": 6960.0},
        ]
        text = render_metrics_summary(summarise_metrics(records))
        assert "static outcomes staged/claimed: 6962/6960" in text
        assert "static outcomes" not in render_metrics_summary(
            summarise_metrics([])
        )

    def test_placement_folds_rendered(self):
        records = [
            {"kind": "metric", "type": "counter",
             "name": "serve.placement.extends", "value": 1211.0},
            {"kind": "metric", "type": "counter",
             "name": "serve.placement.rebuilds", "value": 5.0},
            {"kind": "metric", "type": "counter",
             "name": "serve.placement.rewound", "value": 9381.0},
        ]
        text = render_metrics_summary(summarise_metrics(records))
        assert (
            "placement folds extended/rebuilt: 1211/5 (jobs rewound: 9381)"
            in text
        )
        assert "placement folds" not in render_metrics_summary(
            summarise_metrics([])
        )

    def test_admission_searches_rendered(self):
        records = [
            _hist_row("serve.admission.search_s", count=24, total=1.2,
                      lo=0.01, hi=0.2, p50=0.0415, p90=0.1, p99=0.19),
        ]
        text = render_metrics_summary(summarise_metrics(records))
        assert "admission searches: 24 (p50 41.5 ms)" in text
        assert "admission searches" not in render_metrics_summary(
            summarise_metrics([])
        )
