"""Summarise and render a telemetry JSONL file (``dicer-repro report``).

A telemetry file mixes event records with ``kind="metric"`` snapshot
rows (see :mod:`repro.obs.events`). :func:`summarise_metrics` separates
and aggregates them into one plain dictionary; :func:`render_metrics_
summary` turns that into the repository's standard ASCII tables.

Metric rows from several runs (e.g. a resumed campaign appending to the
same file) are merged: counters and histogram counts/sums add, gauges
keep the last write, histogram min/max widen, and percentiles are
averaged weighted by count (an approximation, flagged in the docstring
rather than hidden).
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from pathlib import Path
from typing import Iterable, Sequence

from repro.util.tables import format_table

__all__ = ["load_jsonl", "summarise_metrics", "render_metrics_summary"]


def load_jsonl(path: Path | str) -> list[dict]:
    """Read a telemetry file; unparseable lines are skipped, not fatal.

    A campaign killed mid-write can leave one truncated final line;
    dropping it (and counting it in the summary via ``_corrupt`` markers)
    beats refusing to report on an otherwise healthy multi-hour run.
    """
    records: list[dict] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            records.append({"kind": "_corrupt"})
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            records.append({"kind": "_corrupt"})
    return records


def _merge_histogram(into: dict, row: dict) -> None:
    prev_count = into["count"]
    count = prev_count + row.get("count", 0)
    into["sum"] += row.get("sum", 0.0)
    into["min"] = min(into["min"], row.get("min", float("inf")))
    into["max"] = max(into["max"], row.get("max", float("-inf")))
    for q in ("p50", "p90", "p99"):
        if count:
            into[q] = (
                into[q] * prev_count + row.get(q, 0.0) * row.get("count", 0)
            ) / count
    into["count"] = count
    into["mean"] = into["sum"] / count if count else 0.0


def summarise_metrics(records: Iterable[dict]) -> dict[str, object]:
    """Aggregate telemetry records into one report-ready dictionary.

    Returns keys: ``n_records``, ``n_events``, ``n_corrupt``, ``n_faults``
    (events whose kind is ``*.fault`` — injected RDT faults and held
    controller periods, surfaced so fault-injection campaigns read at a
    glance), ``n_failed_cells`` (``supervise.quarantine`` events —
    campaign cells that exhausted their retries), ``runs`` (sorted run
    ids), ``span_s`` (first-to-last
    timestamp), ``events_by_kind``, ``counters``, ``gauges`` and
    ``histograms`` (each histogram a dict with
    count/sum/min/max/mean/p50/p90/p99).
    """
    events_by_kind: TallyCounter[str] = TallyCounter()
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    histograms: dict[str, dict] = {}
    runs: set[str] = set()
    timestamps: list[float] = []
    n_records = n_events = n_corrupt = 0

    for record in records:
        n_records += 1
        kind = str(record.get("kind", "_corrupt"))
        if kind == "_corrupt":
            n_corrupt += 1
            continue
        run = record.get("run")
        if run is not None:
            runs.add(str(run))
        ts = record.get("ts")
        if isinstance(ts, (int, float)):
            timestamps.append(float(ts))
        if kind != "metric":
            n_events += 1
            events_by_kind[kind] += 1
            continue
        name = str(record.get("name", "?"))
        mtype = record.get("type")
        if mtype == "counter":
            counters[name] = counters.get(name, 0.0) + float(
                record.get("value", 0.0)
            )
        elif mtype == "gauge":
            gauges[name] = float(record.get("value", 0.0))
        elif mtype == "histogram":
            entry = histograms.get(name)
            if entry is None:
                entry = {
                    "count": 0,
                    "sum": 0.0,
                    "min": float("inf"),
                    "max": float("-inf"),
                    "mean": 0.0,
                    "p50": 0.0,
                    "p90": 0.0,
                    "p99": 0.0,
                }
                histograms[name] = entry
            _merge_histogram(entry, record)

    return {
        "n_records": n_records,
        "n_events": n_events,
        "n_corrupt": n_corrupt,
        "n_faults": sum(
            count
            for kind, count in events_by_kind.items()
            if kind.endswith(".fault")
        ),
        "n_failed_cells": events_by_kind.get("supervise.quarantine", 0),
        "runs": sorted(runs),
        "span_s": max(timestamps) - min(timestamps) if timestamps else 0.0,
        "events_by_kind": dict(
            sorted(events_by_kind.items(), key=lambda kv: (-kv[1], kv[0]))
        ),
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }


def _section(title: str, headers: Sequence[str], rows) -> str:
    return format_table(headers, rows, title=title, float_fmt=".6g")


def render_metrics_summary(summary: dict[str, object]) -> str:
    """Render a :func:`summarise_metrics` result as ASCII tables."""
    runs = summary["runs"]
    header = (
        f"Telemetry report: {summary['n_records']} records "
        f"({summary['n_events']} events) from {len(runs)} run(s) "
        f"over {summary['span_s']:.1f}s"
    )
    if summary["n_corrupt"]:
        header += f"  [{summary['n_corrupt']} corrupt line(s) skipped]"
    if summary.get("n_faults"):
        header += f"  [{summary['n_faults']} fault event(s)]"
    sections = [header]
    sections.append(f"n_failed_cells: {summary.get('n_failed_cells', 0)}")
    counters = summary["counters"]
    prefetched = counters.get("server.prefetch.points", 0.0)
    if prefetched:
        # Is the speculation paying? Points a prefetch solved into a
        # Server memo against the ones the event loop went on to read.
        used = counters.get("server.prefetch.used", 0.0)
        sections.append(
            f"prefetch used/points: {used:.0f}/{prefetched:.0f} "
            f"({used / prefetched:.0%})"
        )
    staged = counters.get("server.static.staged", 0.0)
    if staged:
        # Did the static pass pay off? Runs it stepped to completion
        # against the ones a run_pair took instead of running a Server.
        claimed = counters.get("server.static.claimed", 0.0)
        sections.append(
            f"static outcomes staged/claimed: {staged:.0f}/{claimed:.0f}"
        )
    extends = counters.get("serve.placement.extends", 0.0)
    rebuilds = counters.get("serve.placement.rebuilds", 0.0)
    if extends or rebuilds:
        # Does the plane reuse its cached placement fold? Reuses against
        # from-scratch builds, and the jobs departures rewound.
        rewound = counters.get("serve.placement.rewound", 0.0)
        sections.append(
            f"placement folds extended/rebuilt: {extends:.0f}/{rebuilds:.0f}"
            f" (jobs rewound: {rewound:.0f})"
        )
    searches = summary["histograms"].get("serve.admission.search_s")
    if searches:
        # What the serve plane's first-use admission searches cost.
        sections.append(
            f"admission searches: {searches['count']:.0f} "
            f"(p50 {searches['p50'] * 1e3:.1f} ms)"
        )
    if "store.checkpoints" in counters:
        # Does a checkpoint grow with the campaign? Rows built against the
        # rows the engine wrote (sqlite: the new ones; file: all of them).
        built = counters.get("store.rows_built", 0.0)
        written = counters.get("store.rows_written", 0.0)
        sections.append(
            f"checkpoint rows built/written: {built:.0f}/{written:.0f}"
        )

    events = summary["events_by_kind"]
    if events:
        sections.append(
            _section(
                "Events", ["kind", "count"], list(events.items())
            )
        )
    if counters:
        sections.append(
            _section("Counters", ["name", "value"], list(counters.items()))
        )
    gauges = summary["gauges"]
    if gauges:
        sections.append(
            _section("Gauges", ["name", "value"], list(gauges.items()))
        )
    histograms = summary["histograms"]
    if histograms:
        rows = [
            [
                name,
                h["count"],
                h["mean"],
                h["p50"],
                h["p90"],
                h["p99"],
                h["max"],
            ]
            for name, h in histograms.items()
        ]
        sections.append(
            _section(
                "Histograms",
                ["name", "count", "mean", "p50", "p90", "p99", "max"],
                rows,
            )
        )
    return "\n\n".join(sections)
