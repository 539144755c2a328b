#!/usr/bin/env python
"""Regression gate over pytest-benchmark autosaves.

``make bench-quick`` runs the benchmark suite with ``--benchmark-autosave``
and then invokes this script, which compares the two most recent saves
(newest vs. its predecessor) benchmark-by-benchmark and fails — exit code
1 — when any shared benchmark's median wall-clock regressed by more than
the threshold (default 25 %). With fewer than two saves there is nothing
to compare and the gate passes trivially.

With ``--bench-json PATH`` it additionally renders the machine-readable
perf artefact the benchmark harness writes (``BENCH_headline.json``:
wall-clock, scalar-vs-batched solver calls, batch sizes, memo hit rate),
compares it against the previous run recorded in ``BENCH_history.jsonl``
next to it, and appends the current run to that history. The JSON report
is informational — only the autosave medians gate.

With ``--store PATH`` it instead (or additionally) describes a persisted
result-store artefact — either backend: the checksummed JSON file or the
SQLite database — printing the engine, row count, precision stamp and
the backend-independent canonical content digest, so two campaign
artefacts can be compared for equality regardless of which engine or how
many queue workers wrote them.

Usage::

    python benchmarks/compare_saves.py [--threshold 0.25] [--storage DIR]
        [--bench-json benchmarks/results/BENCH_headline.json]
        [--store results.db [--store other.json ...]]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def find_saves(storage: Path) -> list[Path]:
    """All autosave files, oldest first (autosaves are counter-prefixed)."""
    return sorted(storage.glob("*/*.json"))


def load_medians(path: Path) -> dict[str, float]:
    """Map benchmark name -> median seconds for one save file."""
    payload = json.loads(path.read_text())
    return {
        bench["name"]: float(bench["stats"]["median"])
        for bench in payload.get("benchmarks", [])
    }


def compare(
    previous: dict[str, float],
    latest: dict[str, float],
    threshold: float,
) -> tuple[list[str], list[str]]:
    """(report lines, offending benchmark names) for the shared set."""
    lines: list[str] = []
    offenders: list[str] = []
    shared = sorted(set(previous) & set(latest))
    for name in shared:
        old, new = previous[name], latest[name]
        ratio = new / old if old > 0 else float("inf")
        flag = ""
        if ratio > 1.0 + threshold:
            offenders.append(name)
            flag = f"  <-- REGRESSION (> {threshold:.0%})"
        lines.append(
            f"{name}: {old:.3f}s -> {new:.3f}s "
            f"({ratio - 1.0:+.1%} vs old){flag}"
        )
    for name in sorted(set(latest) - set(previous)):
        lines.append(f"{name}: (new benchmark, {latest[name]:.3f}s)")
    return lines, offenders


def report_bench_json(path: Path, history: Path | None = None) -> list[str]:
    """Render one BENCH_headline.json, diffed against the tracked history.

    Returns the report lines (also useful for tests); appends the current
    payload to ``history`` (default: ``BENCH_history.jsonl`` next to the
    artefact) so successive runs can be compared. Never gates.

    Schema drift is tolerated in both directions: rows written before a
    field existed (older histories have no ``precision``, no fast-kernel
    counters, no ``fast`` block) read as absent and render without a
    previous value, and fields this version does not know about are
    simply carried along in the history. Every row appended here records
    the solver ``precision`` it ran under (absent = the pre-fast-math
    era, i.e. "exact").
    """
    payload = json.loads(path.read_text())
    payload.setdefault("precision", "exact")
    history = history or path.with_name("BENCH_history.jsonl")
    previous = None
    if history.exists():
        lines = [ln for ln in history.read_text().splitlines() if ln.strip()]
        if lines:
            try:
                previous = json.loads(lines[-1])
            except json.JSONDecodeError:
                previous = None  # torn last line: diff against nothing
    if not isinstance(previous, dict):
        previous = None

    solver = payload.get("solver", {})
    if not isinstance(solver, dict):
        solver = {}
    cache = payload.get("steady_cache", {})
    if not isinstance(cache, dict):
        cache = {}
    report = [f"perf artefact: {path}"]

    def fmt(label: str, value, prev_value, unit: str = "") -> str:
        line = f"{label}: {value}{unit}"
        if isinstance(value, (int, float)) and isinstance(
            prev_value, (int, float)
        ) and prev_value:
            change = value / prev_value - 1.0
            line += f" (prev {prev_value}{unit}, {change:+.1%})"
        return line

    prev_solver = (previous or {}).get("solver", {})
    if not isinstance(prev_solver, dict):
        prev_solver = {}
    prev_cache = (previous or {}).get("steady_cache", {})
    if not isinstance(prev_cache, dict):
        prev_cache = {}
    prev_precision = (previous or {}).get("precision", "exact")
    report.append(f"  precision: {payload['precision']}")
    if previous is not None and prev_precision != payload["precision"]:
        report.append(
            f"  (previous run used precision={prev_precision} — "
            "wall-clock deltas compare different solver modes)"
        )
    # Pool stamp (older rows carry none; absent reads as serial).
    pool = payload.get("pool", "serial")
    report.append(f"  pool: {pool}")
    prev_pool = (previous or {}).get("pool", "serial")
    if previous is not None and pool != prev_pool:
        report.append(
            f"  (previous run used pool={prev_pool} — "
            "wall-clock deltas compare different execution modes)"
        )
    report.append(
        fmt("  wall_clock", payload.get("wall_clock_s"),
            (previous or {}).get("wall_clock_s"), "s")
    )
    for key in (
        "total_points",
        "scalar_solves",
        "batch_solves",
        "fast_solves",
        "fast_points",
        "mean_batch_size",
        "points_per_python_call",
        "scalar_call_reduction",
        "scalar_iterations",
        "batch_iterations",
        "fast_iterations",
        "params_memo_hits",
        "params_memo_misses",
        "params_memo_evictions",
    ):
        value = solver.get(key)
        if value is None and prev_solver.get(key) is None:
            continue  # field absent on both sides (older schema)
        report.append(fmt(f"  solver.{key}", value, prev_solver.get(key)))
    report.append(
        fmt("  steady_cache.hit_rate", cache.get("hit_rate"),
            prev_cache.get("hit_rate"))
    )
    if payload.get("fast_speedup") is not None or (
        previous or {}
    ).get("fast_speedup") is not None:
        report.append(
            fmt("  fast_speedup", payload.get("fast_speedup"),
                (previous or {}).get("fast_speedup"), "x")
        )

    with history.open("a") as fh:
        # A torn previous write may have left the file without a trailing
        # newline; never glue the new row onto it.
        if history.stat().st_size and not history.read_text().endswith("\n"):
            fh.write("\n")
        fh.write(json.dumps(payload) + "\n")
    return report


def describe_store(path: Path) -> list[str]:
    """Describe one persisted result store, whichever backend wrote it."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.experiments.backends import open_backend

    backend = open_backend(path)
    if not backend.exists():
        return [f"store artefact: {path} missing"]
    loaded = backend.load()
    lines = [
        f"store artefact: {path}",
        f"  backend: {backend.kind}",
        f"  rows: {len(loaded.rows)}",
        f"  precision: {loaded.precision or '-'}",
        f"  digest: {backend.digest()}",
    ]
    if loaded.salvaged or loaded.corrupt_files:
        lines.append(
            f"  WARNING: artefact was corrupt "
            f"(salvaged={loaded.salvaged}, files={loaded.corrupt_files})"
        )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="maximum tolerated relative median slowdown (default 0.25)",
    )
    parser.add_argument(
        "--storage",
        type=Path,
        default=Path(".benchmarks"),
        help="pytest-benchmark storage directory (default ./.benchmarks)",
    )
    parser.add_argument(
        "--bench-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="render + track a BENCH_headline.json perf artefact "
        "(informational, never gates)",
    )
    parser.add_argument(
        "--store",
        type=Path,
        action="append",
        default=None,
        metavar="PATH",
        help="describe a persisted result store (file or sqlite backend): "
        "engine, rows, precision, canonical digest; repeatable — equal "
        "digests mean equal campaign contents (informational, never gates)",
    )
    args = parser.parse_args(argv)

    if args.store:
        for store_path in args.store:
            for line in describe_store(store_path):
                print(line)
        if args.bench_json is None:
            return 0

    if args.bench_json is not None:
        if args.bench_json.exists():
            for line in report_bench_json(args.bench_json):
                print(line)
        else:
            print(f"perf artefact: {args.bench_json} missing — skipping")

    saves = find_saves(args.storage)
    if len(saves) < 2:
        print(
            f"benchmark gate: {len(saves)} save(s) under {args.storage}; "
            "need 2 to compare — passing trivially"
        )
        return 0

    previous, latest = saves[-2], saves[-1]
    print(f"benchmark gate: {previous.name} (old) vs {latest.name} (new)")
    lines, offenders = compare(
        load_medians(previous), load_medians(latest), args.threshold
    )
    for line in lines:
        print(f"  {line}")
    if offenders:
        print(
            f"FAIL: {len(offenders)} benchmark(s) regressed by more than "
            f"{args.threshold:.0%}: {', '.join(offenders)}"
        )
        return 1
    print("OK: no benchmark regressed beyond the threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
