#!/usr/bin/env python
"""Regression gate over pytest-benchmark autosaves.

``make bench-quick`` runs the benchmark suite with ``--benchmark-autosave``
and then invokes this script, which compares the two most recent saves
(newest vs. its predecessor) benchmark-by-benchmark and fails — exit code
1 — when any shared benchmark's median wall-clock regressed by more than
the threshold (default 25 %). With fewer than two saves there is nothing
to compare and the gate passes trivially.

With ``--store PATH`` it instead describes a persisted
result-store artefact — either backend: the checksummed JSON file or the
SQLite database — printing the engine, row count, precision stamp and
the backend-independent canonical content digest, so two campaign
artefacts can be compared for equality regardless of which engine or how
many queue workers wrote them.

Usage::

    python benchmarks/compare_saves.py [--threshold 0.25] [--storage DIR]
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
        return 0

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
