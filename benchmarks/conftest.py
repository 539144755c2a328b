"""Shared benchmark fixtures.

Each benchmark regenerates one of the paper's tables/figures and writes the
rendered rows/series to ``benchmarks/results/<name>.txt`` (and stdout), so
the reproduction artefacts survive the run.

Two scales:

* default — truncated populations / core grids, minutes for the whole
  harness; the *shapes* (who wins, where the crossovers sit) already hold;
* ``REPRO_FULL=1`` — the paper-scale campaign (full 3481-pair population,
  120-workload sample, cores 2..10).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments.store import ResultStore

#: Quick-mode artefacts; the paper-scale campaign writes results_full/.
RESULTS_DIR = Path(__file__).parent / "results"

#: Paper-scale mode toggle.
FULL = os.environ.get("REPRO_FULL", "") not in ("", "0")

#: Catalog truncation for quick mode (None = full 59 entries).
LIMIT = None if FULL else 16

#: Core grid for Figures 6-8.
CORES = (2, 3, 4, 5, 6, 7, 8, 9, 10) if FULL else (2, 4, 6, 8, 10)

#: Campaign worker processes (REPRO_WORKERS: 1 = serial, 0 = auto-detect).
WORKERS = int(os.environ.get("REPRO_WORKERS", "1"))

#: Solver precision the campaign runs under (DESIGN.md §10). Benchmarks
#: default to the fast tolerance-contracted kernel — that is the mode
#: campaigns ship with; set REPRO_PRECISION=exact to time the
#: bitwise-reproducible path instead.
PRECISION = os.environ.get("REPRO_PRECISION", "fast")

#: Execution pool for REPRO_WORKERS > 1: processes (default) or threads.
POOL = os.environ.get("REPRO_POOL", "processes")


@pytest.fixture(scope="session")
def store() -> ResultStore:
    """One memoising store for the whole harness — Figures 1 and 4-8 share
    most of their underlying executions."""
    return ResultStore(n_workers=WORKERS, precision=PRECISION, pool=POOL)


@pytest.fixture(scope="session")
def grid(store):
    """The shared Figures 4-8 campaign grid."""
    from repro.experiments.grid import build_sample, run_grid

    sample = build_sample(store, limit=LIMIT)
    return run_grid(store, sample, cores=CORES)


def publish(name: str, text: str) -> None:
    """Print a rendered table and persist it.

    Quick mode writes benchmarks/results/, the paper-scale campaign
    benchmarks/results_full/ — so a quick re-run never clobbers the
    full-campaign artefacts EXPERIMENTS.md cites.
    """
    print()
    print(text)
    out_dir = RESULTS_DIR.parent / ("results_full" if FULL else "results")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{name}.txt").write_text(text + "\n")


# -- machine-readable perf artefact (BENCH_headline.json) -----------------

#: Session bookkeeping for the perf artefact: harness start time plus the
#: wall-clock of the headline benchmark proper (set by bench_headline).
SESSION_PERF: dict[str, float | None] = {
    "t0": None,
    "headline_wall_s": None,
}


def pytest_sessionstart(session) -> None:
    """Zero the solver counters so the artefact covers exactly this run."""
    from repro.sim.contention import reset_solver_counters

    reset_solver_counters()
    SESSION_PERF["t0"] = time.perf_counter()
    SESSION_PERF["headline_wall_s"] = None


def pytest_sessionfinish(session, exitstatus) -> None:
    """Write benchmarks/results*/BENCH_headline.json (see compare_saves).

    Captures the whole harness: wall-clock, scalar-vs-batched solver call
    and iteration counts, batch sizes, and the steady-state memo's hit
    rate. ``compare_saves.py --bench-json`` renders and tracks it across
    runs; everything here is informational (the wall-clock regression gate
    stays with the pytest-benchmark autosaves).
    """
    if SESSION_PERF["t0"] is None:
        return
    from repro.sim.contention import GLOBAL_STEADY_CACHE, solver_counters

    counters = solver_counters()
    scalar = counters["scalar_solves"]
    batch_points = counters["batch_points"]
    batch_solves = counters["batch_solves"]
    total_points = scalar + batch_points
    cache = GLOBAL_STEADY_CACHE.stats()
    lifetime = cache.pop("lifetime")
    lookups = cache["hits"] + cache["misses"]
    payload = {
        "schema": 1,
        "full": FULL,
        "limit": LIMIT,
        "workers": WORKERS,
        "precision": PRECISION,
        "pool": POOL if WORKERS != 1 else "serial",
        "wall_clock_s": round(time.perf_counter() - SESSION_PERF["t0"], 3),
        "headline_wall_s": (
            None
            if SESSION_PERF["headline_wall_s"] is None
            else round(SESSION_PERF["headline_wall_s"], 3)
        ),
        "solver": {
            **counters,
            "total_points": total_points,
            "python_calls": scalar + batch_solves,
            "points_per_python_call": (
                round(total_points / (scalar + batch_solves), 3)
                if scalar + batch_solves
                else None
            ),
            "scalar_call_reduction": (
                round(total_points / scalar, 3) if scalar else None
            ),
            "mean_batch_size": (
                round(batch_points / batch_solves, 3) if batch_solves else None
            ),
        },
        "steady_cache": {
            **cache,
            "hit_rate": round(cache["hits"] / lookups, 4) if lookups else None,
            "lifetime": lifetime,
        },
    }
    out_dir = RESULTS_DIR.parent / ("results_full" if FULL else "results")
    out_dir.mkdir(exist_ok=True)
    path = out_dir / "BENCH_headline.json"
    # Merge over the existing artefact so the block bench_fast owns
    # ("fast") survives a harness re-run instead of being clobbered.
    merged: dict = {}
    if path.exists():
        try:
            merged = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            merged = {}
    merged.update(payload)
    text = json.dumps(merged, indent=2) + "\n"
    path.write_text(text)
    if not FULL:
        # Refresh the committed repo-root copy (quick mode is the
        # configuration the repo tracks).
        (RESULTS_DIR.parent.parent / "BENCH_headline.json").write_text(text)
    print(f"\nperf artefact: {path}")
