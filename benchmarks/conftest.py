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

import os
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


@pytest.fixture(scope="session")
def store() -> ResultStore:
    """One memoising store for the whole harness — Figures 1 and 4-8 share
    most of their underlying executions."""
    return ResultStore(n_workers=WORKERS, precision=PRECISION)


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

