"""``repro.valid`` — controller conformance tooling.

The whole reproduction hangs on :class:`~repro.core.dicer.DicerController`
faithfully implementing paper Listings 1-3, and hand-written unit tests
have already missed state-machine bugs twice. This package is the
correctness harness that survives refactors:

* :mod:`repro.valid.reference` — deliberately naive, line-by-line
  transcriptions used as executable oracles: the DICER listings plus the
  policy-zoo controllers (LFOC clustering, CBP coordination);
* :mod:`repro.valid.differential` — one table, ``CONFORMANCE``, pairs each
  controller with its oracle; ``run_differential`` feeds identical
  synthetic RDT counter streams to both and reports any per-period
  divergence, dumping replayable JSONL traces for shrunk counterexamples;
* :mod:`repro.valid.record` — records the golden-trace corpus under
  ``tests/golden/`` (``python -m repro.valid.record`` regenerates it);
* :class:`~repro.rdt.faulty.FaultyRdt` (re-exported here) — RDT fault
  injection: dropped, stale, wrapped and zero-dt counter reads.

``make conformance`` runs the whole suite (see DESIGN.md §8).
"""

from repro.rdt.faulty import FaultKind, FaultyRdt
from repro.valid.differential import (
    CONFORMANCE,
    Divergence,
    DifferentialResult,
    ScriptedRdt,
    dump_trace,
    load_trace,
    replay_trace,
    run_differential,
)
from repro.valid.reference import (
    ReferenceCbp,
    ReferenceCbpDecision,
    ReferenceController,
    ReferenceDecision,
    ReferenceDicer,
    ReferenceLfoc,
    ReferenceLfocDecision,
)

__all__ = [
    "CONFORMANCE",
    "Divergence",
    "DifferentialResult",
    "FaultKind",
    "FaultyRdt",
    "ReferenceCbp",
    "ReferenceCbpDecision",
    "ReferenceController",
    "ReferenceDecision",
    "ReferenceDicer",
    "ReferenceLfoc",
    "ReferenceLfocDecision",
    "ScriptedRdt",
    "dump_trace",
    "load_trace",
    "replay_trace",
    "run_differential",
]
