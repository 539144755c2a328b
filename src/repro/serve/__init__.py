"""``repro.serve`` — a fault-tolerant multi-node consolidation control plane.

The paper runs one DICER controller on one node inside a batch
experiment; this package runs *fleets*: an asyncio daemon supervising
many per-node controllers (DICER, or any zoo policy via
:func:`repro.core.policies.policy_from_name`), each driving a
:class:`~repro.rdt.simulated.SimulatedRdt`-backed node, under an
admission path that extends :mod:`repro.core.admission` to place
incoming HP/BE jobs onto nodes by predicted SLO headroom.

Robustness is the architecture, not a feature (DESIGN.md §14):

* the placement state machine (:mod:`repro.serve.placement`) is
  *declarative* — after every event it reconciles the fleet to the
  canonical placement of the live job set, so node failures drain jobs
  to survivors, recoveries pull them home, and the terminal state is a
  pure function of the job history, byte-identical between a clean run
  and a chaos-ridden one;
* nodes are supervised by heartbeat + deadline (:mod:`repro.serve.node`)
  with fault injection at the node boundary (:class:`~repro.rdt.faulty.
  NodeFaultyRdt`: crash/hang/partition composing with the §8 counter
  faults);
* the daemon (:mod:`repro.serve.daemon`) checkpoints its state into a
  checksummed atomic snapshot (:mod:`repro.serve.snapshot`, the §9
  crash-safety idioms) and restarts from it — SIGTERM-kill a run, start
  again, and it resumes exactly where it stopped;
* placement actuation retries with bounded deterministic backoff, and a
  node that exhausts its retries is marked down and drained rather than
  wedging the plane — the plane keeps serving at reduced capacity.

:mod:`repro.serve.loadgen` replays thousands of seeded arrival/departure
events and :mod:`repro.serve.chaos` weaves node faults into them;
``make serve-smoke`` proves the determinism contract end to end.
"""

from repro.serve.api import ServeApi
from repro.serve.chaos import ChaosPlan, weave_chaos
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.events import ServeEvent, read_events, write_events
from repro.serve.loadgen import generate_events
from repro.serve.placement import (
    AdmissionCache,
    ControlPlane,
    Job,
    PlaneConfig,
)
from repro.serve.node import NodeRuntime, NodeSupervisor
from repro.serve.snapshot import load_snapshot, save_snapshot

__all__ = [
    "AdmissionCache",
    "ChaosPlan",
    "ControlPlane",
    "Job",
    "NodeRuntime",
    "NodeSupervisor",
    "PlaneConfig",
    "ServeApi",
    "ServeConfig",
    "ServeDaemon",
    "ServeEvent",
    "generate_events",
    "load_snapshot",
    "read_events",
    "save_snapshot",
    "weave_chaos",
    "write_events",
]
