"""Admission + placement: the control plane's deterministic core.

The plane is **declarative**: it never patches placement incrementally.
After every applied event it recomputes the *canonical placement* — a
pure function of (live jobs in arrival order, healthy node set) — and
reconciles the fleet to it. That one design choice buys the whole
robustness story:

* a node going down is just "reconcile over the survivors": its jobs
  drain to other nodes or queue behind admission, never dropping;
* a node coming back is "reconcile over the larger set": jobs migrate
  home, and the state converges to exactly what a fault-free history
  would have produced;
* therefore a seeded chaos run and its clean twin end in byte-identical
  terminal placement (the ``make serve-smoke`` contract) — determinism
  is structural, not an accident of scheduling.

Admission ("can this job *ever* run here?") is judged against the full
configured roster regardless of health, so accept/reject decisions are
also chaos-invariant: degraded capacity queues jobs, it never rejects
them. The headroom model is the paper's own admission search
(:func:`repro.core.admission.find_max_bes`, memoised per (HP, BE)
pairing through the global solver caches): a node hosting HP *h* admits
at most ``min_t max_bes(h, t)`` BEs over the resident BE types *t*, and
an HP-less node admits up to ``n_cores - 1`` unmanaged BEs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.admission import find_max_bes
from repro.obs import get_event_log, get_registry
from repro.serve.events import ServeEvent
from repro.sim.platform import PlatformConfig, TABLE1_PLATFORM

__all__ = [
    "AdmissionCache",
    "ControlPlane",
    "Job",
    "PlaneConfig",
    "JOB_STATUSES",
    "NODE_HEALTH",
]

JOB_STATUSES = ("placed", "pending", "rejected", "departed")
NODE_HEALTH = ("healthy", "crashed", "hung", "partitioned")

#: Node health states excluded from placement.
_DOWN = ("crashed", "hung", "partitioned")

_CATALOG_NAMES: frozenset[str] | None = None


def _catalog_names() -> frozenset[str]:
    """Valid app names, resolved once (submit validation)."""
    global _CATALOG_NAMES
    if _CATALOG_NAMES is None:
        from repro.workloads import app_names

        _CATALOG_NAMES = frozenset(app_names())
    return _CATALOG_NAMES


@dataclass
class Job:
    """One submitted job and where it stands."""

    job_id: str
    kind: str  #: ``"hp"`` or ``"be"``.
    app: str   #: Catalog application name.
    seq: int   #: Arrival order (the canonical placement order).
    status: str = "pending"
    node_id: str | None = None

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "app": self.app,
            "seq": self.seq,
            "status": self.status,
            "node_id": self.node_id,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "Job":
        return cls(
            job_id=raw["job_id"],
            kind=raw["kind"],
            app=raw["app"],
            seq=int(raw["seq"]),
            status=raw.get("status", "pending"),
            node_id=raw.get("node_id"),
        )


@dataclass(frozen=True)
class PlaneConfig:
    """Serializable control-plane configuration."""

    node_ids: tuple[str, ...]
    policy: str = "DICER"
    slo: float = 0.9
    precision: str = "fast"

    def __post_init__(self) -> None:
        if not self.node_ids:
            raise ValueError("need at least one node")
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("node ids must be unique")
        if not 0.0 < self.slo <= 1.0:
            raise ValueError(f"slo must be in (0, 1], got {self.slo}")

    @classmethod
    def for_nodes(cls, n_nodes: int, **kwargs) -> "PlaneConfig":
        """A roster of ``n_nodes`` nodes named ``node00..``."""
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        return cls(
            node_ids=tuple(f"node{i:02d}" for i in range(n_nodes)), **kwargs
        )

    def to_dict(self) -> dict:
        return {
            "node_ids": list(self.node_ids),
            "policy": self.policy,
            "slo": self.slo,
            "precision": self.precision,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PlaneConfig":
        """Load a config; keys this version no longer reads (an old
        ``kernel`` field) are ignored."""
        return cls(
            node_ids=tuple(raw["node_ids"]),
            policy=raw.get("policy", "DICER"),
            slo=float(raw.get("slo", 0.9)),
            precision=raw.get("precision", "fast"),
        )


class AdmissionCache:
    """Memoised SLO-headroom lookups backed by the admission search.

    ``max_bes(hp, be)`` answers "how many BEs of this type can a node
    running this HP admit under the configured policy and SLO?" — one
    :func:`find_max_bes` binary search on first use, a dict hit after
    (and the underlying solver probes share the global steady-state
    cache, so even misses are mostly memo traffic).
    """

    def __init__(
        self,
        *,
        policy: str,
        slo: float,
        platform: PlatformConfig = TABLE1_PLATFORM,
        precision: str = "fast",
    ) -> None:
        self.policy = policy
        self.slo = slo
        self.platform = platform
        self.precision = precision
        self._max_bes: dict[tuple[str, str], int] = {}

    def max_bes(self, hp_app: str | None, be_app: str) -> int:
        """Admissible BE count for ``be_app`` on a node hosting ``hp_app``.

        ``hp_app=None`` (an HP-less batch node) admits up to the
        physical core count minus the reserved HP core.
        """
        if hp_app is None:
            return self.platform.n_cores - 1
        key = (hp_app, be_app)
        cached = self._max_bes.get(key)
        if cached is None:
            plan = find_max_bes(
                hp_app,
                be_app,
                self.policy,
                self.slo,
                platform=self.platform,
                precision=self.precision,
            )
            cached = plan.max_bes
            self._max_bes[key] = cached
            get_registry().counter("serve.admission.searches").inc()
        return cached


@dataclass
class _NodeEntry:
    """Plane-side view of one node."""

    health: str = "healthy"
    restarts: int = 0

    def to_dict(self) -> dict:
        return {"health": self.health, "restarts": self.restarts}

    @classmethod
    def from_dict(cls, raw: dict) -> "_NodeEntry":
        return cls(
            health=raw.get("health", "healthy"),
            restarts=int(raw.get("restarts", 0)),
        )


def _zero_counters() -> dict[str, int]:
    return {
        "events_applied": 0,
        "submitted": 0,
        "accepted": 0,
        "rejected": 0,
        "departed": 0,
        "migrations": 0,
        "drains": 0,
        "node_crashes": 0,
        "node_hangs": 0,
        "node_partitions": 0,
        "node_recoveries": 0,
        "placement_faults": 0,
        "placement_retries": 0,
        "placement_failures": 0,
    }


class ControlPlane:
    """The deterministic placement state machine.

    All mutation flows through :meth:`apply_event`; every application
    ends in :meth:`reconcile`, so observers (API, snapshots, digests)
    always see a canonically-placed fleet. The plane holds **no clocks
    and no RNG** — state is a pure fold over the event sequence, which
    is what makes snapshots, restarts and chaos replays exact.
    """

    def __init__(
        self,
        config: PlaneConfig,
        *,
        admission: AdmissionCache | None = None,
        platform: PlatformConfig = TABLE1_PLATFORM,
    ) -> None:
        self.config = config
        self.platform = platform
        self.admission = admission or AdmissionCache(
            policy=config.policy,
            slo=config.slo,
            platform=platform,
            precision=config.precision,
        )
        self.jobs: dict[str, Job] = {}
        self.nodes: dict[str, _NodeEntry] = {
            nid: _NodeEntry() for nid in config.node_ids
        }
        self.counters: dict[str, int] = _zero_counters()
        self.applied_seq: int = -1
        #: Wall-clock seconds spent applying events, accumulated across
        #: daemon restarts (monitor throughput; NOT part of the digest).
        self.elapsed_s: float = 0.0

    # -- derived views ---------------------------------------------------

    def jobs_in_order(self) -> list[Job]:
        """Every job ever submitted, in arrival order."""
        return sorted(self.jobs.values(), key=lambda j: j.seq)

    def live_jobs(self) -> list[Job]:
        """Accepted jobs still in the system, in arrival order."""
        return [
            j for j in self.jobs_in_order() if j.status in ("placed", "pending")
        ]

    def healthy_nodes(self) -> list[str]:
        """Roster order, healthy only."""
        return [
            nid
            for nid in self.config.node_ids
            if self.nodes[nid].health == "healthy"
        ]

    def degraded(self) -> bool:
        """Whether any node is currently down."""
        return any(e.health in _DOWN for e in self.nodes.values())

    def node_assignment(self, node_id: str) -> tuple[Job | None, list[Job]]:
        """(HP job or None, BE jobs in arrival order) placed on a node."""
        hp = None
        bes = []
        for job in self.jobs_in_order():
            if job.status != "placed" or job.node_id != node_id:
                continue
            if job.kind == "hp":
                hp = job
            else:
                bes.append(job)
        return hp, bes

    # -- canonical placement ---------------------------------------------

    def _be_capacity(self, hp_app: str | None, be_types) -> int:
        """BE slots on a node hosting ``hp_app`` and BE types ``be_types``."""
        phys = self.platform.n_cores - 1
        if hp_app is None or not be_types:
            return phys
        return min(
            phys,
            min(self.admission.max_bes(hp_app, t) for t in set(be_types)),
        )

    def _place_one(self, job: Job, hp_on: dict, bes_on: dict) -> str | None:
        """Greedy best-headroom node for ``job`` given partial placement."""
        best = None
        best_headroom = None
        for nid in hp_on:  # insertion = roster order → deterministic ties
            if job.kind == "hp":
                if hp_on[nid] is not None:
                    continue
                cap = self._be_capacity(job.app, bes_on[nid])
                headroom = cap - len(bes_on[nid])
                if headroom < 0:
                    continue  # resident BEs inadmissible under this HP
            else:
                cap = self._be_capacity(
                    hp_on[nid], list(bes_on[nid]) + [job.app]
                )
                headroom = cap - len(bes_on[nid])
                if headroom < 1:
                    continue
            if best is None or headroom > best_headroom:
                best, best_headroom = nid, headroom
        return best

    def canonical_placement(
        self, jobs: list[Job], node_ids: list[str]
    ) -> tuple[dict[str, str], list[str]]:
        """Place ``jobs`` (arrival order) onto ``node_ids`` greedily.

        Pure function of its arguments: bin-pack by predicted SLO
        headroom, preferring the node with the most remaining admissible
        slots (load balancing keeps the SLO safety margin widest),
        roster order breaking ties. Returns (job_id → node_id,
        overflowed job_ids).
        """
        hp_on: dict[str, str | None] = {nid: None for nid in node_ids}
        bes_on: dict[str, list[str]] = {nid: [] for nid in node_ids}
        assignment: dict[str, str] = {}
        overflow: list[str] = []
        for job in jobs:
            nid = self._place_one(job, hp_on, bes_on)
            if nid is None:
                overflow.append(job.job_id)
            else:
                assignment[job.job_id] = nid
                if job.kind == "hp":
                    hp_on[nid] = job.app
                else:
                    bes_on[nid].append(job.app)
        return assignment, overflow

    def _admits(self, candidate: Job) -> bool:
        """Admission check against the FULL roster, ignoring health.

        Chaos-invariant by construction: a degraded plane queues what it
        cannot place, but accepts exactly what a healthy plane would.
        """
        jobs = self.live_jobs() + [candidate]
        assignment, overflow = self.canonical_placement(
            jobs, list(self.config.node_ids)
        )
        return candidate.job_id in assignment

    # -- reconciliation --------------------------------------------------

    def reconcile(self) -> dict[str, int]:
        """Converge the fleet to the canonical placement.

        Returns ``{"migrations": ..., "drains": ..., "placements": ...}``
        for this pass (also accumulated into :attr:`counters`).
        """
        live = self.live_jobs()
        assignment, _overflow = self.canonical_placement(
            live, self.healthy_nodes()
        )
        migrations = drains = placements = 0
        for job in live:
            new = assignment.get(job.job_id)
            old = job.node_id if job.status == "placed" else None
            if new != old:
                if new is None:
                    drains += 1
                elif old is None:
                    placements += 1
                else:
                    migrations += 1
            job.node_id = new
            job.status = "placed" if new is not None else "pending"
        self.counters["migrations"] += migrations
        self.counters["drains"] += drains
        if migrations or drains:
            registry = get_registry()
            registry.counter("serve.migrations").inc(migrations)
            registry.counter("serve.drains").inc(drains)
            log = get_event_log()
            if log.enabled:
                log.emit(
                    "serve.reconcile",
                    migrations=migrations,
                    drains=drains,
                    placements=placements,
                    degraded=self.degraded(),
                )
        return {
            "migrations": migrations,
            "drains": drains,
            "placements": placements,
        }

    # -- the state machine -----------------------------------------------

    def validate_event(self, event: ServeEvent) -> None:
        """Raise ``ValueError`` iff :meth:`apply_event` would reject this.

        A pure pre-check — no mutation, no reconcile. The daemon's
        write-ahead path runs it *before* committing an event to the
        durable stream, so a bad input (unknown app, duplicate job id,
        unknown node) is refused up front and can never poison the
        replay log with a line that fails on every restart.
        """
        if event.seq <= self.applied_seq:
            raise ValueError(
                f"event seq {event.seq} already applied "
                f"(applied_seq={self.applied_seq})"
            )
        if not hasattr(self, f"_on_{event.kind}"):
            raise ValueError(f"unhandled event kind {event.kind!r}")
        if event.kind == "submit":
            self._check_submit(event)
        elif event.kind != "depart":  # node_* / assign_fault
            self._node(event)
            if event.kind == "assign_fault" and event.count < 0:
                raise ValueError(
                    f"assign_fault count must be >= 0, got {event.count}"
                )

    def apply_event(self, event: ServeEvent) -> dict:
        """Apply one ordered event and reconcile; returns an outcome row.

        Events must arrive in strictly increasing ``seq`` order; a stale
        event (``seq <= applied_seq``) is the replay-overlap case after a
        restart and raises — feeders must skip already-applied events.
        """
        self.validate_event(event)
        outcome: dict = {"seq": event.seq, "kind": event.kind}
        outcome.update(getattr(self, f"_on_{event.kind}")(event) or {})
        self.applied_seq = event.seq
        self.counters["events_applied"] += 1
        self.reconcile()
        log = get_event_log()
        if log.enabled:
            payload = dict(outcome)
            payload["event"] = payload.pop("kind")  # 'kind' is emit()'s own
            log.emit("serve.event", **payload)
        return outcome

    # -- event handlers --------------------------------------------------

    def _check_submit(self, event: ServeEvent) -> None:
        if not event.job_id or not event.app or event.job_kind not in (
            "hp",
            "be",
        ):
            raise ValueError(f"malformed submit event: {event}")
        if event.app not in _catalog_names():
            raise ValueError(f"unknown catalog app {event.app!r}")
        if event.job_id in self.jobs:
            raise ValueError(f"duplicate job id {event.job_id!r}")

    def _on_submit(self, event: ServeEvent) -> dict:
        self._check_submit(event)
        job = Job(
            job_id=event.job_id,
            kind=event.job_kind,
            app=event.app,
            seq=event.seq,
        )
        self.counters["submitted"] += 1
        registry = get_registry()
        registry.counter("serve.submitted").inc()
        if self._admits(job):
            job.status = "pending"  # reconcile() promotes to placed
            self.jobs[job.job_id] = job
            self.counters["accepted"] += 1
            registry.counter("serve.accepted").inc()
            return {"job_id": job.job_id, "outcome": "accepted"}
        job.status = "rejected"
        self.jobs[job.job_id] = job
        self.counters["rejected"] += 1
        registry.counter("serve.rejected").inc()
        return {"job_id": job.job_id, "outcome": "rejected"}

    def _on_depart(self, event: ServeEvent) -> dict:
        job = self.jobs.get(event.job_id or "")
        if job is None or job.status not in ("placed", "pending"):
            # Departure of an unknown/rejected/already-gone job: a no-op
            # (the load generator does not track admission outcomes).
            return {"job_id": event.job_id, "outcome": "noop"}
        job.status = "departed"
        job.node_id = None
        self.counters["departed"] += 1
        get_registry().counter("serve.departed").inc()
        return {"job_id": job.job_id, "outcome": "departed"}

    def _node(self, event: ServeEvent) -> _NodeEntry:
        entry = self.nodes.get(event.node_id or "")
        if entry is None:
            raise ValueError(f"unknown node {event.node_id!r}")
        return entry

    def _mark_down(self, event: ServeEvent, health: str, counter: str) -> dict:
        entry = self._node(event)
        was = entry.health
        entry.health = health
        self.counters[counter] += 1
        get_registry().counter(f"serve.{counter}").inc()
        log = get_event_log()
        if log.enabled:
            log.emit(
                "serve.node_down",
                node=event.node_id,
                health=health,
                previous=was,
            )
        return {"node_id": event.node_id, "outcome": health}

    def _on_node_crash(self, event: ServeEvent) -> dict:
        return self._mark_down(event, "crashed", "node_crashes")

    def _on_node_hang(self, event: ServeEvent) -> dict:
        return self._mark_down(event, "hung", "node_hangs")

    def _on_node_partition(self, event: ServeEvent) -> dict:
        return self._mark_down(event, "partitioned", "node_partitions")

    def _on_node_recover(self, event: ServeEvent) -> dict:
        entry = self._node(event)
        was = entry.health
        entry.health = "healthy"
        if was == "crashed":
            # A crash lost the node's controller state; recovery is a
            # restart (the node-side counterpart of the daemon's own
            # snapshot-restore, DESIGN.md §14).
            entry.restarts += 1
        self.counters["node_recoveries"] += 1
        get_registry().counter("serve.node_recoveries").inc()
        log = get_event_log()
        if log.enabled:
            log.emit("serve.node_recover", node=event.node_id, previous=was)
        return {"node_id": event.node_id, "outcome": "recovered", "was": was}

    def _on_assign_fault(self, event: ServeEvent) -> dict:
        # Plane state is untouched — the daemon arms the node runtime's
        # fault injector; the counter records the injection for reports.
        self._node(event)  # validate the target
        self.counters["placement_faults"] += event.count
        return {
            "node_id": event.node_id,
            "outcome": "armed",
            "count": event.count,
        }

    # -- derived artefacts ------------------------------------------------

    def placement_state(self) -> dict:
        """The canonical, chaos-invariant placement description.

        Everything here is a pure function of the applied job history:
        per-node assignments, the admission queue, rejected ids and the
        job accounting. Path-dependent observables (migration counts,
        node restarts, elapsed time) are deliberately excluded — see
        :meth:`digest`.
        """
        nodes = {}
        for nid in self.config.node_ids:
            hp, bes = self.node_assignment(nid)
            nodes[nid] = {
                "hp": [hp.job_id, hp.app] if hp else None,
                "bes": [[b.job_id, b.app] for b in bes],
            }
        by_status = {status: 0 for status in JOB_STATUSES}
        for job in self.jobs.values():
            by_status[job.status] += 1
        return {
            "nodes": nodes,
            "pending": [
                [j.job_id, j.kind, j.app]
                for j in self.jobs_in_order()
                if j.status == "pending"
            ],
            "rejected": [
                j.job_id
                for j in self.jobs_in_order()
                if j.status == "rejected"
            ],
            "jobs": by_status,
            "submitted": self.counters["submitted"],
        }

    def digest(self) -> str:
        """SHA-256 of the canonical placement state.

        The ``make serve-smoke`` contract: a chaos run whose nodes have
        all recovered ends with the same digest as the clean run.
        """
        canonical = json.dumps(
            self.placement_state(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def summary(self) -> dict:
        """Accounting + health overview (monitor / API payload)."""
        state = self.placement_state()
        return {
            "applied_seq": self.applied_seq,
            "digest": self.digest(),
            "degraded": self.degraded(),
            "nodes": {
                nid: {
                    "health": self.nodes[nid].health,
                    "restarts": self.nodes[nid].restarts,
                    "hp": state["nodes"][nid]["hp"],
                    "n_bes": len(state["nodes"][nid]["bes"]),
                }
                for nid in self.config.node_ids
            },
            "jobs": state["jobs"],
            "counters": dict(self.counters),
            "elapsed_s": self.elapsed_s,
        }

    # -- snapshots ---------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Full serializable state (the snapshot payload)."""
        return {
            "config": self.config.to_dict(),
            "applied_seq": self.applied_seq,
            "jobs": [j.to_dict() for j in self.jobs_in_order()],
            "nodes": {
                nid: entry.to_dict() for nid, entry in self.nodes.items()
            },
            "counters": dict(self.counters),
            "elapsed_s": self.elapsed_s,
        }

    @classmethod
    def from_snapshot(
        cls,
        state: dict,
        *,
        admission: AdmissionCache | None = None,
        platform: PlatformConfig = TABLE1_PLATFORM,
    ) -> "ControlPlane":
        """Rebuild a plane from :meth:`snapshot_state` output."""
        plane = cls(
            PlaneConfig.from_dict(state["config"]),
            admission=admission,
            platform=platform,
        )
        plane.applied_seq = int(state["applied_seq"])
        plane.jobs = {
            raw["job_id"]: Job.from_dict(raw) for raw in state["jobs"]
        }
        for nid, raw in state.get("nodes", {}).items():
            if nid in plane.nodes:
                plane.nodes[nid] = _NodeEntry.from_dict(raw)
        counters = _zero_counters()
        counters.update(state.get("counters", {}))
        plane.counters = counters
        plane.elapsed_s = float(state.get("elapsed_s", 0.0))
        return plane
