"""Admission + placement: the control plane's deterministic core.

The plane is **declarative**: after every applied event it reconciles
the fleet to the *canonical placement* — a pure function of (live jobs
in arrival order, healthy node set). The greedy placement is a left fold
in arrival order, so the plane keeps a cached fold per node set: a
submit extends it with the new job, and a departure rewinds it (an undo
log, one record per job) to the departed job and re-adds the jobs that
arrived after. It is built from scratch through
:meth:`ControlPlane.canonical_placement` only for a node set without a
cached fold; both paths share :class:`_Fold`, so the result is the same
function either way. That one design choice buys the whole
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
from collections.abc import Sequence
from dataclasses import asdict, dataclass

from repro.core.admission import find_max_bes
from repro.core.policies import policy_from_name
from repro.obs import get_event_log, get_registry
from repro.serve.events import ServeEvent
from repro.sim.contention import _check_precision
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
        # The same checks (and messages) find_max_bes applies at the
        # first HP submit; a snapshot's admission memo is keyed by both.
        policy_from_name(self.policy)
        _check_precision(self.precision)

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
    :func:`find_max_bes` binary search on first use, a dict hit after.
    Each search counts in ``serve.admission.searches`` and its wall time
    in the ``serve.admission.search_s`` histogram; hits are not timed.
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

    def memo_key(self) -> dict:
        """What every memoised answer depends on besides (HP, BE)."""
        return {
            "policy": self.policy,
            "slo": self.slo,
            "precision": self.precision,
            "platform": asdict(self.platform),
        }

    def memo_state(self) -> dict:
        """The memo as a snapshot entry, sorted so its bytes do not
        depend on the order the searches ran in."""
        return {
            "key": self.memo_key(),
            "max_bes": [
                [hp, be, n] for (hp, be), n in sorted(self._max_bes.items())
            ],
        }

    def load_memo(self, raw: dict | None) -> None:
        """Adopt the answers of a :meth:`memo_state` entry.

        An entry written under another policy, SLO, precision or
        platform is dropped whole: its answers are not this cache's.
        """
        if raw and raw.get("key") == self.memo_key():
            for hp, be, n in raw["max_bes"]:
                self._max_bes.setdefault((hp, be), int(n))

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
            registry = get_registry()
            with registry.histogram("serve.admission.search_s").time():
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
            registry.counter("serve.admission.searches").inc()
        return cached


class _Fold:
    """Greedy placement state after folding a prefix of jobs onto nodes.

    Per node it keeps the HP app, the BE count, the resident BE types (a
    frozenset, replaced when a type first arrives or its last instance is
    rewound away) and the running BE capacity
    ``min(phys, min_t max_bes(hp, t))``. The greedy rule: most remaining
    admissible slots wins (load balancing keeps the SLO safety margin
    widest), node order breaking ties.

    Judging a job is a scan over admission answers the fold has already
    looked up: per BE app a row ``{hp_app: max_bes}``, and per HP app
    its capacity by resident type set. Both are pure functions of their
    keys, so nothing ever invalidates them; a miss reads through
    :meth:`AdmissionCache.max_bes`, the one place a search starts.

    Every :meth:`add` pushes one undo record, so :meth:`rewind` can take
    the fold back to any shorter prefix exactly.
    """

    def __init__(
        self, admission: AdmissionCache, node_ids: Sequence[str], phys: int
    ) -> None:
        self.admission = admission
        self.phys = phys
        self.node_ids = tuple(node_ids)
        # The per-node dicts keep node order (values are only ever
        # reassigned), so a scan can zip their values with node_ids.
        self.hp_on: dict[str, str | None] = dict.fromkeys(self.node_ids)
        self.n_be: dict[str, int] = dict.fromkeys(self.node_ids, 0)
        self.types_on: dict[str, frozenset[str]] = dict.fromkeys(
            self.node_ids, frozenset()
        )
        self.cap_on: dict[str, int] = dict.fromkeys(self.node_ids, phys)
        self.job_ids: list[str] = []
        self.assignment: dict[str, str] = {}
        self.overflow: list[str] = []
        #: One record per folded job: ``(job, node, the node's previous
        #: cap_on, whether the job's BE type was new on the node)``;
        #: ``node`` is None for an overflowed job.
        self._undo: list[tuple[Job, str | None, int, bool]] = []
        #: BE app -> {HP app: max_bes}, filled on first use.
        self._rows: dict[str, dict[str, int]] = {}
        #: HP app -> {resident BE types: the HP's BE capacity there}.
        self._hp_caps: dict[str, dict[frozenset[str], int]] = {}

    def _row(self, be_app: str) -> dict[str, int]:
        row = self._rows.get(be_app)
        if row is None:
            row = self._rows[be_app] = {}
        return row

    def _hp_cap(self, hp_app: str, types) -> int:
        """BE slots under ``hp_app`` with resident BE types ``types``."""
        cap = self.phys
        for be_app in types:
            row = self._row(be_app)
            n = row.get(hp_app)
            if n is None:
                n = row[hp_app] = self.admission.max_bes(hp_app, be_app)
            if n < cap:
                cap = n
        return cap

    def best_node(self, job: Job) -> str | None:
        """Greedy best-headroom node for ``job``.

        Leaves the placement state as it is; only the answer memos fill.
        """
        app = job.app
        best = None
        if job.kind == "hp":
            caps = self._hp_caps.get(app)
            if caps is None:
                caps = self._hp_caps[app] = {}
            # An HP fits with zero BE slots to spare; below that the
            # resident BEs are inadmissible under it.
            best_headroom = -1
            for nid, hp, types, n in zip(
                self.node_ids,
                self.hp_on.values(),
                self.types_on.values(),
                self.n_be.values(),
            ):
                if hp is not None:
                    continue
                cap = caps.get(types)
                if cap is None:
                    cap = caps[types] = self._hp_cap(app, types)
                if cap - n > best_headroom:
                    best, best_headroom = nid, cap - n
            return best
        row = self._row(app)
        max_bes = self.admission.max_bes
        best_headroom = 0  # a BE needs a free slot
        for nid, hp, cap, n in zip(
            self.node_ids,
            self.hp_on.values(),
            self.cap_on.values(),
            self.n_be.values(),
        ):
            if hp is not None:
                m = row.get(hp)
                if m is None:
                    m = row[hp] = max_bes(hp, app)
                if m < cap:
                    cap = m
            if cap - n > best_headroom:
                best, best_headroom = nid, cap - n
        return best

    def add(self, job: Job) -> None:
        """Place ``job`` on :meth:`best_node` and commit it to the state.

        The capacity update reads the memo entry :meth:`best_node` has
        just filled for the chosen node.
        """
        nid = self.best_node(job)
        self.job_ids.append(job.job_id)
        if nid is None:
            self.overflow.append(job.job_id)
            self._undo.append((job, None, 0, False))
            return
        self.assignment[job.job_id] = nid
        cap = self.cap_on[nid]
        if job.kind == "hp":
            self._undo.append((job, nid, cap, False))
            self.hp_on[nid] = job.app
            self.cap_on[nid] = self._hp_caps[job.app][self.types_on[nid]]
        else:
            types = self.types_on[nid]
            new_type = job.app not in types
            self._undo.append((job, nid, cap, new_type))
            self.n_be[nid] += 1
            if new_type:
                self.types_on[nid] = types | {job.app}
            hp = self.hp_on[nid]
            if hp is not None:
                self.cap_on[nid] = min(cap, self._rows[job.app][hp])

    def rewind(self, k: int) -> None:
        """Undo :meth:`add` back to the first ``k`` jobs, newest first."""
        while len(self.job_ids) > k:
            job_id = self.job_ids.pop()
            job, nid, cap, new_type = self._undo.pop()
            if nid is None:
                self.overflow.pop()
                continue
            del self.assignment[job_id]
            self.cap_on[nid] = cap
            if job.kind == "hp":
                self.hp_on[nid] = None
            else:
                self.n_be[nid] -= 1
                if new_type:
                    self.types_on[nid] = self.types_on[nid] - {job.app}


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
        #: The job table: accepted, not yet departed jobs in arrival
        #: order. A job that reaches a terminal status leaves it.
        self.jobs: dict[str, Job] = {}
        #: Terminal jobs keep only their ids, in insertion-ordered dicts
        #: used as sets: rejected ids in arrival order (the digest lists
        #: them) and departed ids in departure order. With the job table
        #: they make every id ever submitted, for duplicate detection.
        self.rejected_ids: dict[str, None] = {}
        self.departed_ids: dict[str, None] = {}
        #: Cached greedy folds keyed by node tuple (see :meth:`_fold_for`).
        self._folds: dict[tuple[str, ...], _Fold] = {}
        self.nodes: dict[str, _NodeEntry] = {
            nid: _NodeEntry() for nid in config.node_ids
        }
        self.counters: dict[str, int] = _zero_counters()
        self.applied_seq: int = -1
        #: Wall-clock seconds spent applying events, accumulated across
        #: daemon restarts (monitor throughput; NOT part of the digest).
        self.elapsed_s: float = 0.0

    # -- derived views ---------------------------------------------------

    def live_jobs(self) -> list[Job]:
        """Accepted jobs still in the system, in arrival order."""
        return list(self.jobs.values())

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

    def assignments(self) -> dict[str, tuple[Job | None, list[Job]]]:
        """Node → (HP job or None, BE jobs in arrival order), roster order."""
        out: dict[str, tuple[Job | None, list[Job]]] = {
            nid: (None, []) for nid in self.config.node_ids
        }
        for job in self.jobs.values():
            if job.status != "placed":
                continue
            hp, bes = out[job.node_id]
            if job.kind == "hp":
                out[job.node_id] = (job, bes)
            else:
                bes.append(job)
        return out

    # -- canonical placement ---------------------------------------------

    def canonical_placement(
        self, jobs: list[Job], node_ids: Sequence[str]
    ) -> _Fold:
        """Place ``jobs`` (arrival order) onto ``node_ids`` from scratch.

        Pure function of its arguments: bin-pack by predicted SLO
        headroom (:class:`_Fold`). The returned fold's ``assignment``
        maps job_id → node_id and ``overflow`` lists the unplaced ids.
        """
        fold = _Fold(self.admission, node_ids, self.platform.n_cores - 1)
        for job in jobs:
            fold.add(job)
        return fold

    def _fold_for(self, node_ids: tuple[str, ...]) -> _Fold:
        """The canonical placement of the live jobs onto ``node_ids``.

        Reuses the cached fold: when its jobs are a prefix of the live
        jobs (only submits happened since) it is extended; otherwise it
        is rewound to the longest common prefix (the first departed job)
        and the rest is re-added. Only a node tuple without a cached fold
        is built from scratch through :meth:`canonical_placement`. At
        most two folds are cached: the roster's (admission) and the
        healthy set's (reconcile).
        """
        live = self.live_jobs()
        fold = self._folds.get(node_ids)
        registry = get_registry()
        if fold is None:
            fold = self.canonical_placement(live, node_ids)
            roster = self.config.node_ids
            self._folds = {
                k: f for k, f in self._folds.items() if k == roster
            }
            self._folds[node_ids] = fold
            registry.counter("serve.placement.rebuilds").inc()
            return fold
        done = fold.job_ids
        if [j.job_id for j in live[: len(done)]] != done:
            k = 0
            for job, job_id in zip(live, done):
                if job.job_id != job_id:
                    break
                k += 1
            registry.counter("serve.placement.rewound").inc(len(done) - k)
            fold.rewind(k)
        for job in live[len(done):]:
            fold.add(job)
        registry.counter("serve.placement.extends").inc()
        return fold

    def _admits(self, candidate: Job) -> bool:
        """Admission check against the FULL roster, ignoring health.

        Chaos-invariant by construction: a degraded plane queues what it
        cannot place, but accepts exactly what a healthy plane would.
        """
        roster = self._fold_for(self.config.node_ids)
        return roster.best_node(candidate) is not None

    # -- reconciliation --------------------------------------------------

    def reconcile(self) -> dict[str, int]:
        """Converge the fleet to the canonical placement.

        Returns ``{"migrations": ..., "drains": ..., "placements": ...}``
        for this pass (also accumulated into :attr:`counters`).
        """
        with get_registry().histogram("serve.reconcile_s").time():
            return self._reconcile()

    def _reconcile(self) -> dict[str, int]:
        assignment = self._fold_for(tuple(self.healthy_nodes())).assignment
        migrations = drains = placements = 0
        for job in self.jobs.values():
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
        with get_registry().histogram("serve.apply_s").time():
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
        if (
            event.job_id in self.jobs
            or event.job_id in self.rejected_ids
            or event.job_id in self.departed_ids
        ):
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
        self.rejected_ids[job.job_id] = None
        self.counters["rejected"] += 1
        registry.counter("serve.rejected").inc()
        return {"job_id": job.job_id, "outcome": "rejected"}

    def _on_depart(self, event: ServeEvent) -> dict:
        job = self.jobs.pop(event.job_id or "", None)
        if job is None:
            # Departure of an unknown/rejected/already-gone job: a no-op
            # (the load generator does not track admission outcomes).
            return {"job_id": event.job_id, "outcome": "noop"}
        self.departed_ids[job.job_id] = None
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
        job accounting (terminal statuses counted from the id sets).
        Path-dependent observables (migration counts, node restarts,
        elapsed time) are deliberately excluded — see :meth:`digest`.
        """
        nodes = {
            nid: {
                "hp": [hp.job_id, hp.app] if hp else None,
                "bes": [[b.job_id, b.app] for b in bes],
            }
            for nid, (hp, bes) in self.assignments().items()
        }
        by_status = {status: 0 for status in JOB_STATUSES}
        for job in self.jobs.values():
            by_status[job.status] += 1
        by_status["rejected"] = len(self.rejected_ids)
        by_status["departed"] = len(self.departed_ids)
        return {
            "nodes": nodes,
            "pending": [
                [j.job_id, j.kind, j.app]
                for j in self.jobs.values()
                if j.status == "pending"
            ],
            "rejected": list(self.rejected_ids),
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
        """Full serializable state (the version-2 snapshot payload).

        Sized by the live jobs: a terminal job is one id string, and the
        admission memo is bounded by the (HP, BE) pairings seen.
        """
        return {
            "config": self.config.to_dict(),
            "applied_seq": self.applied_seq,
            "live": [j.to_dict() for j in self.jobs.values()],
            "rejected": list(self.rejected_ids),
            "departed": list(self.departed_ids),
            "nodes": {
                nid: entry.to_dict() for nid, entry in self.nodes.items()
            },
            "counters": dict(self.counters),
            "elapsed_s": self.elapsed_s,
            "admission": self.admission.memo_state(),
        }

    @classmethod
    def from_snapshot(
        cls,
        state: dict,
        *,
        admission: AdmissionCache | None = None,
        platform: PlatformConfig = TABLE1_PLATFORM,
    ) -> "ControlPlane":
        """Rebuild a plane from :meth:`snapshot_state` output.

        A version-1 state (every job ever submitted, under ``"jobs"``)
        loads to the same plane and digest, with an empty admission memo.
        """
        plane = cls(
            PlaneConfig.from_dict(state["config"]),
            admission=admission,
            platform=platform,
        )
        plane.applied_seq = int(state["applied_seq"])
        if "jobs" in state:  # version 1
            live = []
            for raw in sorted(state["jobs"], key=lambda r: int(r["seq"])):
                job = Job.from_dict(raw)
                if job.status == "rejected":
                    plane.rejected_ids[job.job_id] = None
                elif job.status == "departed":
                    plane.departed_ids[job.job_id] = None
                else:
                    live.append(job)
        else:
            live = [Job.from_dict(raw) for raw in state["live"]]
            plane.rejected_ids = dict.fromkeys(state["rejected"])
            plane.departed_ids = dict.fromkeys(state["departed"])
            plane.admission.load_memo(state.get("admission"))
        plane.jobs = {j.job_id: j for j in live}
        for nid, raw in state.get("nodes", {}).items():
            if nid in plane.nodes:
                plane.nodes[nid] = _NodeEntry.from_dict(raw)
        counters = _zero_counters()
        counters.update(state.get("counters", {}))
        plane.counters = counters
        plane.elapsed_s = float(state.get("elapsed_s", 0.0))
        return plane
