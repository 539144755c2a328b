"""The serve daemon: event loop, supervision tree, snapshots, retry.

:class:`ServeDaemon` owns one :class:`~repro.serve.placement.
ControlPlane` and a :class:`~repro.serve.node.NodeRuntime` per node,
supervised by per-node :class:`~repro.serve.node.NodeSupervisor` tasks
(the supervision tree of DESIGN.md §14). Its loop is deliberately dumb:

    pop next event → route node faults to the runtime boundary →
    apply to the plane (which reconciles) → actuate changed nodes
    with bounded deterministic retry → snapshot every N events.

Crash safety is snapshot + replay: the daemon checkpoints the plane into
a checksummed atomic snapshot (:mod:`repro.serve.snapshot`), SIGTERM
triggers a final checkpoint, and a restarted daemon loads the snapshot
(or replays from scratch if it is missing/corrupt) and skips every event
with ``seq <= applied_seq`` — resuming exactly where it stopped, with a
terminal state identical to an uninterrupted run. The snapshot carries
the plane's admission answers too, so the restarted daemon does not
repeat the searches behind them.

Actuation failures degrade gracefully: a transient fault (armed by the
chaos stream) is absorbed by ``max_retries`` deterministic backoff
attempts; exhaustion is counted and left for the next actuation pass
rather than wedging the loop, and a node the *plane* knows is down is
simply never actuated — its jobs have already drained to survivors.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import get_event_log, get_registry
from repro.rdt.faulty import RdtUnavailableError
from repro.serve.events import ServeEvent, read_events
from repro.serve.node import NodeRuntime, NodeSupervisor
from repro.serve.placement import ControlPlane, PlaneConfig
from repro.serve.snapshot import load_snapshot, save_snapshot

__all__ = ["ReplayInProgressError", "ServeConfig", "ServeDaemon"]

#: Event kind → boundary fault kind injected into the node runtime.
_FAULT_KINDS = {
    "node_crash": "crash",
    "node_hang": "hang",
    "node_partition": "partition",
}

#: Snapshot health state → boundary fault to re-arm on resume.
_HEALTH_FAULTS = {
    "crashed": "crash",
    "hung": "hang",
    "partitioned": "partition",
}


class ReplayInProgressError(RuntimeError):
    """An external event was refused because the stream is not drained.

    Raised by :meth:`ServeDaemon.apply_external` while :meth:`ServeDaemon.
    run` is still replaying the events file (or the file holds events
    beyond ``applied_seq``): admitting an external event then would steal
    the sequence number of a not-yet-applied stream event, dropping it
    and breaking the replay-identical guarantee. The API maps this to
    503 — the client retries once replay has drained.
    """


#: Bytes :func:`_tail_seq` reads per step back from the end of the file.
_TAIL_BLOCK = 4096


def _tail_seq(path: Path) -> int | None:
    """Seq of the last event in the durable file (``None`` if none).

    Reads backwards from the end, a block at a time, until it holds a
    whole non-blank last line, so the write-ahead guard costs the same
    however long the event history grows.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return None
    with fh:
        pos = fh.seek(0, os.SEEK_END)
        tail = b""
        while pos > 0:
            step = min(_TAIL_BLOCK, pos)
            pos -= step
            fh.seek(pos)
            tail = fh.read(step) + tail
            text = tail.rstrip()
            cut = text.rfind(b"\n")
            if text and (cut >= 0 or pos == 0):
                return int(json.loads(text[cut + 1:])["seq"])
    return None


@dataclass(frozen=True)
class ServeConfig:
    """Daemon wiring: paths, pacing, retry and supervision budgets."""

    plane: PlaneConfig
    #: Durable event stream (ground truth; replayed on start).
    events_path: Path
    #: Checkpoint target (checksummed atomic snapshot).
    snapshot_path: Path
    #: Checkpoint every N applied events (0 = only on exit).
    snapshot_every: int = 100
    #: Sleep between events — pacing hook for kill/restart tests.
    throttle_s: float = 0.0
    #: Evaluate dirty nodes every N applied events (0 = never).
    evaluate_every: int = 0
    eval_periods: int = 2
    #: Bounded deterministic retry for placement actuation.
    max_retries: int = 3
    retry_base_s: float = 0.0
    #: Heartbeat supervision cadence (per-node jitter applied on top).
    heartbeat_s: float = 0.02
    deadline_s: float = 0.25
    #: Run the heartbeat supervisors (off = pure deterministic replay).
    supervise: bool = False

    def __post_init__(self) -> None:
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.throttle_s < 0 or self.retry_base_s < 0:
            raise ValueError("pacing delays must be >= 0")


@dataclass
class _RetryStats:
    attempts: int = 0
    retries: int = 0
    failures: int = 0
    by_node: dict[str, int] = field(default_factory=dict)


class ServeDaemon:
    """Supervise a fleet of node runtimes through one control plane."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        state = load_snapshot(config.snapshot_path)
        if state is not None:
            self.plane = ControlPlane.from_snapshot(state)
            self.resumed = True
        else:
            self.plane = ControlPlane(config.plane)
            self.resumed = False
        self.runtimes: dict[str, NodeRuntime] = {
            nid: NodeRuntime(nid, self.plane.config)
            for nid in self.plane.config.node_ids
        }
        # A resumed daemon must re-arm the boundaries the snapshot says
        # are down — crashed, hung AND partitioned — or the supervision
        # picture would disagree with the plane's. Persistent injection
        # holds the fault until the stream's node_recover heals both (a
        # one-shot hang or self-healing partition would let heartbeats
        # see a healthy node the plane still reports down).
        for nid, entry in self.plane.nodes.items():
            fault = _HEALTH_FAULTS.get(entry.health)
            if fault is not None:
                self.runtimes[nid].inject(fault, persistent=True)
        self.supervisors: dict[str, NodeSupervisor] = {}
        self.retry_stats = _RetryStats()
        self.downs_reported: list[tuple[str, str]] = []
        self._stop = False
        self._snapshot_due = 0
        self._replaying = False
        self._external_lock = asyncio.Lock()

    # -- lifecycle ---------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the loop to checkpoint and exit after the current event."""
        self._stop = True

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_stop)
            except (NotImplementedError, RuntimeError):
                # Non-main thread / platform without signal support:
                # stop is still reachable via request_stop().
                break

    def _on_node_down(self, node_id: str, reason: str) -> None:
        """Supervisor verdict: ``node_id`` missed its heartbeat budget.

        In replay mode the event stream already carries the fault, so
        this only records the detection (the plane must stay a pure
        function of the stream); a live front-end can watch
        :attr:`downs_reported` and synthesize ``node_crash`` events.
        """
        self.downs_reported.append((node_id, reason))
        log = get_event_log()
        if log.enabled:
            log.emit("serve.supervisor.down", node=node_id, reason=reason)

    def _start_supervisors(self) -> list[asyncio.Task]:
        if not self.config.supervise:
            return []
        tasks = []
        for nid, runtime in self.runtimes.items():
            supervisor = NodeSupervisor(
                runtime,
                interval_s=self.config.heartbeat_s,
                deadline_s=self.config.deadline_s,
                on_down=self._on_node_down,
            )
            self.supervisors[nid] = supervisor
            tasks.append(asyncio.create_task(supervisor.run()))
        return tasks

    # -- actuation ---------------------------------------------------------

    async def _assign_with_retry(
        self, runtime: NodeRuntime, hp_app: str | None, be_apps: tuple
    ) -> bool:
        """Bounded deterministic retry with exponential backoff."""
        delay = self.config.retry_base_s
        for attempt in range(self.config.max_retries + 1):
            self.retry_stats.attempts += 1
            try:
                runtime.assign(hp_app, be_apps)
            except RdtUnavailableError:
                if attempt < self.config.max_retries:
                    self.retry_stats.retries += 1
                    self.plane.counters["placement_retries"] += 1
                    if delay > 0:
                        await asyncio.sleep(delay)
                        delay *= 2
                    continue
                self.retry_stats.failures += 1
                node = runtime.node_id
                self.retry_stats.by_node[node] = (
                    self.retry_stats.by_node.get(node, 0) + 1
                )
                self.plane.counters["placement_failures"] += 1
                get_registry().counter("serve.placement_failures").inc()
                log = get_event_log()
                if log.enabled:
                    log.emit("serve.placement_failure", node=node)
                return False
            else:
                return True
        return False  # pragma: no cover - loop always returns

    async def _actuate(self) -> None:
        """Push the plane's placement onto every healthy, stale node.

        A node the plane knows is down is skipped (its jobs already
        drained); a node that fails all retries stays stale and is
        retried on the next actuation pass — graceful degradation, not
        a wedge.
        """
        assignments = self.plane.assignments()
        for nid in self.plane.healthy_nodes():
            runtime = self.runtimes[nid]
            hp, bes = assignments[nid]
            desired = (
                hp.app if hp else None,
                tuple(b.app for b in bes),
            )
            if (runtime.hp_app, runtime.be_apps) != desired:
                await self._assign_with_retry(runtime, *desired)

    def _evaluate_dirty(self) -> None:
        for nid in self.plane.healthy_nodes():
            runtime = self.runtimes[nid]
            if runtime.dirty:
                try:
                    runtime.evaluate(periods=self.config.eval_periods)
                except RdtUnavailableError:
                    # The stream will mark / has marked the node down;
                    # evaluation is best-effort telemetry either way.
                    continue

    # -- the loop ----------------------------------------------------------

    def _snapshot(self) -> None:
        save_snapshot(self.config.snapshot_path, self.plane.snapshot_state())
        self._snapshot_due = 0

    async def apply_event(self, event: ServeEvent) -> dict:
        """Route, apply, actuate and maybe checkpoint one event."""
        outcome = self.plane.apply_event(event)  # validates the event
        kind = _FAULT_KINDS.get(event.kind)
        if kind is not None:
            # Persistent: the plane reports the node down until the
            # paired node_recover, so the boundary must stay down for
            # exactly that window too (a self-healing partition or a
            # one-shot hang would diverge from plane health mid-window).
            self.runtimes[event.node_id].inject(kind, persistent=True)
        elif event.kind == "node_recover":
            self.runtimes[event.node_id].restore()
        elif event.kind == "assign_fault":
            self.runtimes[event.node_id].arm_assign_faults(event.count)
        await self._actuate()
        if (
            self.config.evaluate_every
            and self.plane.counters["events_applied"]
            % self.config.evaluate_every
            == 0
        ):
            self._evaluate_dirty()
        self._snapshot_due += 1
        if (
            self.config.snapshot_every
            and self._snapshot_due >= self.config.snapshot_every
        ):
            self._snapshot()
        return outcome

    async def run(self) -> dict:
        """Replay the events file to its end (or until stopped).

        Returns :meth:`summary`. Always exits through a checkpoint, so
        a SIGTERM'd run can be resumed by constructing a new daemon on
        the same paths. A stop requested before the call goes straight
        to that checkpoint without reading the events file.
        """
        self._install_signal_handlers()
        supervisor_tasks = self._start_supervisors()
        # External events are refused until the stream has drained: an
        # external submit mid-replay would steal the next file event's
        # seq (that event would then be silently skipped) and append a
        # duplicate-seq line that replays in a different order.
        self._replaying = True
        t0 = time.monotonic()
        try:
            if not self._stop:
                await self._replay()
        finally:
            self.plane.elapsed_s += time.monotonic() - t0
            self._snapshot()
            for supervisor in self.supervisors.values():
                supervisor.stop()
            for task in supervisor_tasks:
                await task
        log = get_event_log()
        if log.enabled:
            log.emit(
                "serve.run_end",
                applied_seq=self.plane.applied_seq,
                stopped=self._stop,
                digest=self.plane.digest(),
            )
        return self.summary()

    async def _replay(self) -> None:
        """Apply the events file's unapplied events, stopping on request."""
        async with self._external_lock:
            for event in read_events(self.config.events_path):
                if event.seq <= self.plane.applied_seq:
                    continue  # already applied before the restart
                if self._stop:
                    break
                await self.apply_event(event)
                if self.config.throttle_s > 0:
                    await asyncio.sleep(self.config.throttle_s)
            else:
                # Drained without an early stop: every file event is
                # applied, so external seqs are collision-free again.
                self._replaying = False

    async def apply_external(self, kind: str, **fields) -> dict:
        """Admit an event from outside the replay stream (the REST API).

        The event is assigned the next sequence number, **fully
        validated** against the plane, appended to the durable events
        file (write-ahead: a crash between append and apply replays it
        on restart), then applied normally. Validation precedes the
        append so a rejected input — unknown app, duplicate job id,
        unknown node — never reaches the log: a poisoned line would
        fail on every restart and crash-loop the daemon.

        Raises :class:`ReplayInProgressError` while :meth:`run` is still
        replaying (or the file holds events beyond ``applied_seq``) —
        admitting an event then would steal a stream event's seq.
        """
        if self._replaying:
            raise ReplayInProgressError(
                "event stream replay in progress; retry once drained"
            )
        async with self._external_lock:
            seq = self.plane.applied_seq + 1
            if kind == "submit" and not fields.get("job_id"):
                fields["job_id"] = f"api{seq:05d}"
            event = ServeEvent(seq=seq, kind=kind, **fields)
            self.plane.validate_event(event)  # refuse BEFORE the append
            path = Path(self.config.events_path)
            tail = _tail_seq(path)
            if tail is not None and seq <= tail:
                raise ReplayInProgressError(
                    f"events file holds seqs up to {tail} but only "
                    f"{self.plane.applied_seq} applied; refusing external "
                    "event until the stream is drained"
                )
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(event.to_dict(), sort_keys=True) + "\n")
            return await self.apply_event(event)

    # -- reporting ---------------------------------------------------------

    def summary(self) -> dict:
        """Plane summary + daemon-side supervision and retry accounting."""
        out = self.plane.summary()
        out["resumed"] = self.resumed
        out["stopped_early"] = self._stop
        out["retry"] = {
            "attempts": self.retry_stats.attempts,
            "retries": self.retry_stats.retries,
            "failures": self.retry_stats.failures,
            "by_node": dict(self.retry_stats.by_node),
        }
        out["runtimes"] = {
            nid: {
                "assigns": runtime.assigns,
                "evaluations": runtime.evaluations,
                "armed_faults": runtime.armed_faults,
                "available": runtime.available,
                "last_metrics": runtime.last_metrics,
            }
            for nid, runtime in self.runtimes.items()
        }
        if self.supervisors:
            out["heartbeats"] = {
                nid: {
                    "beats": supervisor.beats,
                    "misses": supervisor.misses,
                }
                for nid, supervisor in self.supervisors.items()
            }
        return out
