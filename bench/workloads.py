"""The benchmark's workloads: seeded inputs, one timed unit, output checks.

A workload is built from ``(seed, workdir)`` — that is its set-up — and
:meth:`run` executes one *unit* of user-visible work, timing every
operation from outside and letting the runner's :class:`clock.Clock`
probe the host's speed between operations. Each unit starts from a
fresh process (the runner spawns one child per unit), so caches start
cold exactly as they do for a user's CLI run. :meth:`check` validates
the unit's outputs against invariants and, for pinned seeds, against
``expected.json``.

Why these four (see README.md for the full rationale):

* ``campaign_paper`` — the figure campaign as the CLI ships it (fast
  precision, serial sqlite store): classify all 3481 pairs, run a seeded
  25-pair grid, reopen the store and request every cell again.
  Solver, ``Server``, controller and store carry the load.
* ``admission_exact`` — 354 ``find_max_bes`` queries at the library
  default (exact): exact solver and the DICER/LFOC/CBP controllers.
* ``serve_fleet30`` — the serve daemon on 30 nodes holding 100 jobs:
  each event places about 100 jobs twice (admission check, reconcile),
  so canonical placement takes most of the time.
* ``serve_small3`` — the same plane on 3 nodes at capacity, about half
  the submits rejected: placement is cheap, so the per-event daemon
  costs (actuation, snapshots) weigh far more than on 30 nodes.

Reconcile runs on every serve event, so neither serve workload bypasses
it; the campaign and admission workloads are the ones serve code never
enters.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from repro.core.admission import find_max_bes, hp_admission_metric
from repro.core.policies import CacheTakeoverPolicy, UnmanagedPolicy
from repro.experiments.classify import classify_all, representative_sample
from repro.experiments.grid import grid_cells, run_grid
from repro.experiments.store import ResultStore
from repro.metrics.slo import slo_achieved
from repro.serve.chaos import weave_chaos
from repro.serve.daemon import ServeConfig, ServeDaemon
from repro.serve.events import ServeEvent, write_events
from repro.serve.loadgen import DEFAULT_BE_APPS, DEFAULT_HP_APPS
from repro.serve.placement import ControlPlane, PlaneConfig
from repro.sim.contention import FAST_REL_TOL
from repro.workloads.catalog import app_names

__all__ = ["NullTracer", "Unit", "WORKLOADS", "make_workload"]


#: (HP, BE) pairs whose 2-core UM cell the fast solver cannot converge
#: on (``ConvergenceError``); the campaign's grid sample skips them so
#: that no operation of the benchmark fails.
FAST_NONCONVERGENT = frozenset({("h264ref1", "lbm1"), ("lbm1", "h264ref1")})

#: ``find_max_bes`` queries the exact solver cannot converge on (it
#: raises ``ConvergenceError`` on an LFOC partition). The admission draw
#: skips them so that no operation of the benchmark fails.
EXACT_NONCONVERGENT = frozenset(
    {("sphinx1", "h264ref2", "LFOC"), ("h264ref2", "wrf1", "LFOC")}
)


class NullTracer:
    """The untraced runs' stand-in: spans cost one no-op context."""

    def span(self, name: str, corr=None):
        return nullcontext()


Interval = tuple[float, float]


@dataclass
class Unit:
    """What one timed unit of work produced.

    Times are ``time.perf_counter()`` intervals as measured; the runner
    scales them by the host's speed (:class:`clock.Clock`).
    """

    #: One latency sample per thing a user waits for: the intervals
    #: whose durations add up to it.
    latencies: list[list[Interval]]
    #: The whole unit (operations plus restarts/resumes).
    wall: Interval
    #: Operations attempted and failed; throughput counts the rest.
    attempted: int
    failed: int
    #: Named sub-phases of the unit.
    phases: dict[str, Interval] = field(default_factory=dict)
    #: Deterministic outputs: the material of the checks.
    summary: dict = field(default_factory=dict)


def _rel_close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# -- campaign_paper ------------------------------------------------------


class _ClockedStore(ResultStore):
    """A ``ResultStore`` that stamps when each computed cell lands.

    A serial store computes cells one after another, so the gap between
    two completions is the second cell's compute time (the first gap of
    a call also holds the batch prewarm the executor runs before its
    loop). The host-speed probe runs between two cells, outside the
    gaps. Computed results are kept by cell key for the resume check.
    """

    def __init__(self, *args, clock, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.clock = clock
        #: ``(cell key, gap)``: the interval since the previous completion.
        self.gaps: list[tuple[tuple, Interval]] = []
        self.computed: dict[tuple, object] = {}

    def get_many(self, cells, **run_kwargs):
        last = time.perf_counter()

        def stamp(index, cell, result):
            nonlocal last
            now = time.perf_counter()
            hp, be, n_be, policy = cell
            key = (hp, be, n_be, policy.name)
            self.gaps.append((key, (last, now)))
            self.computed[key] = result
            self.clock.probe()
            last = time.perf_counter()

        return super().get_many(cells, on_result=stamp, **run_kwargs)


def _persisted(result) -> dict:
    """The fields a store row keeps (everything but the decision trace)."""
    return {
        f.name: getattr(result, f.name) for f in fields(result)
        if f.name != "trace"
    }


class CampaignPaper:
    """The figure campaign: classify every pair, run a seeded grid, resume.

    Classification covers the whole population (as ``build_sample`` does,
    so it is the same work for every seed); the seed draws the grid
    sample, which runs under UM/CT/DICER at ``cores``. A figure point's
    cost depends mostly on its pair, so the median point moves with the
    pairs drawn: 25 pairs at three core counts spread half as much over
    seeds as 10 pairs at five, for 75 cells more.

    An operation is a cell delivered (computed or resumed). The latency
    sample is one per figure point, a (pair, core count) of the grid:
    the time to compute its UM, CT and DICER cells. Per-cell gaps would
    not do: classification solves every cell in one batch before its
    loop, and in the grid the UM and CT cells are cache hits after the
    grid's own prewarm, so the median cell never reaches the solver.
    """

    policies = ("UM", "CT", "DICER")

    def __init__(
        self,
        seed: int,
        workdir: Path,
        *,
        limit: int | None = None,
        n_ctf: int = 10,
        n_ctt: int = 15,
        cores: tuple[int, ...] = (2, 6, 10),
    ) -> None:
        self.seed = seed
        self.names = app_names()[:limit]
        self.n_ctf = n_ctf
        self.n_ctt = n_ctt
        self.cores = cores
        self.store_path = workdir / "campaign.sqlite"

    @property
    def expected_samples(self) -> int:
        """Latency samples per unit: the grid's figure points."""
        return (self.n_ctf + self.n_ctt) * len(self.cores)

    def run(self, tracer, clock) -> Unit:
        um, ct = UnmanagedPolicy(), CacheTakeoverPolicy()
        classify_cells = [
            (hp, be, 9, policy)
            for hp in self.names
            for be in self.names
            for policy in (um, ct)
        ]
        store = _ClockedStore(
            cache_path=self.store_path, precision="fast", clock=clock
        )
        t0 = time.perf_counter()
        with tracer.span("bench.classify"):
            classes = classify_all(
                store, hp_names=self.names, be_names=self.names
            )
        t1 = time.perf_counter()
        n_classify_gaps = len(store.gaps)
        candidates = [
            c for c in classes
            if (c.hp_name, c.be_name) not in FAST_NONCONVERGENT
        ]
        n_f = sum(c.ct_favoured for c in candidates)
        sample = representative_sample(
            candidates,
            n_ctf=min(self.n_ctf, n_f),
            n_ctt=min(self.n_ctt, len(candidates) - n_f),
            seed=self.seed,
        )
        with tracer.span("bench.grid"):
            grid = run_grid(store, sample, cores=self.cores)
        t2 = time.perf_counter()
        cells = classify_cells + grid_cells(sample, cores=self.cores)
        with tracer.span("bench.resume"):
            reopened = ResultStore(cache_path=self.store_path, precision="fast")
            resumed = reopened.get_many(cells)
        t3 = time.perf_counter()

        # The grid's 10-core UM and CT cells are classification cells
        # (n_be=9): the store serves them, so those points time DICER only.
        figure_points: dict[tuple, list[Interval]] = {}
        for (hp, be, n_be, _), gap in store.gaps[n_classify_gaps:]:
            figure_points.setdefault((hp, be, n_be), []).append(gap)
        mismatches = 0
        for (hp, be, n_be, policy), row in zip(cells, resumed):
            computed = store.computed.get((hp, be, n_be, policy.name))
            mismatches += (
                row is None
                or computed is None
                or _persisted(row) != _persisted(computed)
            )
        means = {}
        for policy in self.policies:
            points = grid.select(policy=policy)
            means[policy] = {
                "efu": float(np.mean([p.result.efu for p in points])),
                "hp_norm_ipc": float(
                    np.mean([p.result.hp_norm_ipc for p in points])
                ),
            }
        n_grid = len(sample) * len(self.cores) * len(self.policies)
        return Unit(
            latencies=list(figure_points.values()),
            wall=(t0, t3),
            attempted=len(classify_cells) + n_grid + len(cells),
            failed=(len(classify_cells) - 2 * len(classes))
            + (n_grid - len(grid.points))
            + sum(r is None for r in resumed),
            phases={"classify_s": (t0, t1), "grid_s": (t1, t2),
                    "resume_s": (t2, t3)},
            summary={
                "sample": [f"{c.hp_name}|{c.be_name}" for c in sample],
                "grid_points": len(grid.points),
                "resume_mismatches": mismatches,
                "means": means,
            },
        )

    def check(self, unit: Unit, expected: dict | None) -> list[tuple[str, bool, str]]:
        s = unit.summary
        out = [
            (
                "resumed rows equal computed rows",
                s["resume_mismatches"] == 0,
                f"{s['resume_mismatches']} mismatching cells",
            ),
            (
                "every grid cell ran",
                s["grid_points"]
                == len(s["sample"]) * len(self.cores) * len(self.policies),
                f"{s['grid_points']} points",
            ),
        ]
        if expected is not None:
            bad = [
                f"{policy}.{metric}={s['means'][policy][metric]!r} "
                f"(pinned {value!r})"
                for policy, pinned in expected["means"].items()
                for metric, value in pinned.items()
                if not _rel_close(s["means"][policy][metric], value, FAST_REL_TOL)
            ]
            out.append(
                (
                    "per-policy mean EFU and HP IPC match pinned (FAST_REL_TOL)",
                    not bad,
                    "; ".join(bad) or "ok",
                )
            )
        return out

    def pin(self, unit: Unit) -> dict:
        return {"means": unit.summary["means"]}


# -- admission_exact -----------------------------------------------------


class AdmissionExact:
    """``find_max_bes`` queries at the library default (exact) precision.

    Each round pairs every catalog HP with a seeded permutation of the
    catalog BEs under each policy, so every seed asks every HP and every
    BE the same number of times and only the pairings change.
    """

    policies = ("DICER", "LFOC", "CBP")
    rounds = 2
    slo = 0.9

    def __init__(
        self,
        seed: int,
        workdir: Path,
        *,
        n_queries: int | None = None,
    ) -> None:
        names = app_names()
        rng = np.random.default_rng(seed)
        queries = []
        for _ in range(self.rounds):
            for policy in self.policies:
                while True:
                    perm = rng.permutation(len(names))
                    draw = [
                        (hp, names[j], policy) for hp, j in zip(names, perm)
                    ]
                    if not EXACT_NONCONVERGENT.intersection(draw):
                        break
                queries += draw
        order = rng.permutation(len(queries))
        self.queries = [queries[i] for i in order][:n_queries]

    @property
    def expected_samples(self) -> int:
        return len(self.queries)

    def run(self, tracer, clock) -> Unit:
        latencies = []
        answers = []
        failed = inconsistent = 0
        t0 = time.perf_counter()
        for i, (hp, be, policy) in enumerate(self.queries):
            with tracer.span("bench.query", corr=i):
                start = time.perf_counter()
                try:
                    plan = find_max_bes(hp, be, policy, self.slo)
                except Exception:  # counted as failed; the unit goes on
                    traceback.print_exc()
                    plan = None
                latencies.append([(start, time.perf_counter())])
            clock.probe()
            if plan is None:
                failed += 1
                answers.append([hp, be, policy, None])
                continue
            metrics = {
                n: float(hp_admission_metric(r)) for n, r in plan.probes.items()
            }
            ok_at_max = plan.max_bes == 0 or slo_achieved(
                metrics[plan.max_bes], self.slo
            )
            over = metrics.get(plan.max_bes + 1)
            inconsistent += bool(
                not ok_at_max
                or (over is not None and slo_achieved(over, self.slo))
            )
            answers.append(
                [hp, be, policy, plan.max_bes,
                 [[n, repr(m)] for n, m in sorted(metrics.items())]]
            )
        t1 = time.perf_counter()
        digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
        return Unit(
            latencies=latencies,
            wall=(t0, t1),
            attempted=len(self.queries),
            failed=failed,
            summary={"digest": digest, "inconsistent_plans": inconsistent},
        )

    def check(self, unit: Unit, expected: dict | None) -> list[tuple[str, bool, str]]:
        s = unit.summary
        out = [
            (
                "every plan is self-consistent at max_bes and max_bes+1",
                s["inconsistent_plans"] == 0,
                f"{s['inconsistent_plans']} inconsistent plans",
            )
        ]
        if expected is not None:
            out.append(
                (
                    "answers digest matches pinned",
                    s["digest"] == expected["digest"],
                    s["digest"],
                )
            )
        return out

    def pin(self, unit: Unit) -> dict:
        return {"digest": unit.summary["digest"]}


# -- serve_fleet30 / serve_small3 -----------------------------------------


def churn_stream(
    seed: int, n_events: int, n_live: int, hp_frac: float = 0.12
) -> list[ServeEvent]:
    """Submit until ``n_live`` jobs are outstanding, then churn at that level.

    The ramp submits ``round(n_live * hp_frac)`` HPs and the rest BEs,
    in a seeded order. After it, departures (a uniformly chosen
    outstanding job) and submissions alternate, each submission of the
    kind that just left, so every seed holds the same occupancy and the
    same HP/BE mix and changes only which apps arrive and which job
    leaves. (The load generator's live count is a random walk: across
    seeds it spreads by about 30 % after 1000 events, and reconcile
    cost with it. Drawing each submission's kind at random instead made
    the live HP count of ``serve_fleet30`` average 8.5 to 13.0 across
    ten seeds, and its event rate 235 to 208 per second.) Apps come
    from the load generator's default pools.
    """
    rng = np.random.default_rng(seed)
    n_hp = round(n_live * hp_frac)
    ramp = ["hp"] * n_hp + ["be"] * (n_live - n_hp)
    kinds = deque(ramp[i] for i in rng.permutation(n_live))
    events: list[ServeEvent] = []
    outstanding: list[tuple[str, str]] = []  # (job id, kind)
    for seq in range(n_events):
        if len(outstanding) >= n_live:
            job_id, kind = outstanding.pop(int(rng.integers(len(outstanding))))
            events.append(ServeEvent(seq=seq, kind="depart", job_id=job_id))
            kinds.append(kind)
            continue
        kind = kinds.popleft()
        pool = DEFAULT_HP_APPS if kind == "hp" else DEFAULT_BE_APPS
        job_id = f"j{seq:05d}"
        events.append(
            ServeEvent(
                seq=seq,
                kind="submit",
                job_id=job_id,
                job_kind=kind,
                app=pool[int(rng.integers(len(pool)))],
            )
        )
        outstanding.append((job_id, kind))
    return events


class ServeReplay:
    """Closed-loop replay of a chaos-woven churn stream through the daemon.

    Phase 1 applies events up to the chaos plan's ``kill_seq`` and exits
    through the daemon's checkpoint; phase 2 is a fresh daemon on the
    same paths that resumes from the snapshot and drains the stream. The
    next event is sent only after the previous ``apply_event`` returns.
    """

    def __init__(
        self,
        seed: int,
        workdir: Path,
        *,
        n_nodes: int,
        n_live: int,
        n_events: int,
    ) -> None:
        self.plane_config = PlaneConfig.for_nodes(n_nodes)
        self.base = churn_stream(seed, n_events, n_live)
        self.plan = weave_chaos(
            self.base, seed=seed, node_ids=self.plane_config.node_ids
        )
        events_path = workdir / "events.jsonl"
        write_events(events_path, list(self.plan.events))
        self.config = ServeConfig(
            plane=self.plane_config,
            events_path=events_path,
            snapshot_path=workdir / "snapshot.json",
        )

    @property
    def expected_samples(self) -> int:
        return len(self.plan.events)

    def run(self, tracer, clock) -> Unit:
        latencies: list[list[Interval]] = []
        failed = 0

        async def apply(daemon: ServeDaemon, last_seq: int) -> None:
            nonlocal failed
            for event in self.plan.events:
                if event.seq <= daemon.plane.applied_seq:
                    continue
                if event.seq > last_seq:
                    break
                with tracer.span("bench.event", corr=event.seq):
                    start = time.perf_counter()
                    try:
                        await daemon.apply_event(event)
                    except Exception:  # counted as failed; the unit goes on
                        traceback.print_exc()
                        failed += 1
                    latencies.append([(start, time.perf_counter())])
                clock.probe()

        async def drive() -> tuple[dict, bool]:
            daemon = ServeDaemon(self.config)
            await apply(daemon, self.plan.kill_seq)
            with tracer.span("bench.restart"):
                daemon.request_stop()
                await daemon.run()  # exits through the daemon's checkpoint
                daemon = ServeDaemon(self.config)
            await apply(daemon, self.plan.events[-1].seq)
            return daemon.summary(), daemon.resumed

        self.config.snapshot_path.unlink(missing_ok=True)
        t0 = time.perf_counter()
        summary, resumed = asyncio.run(drive())
        t1 = time.perf_counter()
        counters = summary["counters"]
        return Unit(
            latencies=latencies,
            wall=(t0, t1),
            attempted=len(self.plan.events),
            failed=failed + counters["placement_failures"],
            summary={
                "digest": summary["digest"],
                "resumed": resumed,
                "applied_seq": summary["applied_seq"],
                "counters": counters,
                "jobs": summary["jobs"],
            },
        )

    def check(self, unit: Unit, expected: dict | None) -> list[tuple[str, bool, str]]:
        s = unit.summary
        counters, jobs = s["counters"], s["jobs"]
        out = [
            (
                "restarted daemon resumed from the snapshot",
                s["resumed"],
                str(s["resumed"]),
            ),
            (
                "stream drained",
                s["applied_seq"] == self.plan.events[-1].seq,
                f"applied_seq={s['applied_seq']}",
            ),
            (
                "submitted == sum of jobs by status",
                counters["submitted"] == sum(jobs.values()),
                f"{counters['submitted']} vs {jobs}",
            ),
        ]
        if expected is not None:
            out.append(
                (
                    "terminal digest equals pinned clean digest",
                    s["digest"] == expected["clean_digest"],
                    s["digest"],
                )
            )
        return out

    def pin(self, unit: Unit) -> dict:
        """The clean run's digest: the base stream, no faults, no restart."""
        plane = ControlPlane(self.plane_config)
        for event in self.base:
            plane.apply_event(event)
        return {"clean_digest": plane.digest()}


WORKLOADS = {
    "campaign_paper": CampaignPaper,
    "admission_exact": AdmissionExact,
    "serve_fleet30": functools.partial(
        ServeReplay, n_nodes=30, n_live=100, n_events=600
    ),
    "serve_small3": functools.partial(
        ServeReplay, n_nodes=3, n_live=60, n_events=3000
    ),
}


def make_workload(name: str, seed: int, workdir: Path, **sizes):
    """Build workload ``name`` (its set-up) for ``seed`` in ``workdir``."""
    return WORKLOADS[name](seed, workdir, **sizes)
