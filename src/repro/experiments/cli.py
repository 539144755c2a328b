"""Command-line entry point: ``dicer-repro <experiment> [options]``.

Regenerates any of the paper's tables/figures from the terminal::

    dicer-repro table1
    dicer-repro fig1 --limit 12        # truncated population, quick
    dicer-repro fig3
    dicer-repro fig5 --limit 10
    dicer-repro fig7                   # full 120-workload grid (minutes)
    dicer-repro ablation-alpha

``--limit N`` truncates the catalog to its first N entries on both axes,
trading population size for wall-clock time; omit it for the paper-scale
campaign.

Telemetry (see :mod:`repro.obs` and DESIGN.md §6): any experiment run
with ``--metrics out.jsonl`` records controller decisions, solver-cache
effectiveness and campaign throughput into one JSONL file; ``dicer-repro
report --metrics out.jsonl`` renders it. ``dicer-repro run --hp A --be B
[--policy DICER]`` executes a single consolidation pair, the smallest
unit that produces a full decision trace.

Result caches are pluggable (``--backend``, DESIGN.md §11): ``file`` is
the checksummed atomic-rename JSON artefact, ``sqlite`` a WAL database
with incremental checkpoints and concurrent-writer safety; ``auto``
(default) resolves from the ``--cache`` path. Multi-process campaigns
use the ``campaign`` subcommand::

    dicer-repro campaign --queue q.db --store results.db --limit 10 &
    dicer-repro campaign --queue q.db --store results.db --limit 10 &
    dicer-repro campaign monitor q.db --interval 5

Each worker idempotently enqueues the grid, then drains the shared
queue (lease/heartbeat claims, work-stealing of dead workers' leases)
through its own supervised store into the shared SQLite result store;
``campaign monitor`` renders live progress from queue state and the
shared telemetry stream.

The ``serve`` subcommand drives the :mod:`repro.serve` control plane
(DESIGN.md §14)::

    dicer-repro serve loadgen --out events.jsonl --events 1000
    dicer-repro serve chaos --base events.jsonl --out chaos.jsonl --nodes 3
    dicer-repro serve run --events chaos.jsonl --snapshot snap.json
    dicer-repro serve monitor snap.json --interval 2

``serve run`` replays the event stream through a supervised multi-node
daemon (SIGTERM checkpoints; rerunning resumes); ``serve monitor``
renders live placement/health/throughput from the snapshot.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from repro import obs
from repro.experiments.ablation import (
    sweep_alpha,
    sweep_bw_threshold,
    sweep_classification_threshold,
    sweep_cooldown,
    sweep_noise_robustness,
    sweep_phase_detector,
    sweep_phase_threshold,
    sweep_sampling_grid,
)
from repro.experiments.fig1 import render_fig1, run_fig1
from repro.experiments.fig2 import render_fig2, run_fig2
from repro.experiments.fig3 import render_fig3, run_fig3
from repro.experiments.fig4 import extract_fig4, render_fig4
from repro.experiments.fig5 import extract_fig5, render_fig5
from repro.experiments.fig6 import extract_fig6, render_fig6
from repro.experiments.fig7 import extract_fig7, render_fig7
from repro.experiments.fig8 import extract_fig8, render_fig8
from repro.core.policies import policy_from_name
from repro.core.trace_tools import summarise_trace
from repro.experiments.grid import build_sample, run_grid
from repro.experiments.store import ResultStore
from repro.experiments.supervise import CampaignError, SuperviseConfig
from repro.experiments.table1 import render_table1
from repro.util.tables import format_table

__all__ = ["main"]

GRID_FIGURES = {
    "fig4": (extract_fig4, render_fig4),
    "fig5": (extract_fig5, render_fig5),
    "fig6": (extract_fig6, render_fig6),
    "fig7": (extract_fig7, render_fig7),
    "fig8": (extract_fig8, render_fig8),
}

EXPERIMENTS = (
    ["table1", "fig1", "fig2", "fig3"]
    + sorted(GRID_FIGURES)
    + [
        "ablation-bw",
        "ablation-alpha",
        "ablation-phase",
        "ablation-grid",
        "ablation-cooldown",
        "ablation-classify",
        "ablation-noise",
        "ablation-detector",
        "recommend",
        "run",
        "report",
    ]
)

#: Policies selectable for ``dicer-repro run`` (built by
#: :func:`~repro.core.policies.policy_from_name`).
RUN_POLICIES = ("UM", "CT", "DICER", "LFOC", "CBP")


def _add_campaign_flags(parser: argparse.ArgumentParser) -> None:
    """The flags the experiment CLI and ``campaign`` share."""
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        help="truncate the catalog to its first N entries (quick mode)",
    )
    parser.add_argument(
        "--cores",
        type=int,
        nargs="+",
        default=None,
        help="core counts for grid figures (default: 2..10)",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for campaign execution: 1 = serial "
        "(default), 0 = auto-detect from CPU count, N = that many "
        "processes; results are identical at any worker count",
    )
    parser.add_argument(
        "--precision",
        choices=("exact", "fast"),
        default="fast",
        help="steady-state solver mode (DESIGN.md §10): 'fast' (default) "
        "uses the tolerance-contracted vectorised solver (<=1e-3 relative "
        "error vs exact), 'exact' keeps bitwise-reproducible scalar "
        "parity — golden/conformance tooling pins exact; every "
        "cooperating campaign worker must agree",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="retries per campaign cell before it is quarantined "
        "(default 2); transient worker crashes, hangs and exceptions "
        "cost one attempt each, with deterministic exponential backoff",
    )
    parser.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per campaign cell; a cell past its budget "
        "has its worker killed and is retried (needs --workers > 1 — a "
        "serial in-process cell cannot be preempted)",
    )
    parser.add_argument(
        "--metrics",
        type=str,
        default=None,
        metavar="PATH",
        help="telemetry JSONL file: with 'report' or 'campaign monitor', "
        "the file to summarise; otherwise enable collection and write "
        "events + a final metrics snapshot there (campaign workers share "
        "it, each batch tagged with its worker id; see DESIGN.md §6)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicer-repro",
        description="Regenerate the DICER paper's tables and figures.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    _add_campaign_flags(parser)
    parser.add_argument(
        "--cache",
        type=str,
        default=None,
        help="file to persist/reuse experiment results (also enables "
        "mid-campaign checkpointing, so an interrupted run resumes); "
        "engine chosen by --backend",
    )
    parser.add_argument(
        "--backend",
        choices=("auto", "file", "sqlite"),
        default="auto",
        help="persistence engine for --cache (DESIGN.md §11): 'file' = "
        "checksummed atomic-rename JSON, 'sqlite' = WAL database with "
        "incremental checkpoints, 'auto' (default) = by path suffix / "
        "file magic",
    )
    parser.add_argument("--hp", type=str, default="omnetpp1",
                        help="HP application (run / recommend)")
    parser.add_argument("--be", type=str, default="bzip22",
                        help="BE application (run / recommend)")
    parser.add_argument("--slo", type=float, default=0.9,
                        help="HP SLO fraction (recommend)")
    parser.add_argument("--n-be", type=int, default=9,
                        help="BE instance count (run / recommend)")
    parser.add_argument(
        "--policy",
        choices=sorted(RUN_POLICIES),
        default="DICER",
        help="co-location policy for the 'run' experiment",
    )
    parser.add_argument(
        "--on-failure",
        choices=("abort", "skip"),
        default="abort",
        help="what a cell that exhausts its retries does to the campaign: "
        "'abort' (default) stops with a checkpoint flushed, 'skip' "
        "quarantines the cell into the failure manifest and carries on "
        "with partial results",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="run the experiment under cProfile and print the top "
        "cumulative-time hotspots afterwards",
    )
    parser.add_argument(
        "--profile-top",
        type=int,
        default=20,
        metavar="N",
        help="hotspot rows to print with --profile (default 20)",
    )
    parser.add_argument(
        "--profile-out",
        type=str,
        default=None,
        metavar="PATH",
        help="with --profile, also dump raw pstats data there "
        "(inspect with 'python -m pstats PATH')",
    )
    return parser


def _run_single(store: ResultStore, args: argparse.Namespace) -> str:
    """The ``run`` experiment: one consolidation pair, rendered."""
    policy = policy_from_name(args.policy)
    try:
        result = store.get(args.hp, args.be, policy, n_be=args.n_be)
    except KeyError as exc:
        # get_app raises KeyError with a suggestion list; surface it as a
        # clean CLI error instead of a traceback.
        raise SystemExit(f"run: {exc.args[0]}") from None
    rows = [
        ["policy", result.policy],
        ["workload", f"{result.hp_name} + {result.n_be}x{result.be_name}"],
        ["hp_norm_ipc", result.hp_norm_ipc],
        ["be_norm_ipc", result.be_norm_ipc],
        ["hp_slowdown", result.hp_slowdown],
        ["efu", result.efu],
        ["duration_s", result.duration_s],
        ["hp_completions", result.hp_completions],
    ]
    if result.trace:
        if hasattr(result.trace[0], "mode"):
            # DICER decision records carry mode/reset structure.
            summary = summarise_trace(result.trace)
            rows += [
                ["periods", summary["periods"]],
                ["sampling_share", summary["sampling_share"]],
                ["resets (CT-F/CT-T)",
                 f"{summary['resets_ctf']}/{summary['resets_ctt']}"],
                ["final_hp_ways", summary["final_hp_ways"]],
            ]
        else:
            # Zoo policies (LFOC/CBP) share only period + event fields.
            events = Counter(r.event for r in result.trace)
            rows += [
                ["periods", len(result.trace)],
                ["events", ", ".join(
                    f"{kind}:{n}" for kind, n in sorted(events.items()))],
            ]
    return format_table(
        ["metric", "value"],
        rows,
        title=f"Run: {args.hp} + {args.n_be}x{args.be} under {args.policy}",
    )


def _emit_solver_gauges(registry) -> None:
    """Per-precision solver call counts as ``solver.<precision>.*`` gauges."""
    from repro.sim.contention import solver_counters

    for precision, counts in solver_counters()["by_kernel"].items():
        for key, value in counts.items():
            registry.gauge(f"solver.{precision}.{key}").set(value)


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, run the experiment, print it."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["campaign"]:
        return _campaign_main(argv[1:])
    if argv[:1] == ["serve"]:
        return _serve_main(argv[1:])
    args = _build_parser().parse_args(argv)
    exp = args.experiment

    if exp == "report":
        if not args.metrics:
            raise SystemExit("report requires --metrics PATH")
        from pathlib import Path

        if not Path(args.metrics).exists():
            raise SystemExit(
                f"report: no telemetry file at {args.metrics} (run an "
                "experiment with --metrics PATH first)"
            )
        print(
            obs.render_metrics_summary(
                obs.summarise_metrics(obs.load_jsonl(args.metrics))
            )
        )
        return 0

    telemetry = args.metrics is not None
    if telemetry:
        obs.enable(args.metrics, campaign_id=exp)
        obs.emit(
            "campaign.start",
            experiment=exp,
            limit=args.limit,
            workers=args.workers,
            precision=args.precision,
        )

    try:
        if args.profile:
            _dispatch_profiled(exp, args)
        else:
            _dispatch(exp, args)
    except CampaignError as exc:
        hint = (
            " (completed cells were checkpointed; rerun with the same "
            "--cache to resume)"
            if args.cache
            else " (rerun with --cache PATH to make campaigns resumable)"
        )
        raise SystemExit(
            f"{exc}{hint}; use --on-failure=skip to quarantine failing "
            "cells and keep going"
        ) from None
    finally:
        if telemetry:
            _emit_solver_gauges(obs.get_registry())
            obs.emit("campaign.end", experiment=exp)
            obs.finalise()
    return 0


def _dispatch_profiled(exp: str, args: argparse.Namespace) -> None:
    """Run :func:`_dispatch` under cProfile; report hotspots afterwards.

    The hotspot table (top ``--profile-top`` functions by cumulative time)
    prints even when the experiment raises, so a profile of a run that
    died of slowness is still usable. ``--profile-out`` additionally dumps
    the raw pstats data for interactive digging.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    try:
        profiler.runcall(_dispatch, exp, args)
    finally:
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative")
        print(f"\n--- cProfile: top {args.profile_top} by cumulative time ---")
        stats.print_stats(args.profile_top)
        if args.profile_out:
            profiler.dump_stats(args.profile_out)
            print(f"pstats dump written to {args.profile_out}")


def _render_failures(store: ResultStore) -> str:
    """The failure manifest as a table (only called when non-empty)."""
    rows = [
        [
            f"{f['hp_name']}+{f['n_be']}x{f['be_name']}",
            f["policy"],
            f["precision"],
            f["attempts"],
            f["outcome"],
            f["error"] or "-",
        ]
        for f in store.failure_manifest()
    ]
    return format_table(
        ["cell", "policy", "precision", "attempts", "outcome", "error"],
        rows,
        title=f"Failure manifest: {len(rows)} quarantined cell(s)",
    )


def _dispatch(exp: str, args: argparse.Namespace) -> None:
    """Run one experiment and print its rendering."""
    try:
        store = ResultStore(
            cache_path=args.cache,
            n_workers=args.workers,
            supervise=SuperviseConfig(
                max_retries=args.max_retries,
                cell_timeout_s=args.cell_timeout,
                on_failure=args.on_failure,
            ),
            precision=args.precision,
            backend=args.backend,
        )
    except ValueError as exc:
        # e.g. --cache written under the other --precision mode
        raise SystemExit(f"{exp}: {exc}") from None

    if exp == "table1":
        print(render_table1())
    elif exp == "fig1":
        print(
            render_fig1(
                run_fig1(store, limit_hp=args.limit, limit_be=args.limit)
            )
        )
    elif exp == "fig2":
        print(render_fig2(run_fig2(limit=args.limit, precision=args.precision)))
    elif exp == "fig3":
        print(render_fig3(run_fig3()))
    elif exp in GRID_FIGURES:
        extract, render = GRID_FIGURES[exp]
        sample = build_sample(store, limit=args.limit, seed=args.seed)
        cores = tuple(args.cores) if args.cores else (2, 3, 4, 5, 6, 7, 8, 9, 10)
        if exp in ("fig4", "fig5"):
            cores = (max(cores),)
            grid = run_grid(store, sample, cores=cores)
            print(render(extract(grid, n_cores=cores[0])))
        else:
            grid = run_grid(store, sample, cores=cores)
            print(render(extract(grid)))
    elif exp == "ablation-bw":
        print(sweep_bw_threshold())
    elif exp == "ablation-alpha":
        print(sweep_alpha())
    elif exp == "ablation-phase":
        print(sweep_phase_threshold())
    elif exp == "ablation-grid":
        print(sweep_sampling_grid())
    elif exp == "ablation-cooldown":
        print(sweep_cooldown())
    elif exp == "ablation-classify":
        print(sweep_classification_threshold(store, limit=args.limit))
    elif exp == "ablation-noise":
        print(sweep_noise_robustness())
    elif exp == "ablation-detector":
        print(sweep_phase_detector())
    elif exp == "recommend":
        from repro.experiments.recommend import recommend, render_recommendation

        print(
            render_recommendation(
                recommend(args.hp, args.be, slo=args.slo, n_be=args.n_be)
            )
        )
    elif exp == "run":
        print(_run_single(store, args))
    else:  # pragma: no cover - argparse already rejects
        raise SystemExit(f"unknown experiment {exp}")

    if store.failures:
        print()
        print(_render_failures(store))
    registry = obs.get_registry()
    if registry.enabled:
        for key, value in store.stats().items():
            registry.gauge(f"store.{key}").set(value)
    store.save()


def _campaign_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicer-repro campaign",
        description="Drain a shared multi-process campaign queue "
        "(or monitor one; see DESIGN.md §11).",
    )
    parser.add_argument(
        "monitor",
        nargs="?",
        choices=["monitor"],
        help="render queue progress instead of working",
    )
    parser.add_argument(
        "queue_path",
        nargs="?",
        default=None,
        help="queue database (monitor mode positional)",
    )
    parser.add_argument(
        "--queue", type=str, default=None, metavar="DB",
        help="shared queue database (worker mode)",
    )
    parser.add_argument(
        "--store", type=str, default=None, metavar="DB",
        help="shared SQLite result store all workers write to",
    )
    _add_campaign_flags(parser)
    parser.add_argument(
        "--worker-id", type=str, default=None,
        help="identity for leases/telemetry (default: host-pid)",
    )
    parser.add_argument(
        "--claim-batch", type=int, default=8, metavar="N",
        help="cells claimed per lease (default 8)",
    )
    parser.add_argument(
        "--lease", type=float, default=300.0, metavar="SECONDS",
        help="lease duration before an unheartbeated claim is stealable "
        "(default 300)",
    )
    parser.add_argument(
        "--enqueue-only", action="store_true",
        help="enqueue the grid and exit without draining (producer mode)",
    )
    parser.add_argument(
        "--interval", type=float, default=None, metavar="SECONDS",
        help="monitor mode: re-render every SECONDS until the queue drains",
    )
    parser.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="monitor mode: stop after N renders (default: until drained)",
    )
    return parser


def _monitor_telemetry(path: str) -> str | None:
    """Per-worker batch throughput + failures from shared telemetry JSONL.

    Failure counts render right beside throughput: a worker "making
    progress" by quarantining every cell shows up as `failed` climbing
    with `cells/s`, not as silent success. Rate math is guarded — a
    worker with no completed cells (or clock-skewed zero seconds)
    renders 0.0, never a division error.
    """
    from pathlib import Path

    if not Path(path).exists():
        return None
    per_worker: dict[str, dict[str, float]] = {}
    for record in obs.load_jsonl(path):
        if record.get("kind") != "campaign.batch":
            continue
        label = record.get("label") or record.get("campaign_id") or "?"
        agg = per_worker.setdefault(
            label, {"batches": 0, "cells": 0, "failed": 0, "seconds": 0.0}
        )
        agg["batches"] += 1
        agg["cells"] += record.get("cells", 0)
        agg["failed"] += record.get("failed_cells", 0)
        agg["seconds"] += record.get("seconds", 0.0)
    if not per_worker:
        return None
    rows = [
        [
            label,
            int(agg["batches"]),
            int(agg["cells"]),
            int(agg["failed"]),
            (
                agg["cells"] / agg["seconds"]
                if agg["cells"] > 0 and agg["seconds"] > 0
                else 0.0
            ),
        ]
        for label, agg in sorted(per_worker.items())
    ]
    return format_table(
        ["worker", "batches", "cells", "failed", "cells/s"],
        rows,
        title=f"Telemetry: {path}",
    )


def _campaign_monitor(args: argparse.Namespace) -> int:
    import time as _time

    from repro.experiments.queue import CampaignQueue, render_monitor

    path = args.queue_path or args.queue
    if not path:
        raise SystemExit("campaign monitor requires a queue database path")
    from pathlib import Path

    if not Path(path).exists():
        raise SystemExit(f"campaign monitor: no queue database at {path}")
    queue = CampaignQueue(path)
    renders = 0
    while True:
        snapshot = queue.snapshot()
        print(render_monitor(snapshot, path=str(path)))
        if args.metrics:
            telemetry = _monitor_telemetry(args.metrics)
            if telemetry:
                print()
                print(telemetry)
        renders += 1
        if args.interval is None or snapshot.terminal:
            return 0
        if args.iterations is not None and renders >= args.iterations:
            return 0
        _time.sleep(args.interval)
        print()


def _campaign_main(argv: list[str]) -> int:
    """The ``campaign`` subcommand: queue worker / producer / monitor."""
    args = _campaign_parser().parse_args(argv)
    if args.monitor == "monitor":
        return _campaign_monitor(args)
    if not args.queue or not args.store:
        raise SystemExit(
            "campaign worker mode requires --queue DB and --store DB "
            "(or: campaign monitor QUEUE_DB)"
        )

    import os
    import socket

    from repro.experiments.queue import (
        CampaignQueue,
        drain,
        render_monitor,
    )

    worker_id = args.worker_id or f"{socket.gethostname()}-{os.getpid()}"
    telemetry = args.metrics is not None
    if telemetry:
        obs.enable(args.metrics, campaign_id=worker_id)

    try:
        try:
            store = ResultStore(
                cache_path=args.store,
                n_workers=args.workers,
                supervise=SuperviseConfig(
                    max_retries=args.max_retries,
                    cell_timeout_s=args.cell_timeout,
                    # Queue workers never abort the shared campaign over
                    # one poison cell: it becomes a 'failed' queue row.
                    on_failure="skip",
                ),
                precision=args.precision,
                # The shared store must support concurrent writers.
                backend="sqlite",
                batch_label=worker_id,
            )
        except ValueError as exc:
            raise SystemExit(f"campaign: {exc}") from None
        queue = CampaignQueue(args.queue, lease_s=args.lease)

        # Every worker derives the same sample and enqueues the same grid
        # in canonical order; content-addressed keys make this idempotent.
        from repro.experiments.grid import PAPER_CORES, grid_cells

        sample = build_sample(store, limit=args.limit, seed=args.seed)
        cores = tuple(args.cores) if args.cores else PAPER_CORES
        cells = grid_cells(sample, cores=cores)
        added = queue.enqueue(cells)
        print(
            f"[{worker_id}] enqueued {added} new cell(s) "
            f"({len(cells)} in grid)"
        )
        # Classification itself computed cells; persist them for peers.
        store.save()
        if args.enqueue_only:
            print(render_monitor(queue.snapshot(), path=args.queue))
            return 0

        tally = drain(
            store,
            queue,
            worker_id,
            claim_batch=args.claim_batch,
        )
        print(
            f"[{worker_id}] drained: {tally['done']} done, "
            f"{tally['failed']} failed, {tally['batches']} batch(es), "
            f"{tally['stolen']} stolen"
        )
        if store.failures:
            print()
            print(_render_failures(store))
        print(render_monitor(queue.snapshot(), path=args.queue))
        registry = obs.get_registry()
        if registry.enabled:
            for key, value in store.stats().items():
                registry.gauge(f"store.{key}").set(value)
        store.save()
    finally:
        if telemetry:
            _emit_solver_gauges(obs.get_registry())
            obs.emit("campaign.end", worker=worker_id)
            obs.finalise()
    return 0


# -- serve: the repro.serve control plane (DESIGN.md §14) --------------------


def _serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicer-repro serve",
        description="Drive the fault-tolerant multi-node control plane "
        "(loadgen / chaos / run / monitor; see DESIGN.md §14).",
    )
    sub = parser.add_subparsers(dest="mode", required=True)

    loadgen = sub.add_parser(
        "loadgen", help="generate a seeded submit/depart event stream"
    )
    loadgen.add_argument("--out", required=True, metavar="JSONL")
    loadgen.add_argument("--events", type=int, default=1000, metavar="N")
    loadgen.add_argument("--seed", type=int, default=None)
    loadgen.add_argument("--hp-frac", type=float, default=0.12)
    loadgen.add_argument("--depart-frac", type=float, default=0.45)

    chaos = sub.add_parser(
        "chaos", help="weave seeded node faults into a base stream"
    )
    chaos.add_argument("--base", required=True, metavar="JSONL",
                       help="loadgen output to weave into")
    chaos.add_argument("--out", required=True, metavar="JSONL")
    chaos.add_argument("--plan", default=None, metavar="JSON",
                       help="write the injection ledger + kill_seq here")
    chaos.add_argument("--seed", type=int, default=None)
    chaos.add_argument("--nodes", type=int, default=3)
    chaos.add_argument("--crashes", type=int, default=1)
    chaos.add_argument("--hangs", type=int, default=1)
    chaos.add_argument("--partitions", type=int, default=1)
    chaos.add_argument("--assign-faults", type=int, default=2)

    run = sub.add_parser(
        "run", help="replay an event stream through the serve daemon "
        "(SIGTERM checkpoints; rerunning resumes from the snapshot)"
    )
    run.add_argument("--events", required=True, metavar="JSONL")
    run.add_argument("--snapshot", required=True, metavar="JSON")
    run.add_argument("--nodes", type=int, default=3)
    run.add_argument("--policy", default="DICER",
                     help="per-node policy (any policy_from_name spec)")
    run.add_argument("--slo", type=float, default=0.9)
    run.add_argument("--precision", choices=("exact", "fast"),
                     default="fast")
    run.add_argument("--snapshot-every", type=int, default=100)
    run.add_argument("--throttle-s", type=float, default=0.0,
                     help="pacing between events (kill/restart testing)")
    run.add_argument("--evaluate-every", type=int, default=0,
                     help="drive dirty nodes' controllers every N events")
    run.add_argument("--max-retries", type=int, default=3)
    run.add_argument("--retry-base-s", type=float, default=0.0)
    run.add_argument("--supervise", action="store_true",
                     help="run the per-node heartbeat supervisors")
    run.add_argument("--summary", default=None, metavar="JSON",
                     help="write the final daemon summary here")
    run.add_argument("--metrics", default=None, metavar="JSONL",
                     help="telemetry stream (repro.obs)")

    monitor = sub.add_parser(
        "monitor", help="render fleet status from a serve snapshot"
    )
    monitor.add_argument("snapshot_path", metavar="SNAPSHOT")
    monitor.add_argument("--events", default=None, metavar="JSONL",
                         help="the run's event stream (enables ETA)")
    monitor.add_argument("--interval", type=float, default=None,
                         metavar="SECONDS")
    monitor.add_argument("--iterations", type=int, default=None, metavar="N")
    return parser


def _render_serve_status(
    state: dict, *, path: str = "", total_events: int | None = None
) -> str:
    """One serve snapshot as monitor tables.

    All rate math is guarded: a snapshot with zero applied events or
    zero elapsed time renders "-" for throughput and ETA instead of
    dividing by zero, and failures render right beside throughput so a
    fleet "progressing" by failing placements is visible at a glance.
    Reads both snapshot versions: version 1 lists every job under
    ``jobs``; version 2 lists the live ones under ``live`` and only the
    ids of rejected and departed jobs.
    """
    counters = state.get("counters", {})
    applied = int(counters.get("events_applied", 0))
    elapsed = float(state.get("elapsed_s", 0.0))
    throughput = applied / elapsed if applied > 0 and elapsed > 0 else None
    jobs = state["jobs"] if "jobs" in state else state.get("live", [])
    by_status = Counter(job.get("status", "?") for job in jobs)
    for status in ("rejected", "departed"):
        by_status[status] += len(state.get(status, []))
    rows = [
        ["applied_seq", state.get("applied_seq", -1)],
        ["events applied", applied],
        ["elapsed", f"{elapsed:.1f}s"],
        [
            "throughput",
            f"{throughput:.1f} events/s" if throughput else "-",
        ],
        ["failed placements", counters.get("placement_failures", 0)],
        ["retries", counters.get("placement_retries", 0)],
    ]
    if total_events is not None:
        remaining = max(0, total_events - (state.get("applied_seq", -1) + 1))
        rows.append(["remaining", remaining])
        rows.append(
            [
                "eta",
                "drained"
                if remaining == 0
                else (
                    f"{remaining / throughput:.0f}s" if throughput else "-"
                ),
            ]
        )
    for status in ("placed", "pending", "rejected", "departed"):
        rows.append([f"jobs {status}", by_status.get(status, 0)])
    rows.append(["submitted", counters.get("submitted", 0)])
    title = "Serve fleet" + (f": {path}" if path else "")
    out = format_table(["metric", "value"], rows, title=title)

    node_jobs: Counter = Counter(
        job["node_id"]
        for job in jobs
        if job.get("status") == "placed" and job.get("node_id")
    )
    node_rows = [
        [nid, entry.get("health", "?"), entry.get("restarts", 0),
         node_jobs.get(nid, 0)]
        for nid, entry in sorted(state.get("nodes", {}).items())
    ]
    if node_rows:
        out += "\n\n" + format_table(
            ["node", "health", "restarts", "jobs"],
            node_rows,
            title="Nodes",
        )
    return out


def _serve_monitor(args: argparse.Namespace) -> int:
    import time as _time
    from pathlib import Path

    from repro.serve.events import read_events
    from repro.serve.snapshot import load_snapshot

    total_events = None
    if args.events:
        if not Path(args.events).exists():
            raise SystemExit(f"serve monitor: no event stream at {args.events}")
        total_events = len(read_events(args.events))
    renders = 0
    while True:
        state = load_snapshot(args.snapshot_path)
        if state is None:
            print(f"serve monitor: no snapshot at {args.snapshot_path} yet")
        else:
            print(
                _render_serve_status(
                    state,
                    path=str(args.snapshot_path),
                    total_events=total_events,
                )
            )
        renders += 1
        drained = (
            state is not None
            and total_events is not None
            and state.get("applied_seq", -1) + 1 >= total_events
        )
        if args.interval is None or drained:
            return 0
        if args.iterations is not None and renders >= args.iterations:
            return 0
        _time.sleep(args.interval)
        print()


def _serve_main(argv: list[str]) -> int:
    """The ``serve`` subcommand: loadgen / chaos / run / monitor."""
    args = _serve_parser().parse_args(argv)
    if args.mode == "monitor":
        return _serve_monitor(args)

    import json as _json
    from pathlib import Path

    from repro.util.rng import DEFAULT_SEED

    seed = getattr(args, "seed", None)
    seed = DEFAULT_SEED if seed is None else seed

    if args.mode == "loadgen":
        from repro.serve.events import write_events
        from repro.serve.loadgen import generate_events

        events = generate_events(
            seed,
            args.events,
            hp_frac=args.hp_frac,
            depart_frac=args.depart_frac,
        )
        write_events(args.out, events)
        n_submit = sum(1 for e in events if e.kind == "submit")
        print(
            f"serve loadgen: {len(events)} events ({n_submit} submits) "
            f"seed={seed} -> {args.out}"
        )
        return 0

    if args.mode == "chaos":
        from repro.serve.chaos import weave_chaos
        from repro.serve.events import read_events, write_events
        from repro.serve.placement import PlaneConfig

        base = read_events(args.base)
        node_ids = PlaneConfig.for_nodes(args.nodes).node_ids
        plan = weave_chaos(
            base,
            seed=seed,
            node_ids=node_ids,
            n_crashes=args.crashes,
            n_hangs=args.hangs,
            n_partitions=args.partitions,
            n_assign_faults=args.assign_faults,
        )
        write_events(args.out, list(plan.events))
        if args.plan:
            Path(args.plan).write_text(
                _json.dumps(
                    {
                        "kill_seq": plan.kill_seq,
                        "counts": plan.counts(),
                        "faults": list(plan.faults),
                        "dropped": list(plan.dropped),
                    },
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
        print(
            f"serve chaos: {len(plan.events)} events "
            f"({plan.counts()}) kill_seq={plan.kill_seq} -> {args.out}"
        )
        if plan.dropped:
            kinds = ", ".join(row["kind"] for row in plan.dropped)
            print(
                f"serve chaos: WARNING {len(plan.dropped)} requested "
                f"fault(s) found no free window and were dropped: {kinds}"
            )
        return 0

    # args.mode == "run"
    import asyncio

    from repro.serve.daemon import ServeConfig, ServeDaemon
    from repro.serve.placement import PlaneConfig

    telemetry = args.metrics is not None
    if telemetry:
        obs.enable(args.metrics, campaign_id="serve")
    try:
        plane = PlaneConfig.for_nodes(
            args.nodes,
            policy=args.policy,
            slo=args.slo,
            precision=args.precision,
        )
        daemon = ServeDaemon(
            ServeConfig(
                plane=plane,
                events_path=Path(args.events),
                snapshot_path=Path(args.snapshot),
                snapshot_every=args.snapshot_every,
                throttle_s=args.throttle_s,
                evaluate_every=args.evaluate_every,
                max_retries=args.max_retries,
                retry_base_s=args.retry_base_s,
                supervise=args.supervise,
            )
        )
        if daemon.resumed:
            memo = daemon.plane.admission.memo_state()["max_bes"]
            print(
                f"serve run: resumed from snapshot at "
                f"applied_seq={daemon.plane.applied_seq} "
                f"({len(memo)} admission answers)"
            )
        summary = asyncio.run(daemon.run())
        if args.summary:
            Path(args.summary).parent.mkdir(parents=True, exist_ok=True)
            Path(args.summary).write_text(
                _json.dumps(summary, indent=2, sort_keys=True) + "\n"
            )
        jobs = summary["jobs"]
        print(
            f"serve run: applied_seq={summary['applied_seq']} "
            f"placed={jobs['placed']} pending={jobs['pending']} "
            f"rejected={jobs['rejected']} departed={jobs['departed']} "
            f"failures={summary['counters']['placement_failures']} "
            f"{'(stopped early)' if summary['stopped_early'] else ''}"
        )
        print(f"serve run: digest={summary['digest']}")
    finally:
        if telemetry:
            obs.emit("campaign.end", experiment="serve")
            obs.finalise()
    return 0


if __name__ == "__main__":
    sys.exit(main())
