#!/usr/bin/env python
"""Run one benchmark workload and print every metric with its unit.

Usage::

    python bench/run.py --workload W [--seed S] [--seconds N]
                        [--repeats K] [--trace [0|1]] [--out DIR]

Each unit of work runs in a fresh child process, so caches start cold
and ``setup_s`` is real. Children run one after another until
``--seconds`` are used and at least ``--repeats`` untraced children ran.
Every time a child reports is scaled to full host speed by the probes
of ``clock.Clock``; each end-to-end metric is the median over the
untraced children, and the raw times are per-layer metrics.
``--trace 1`` adds one traced child whose spans give the per-layer
table (written to ``DIR/spans-<workload>.jsonl``) and prints the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
stamped with the commit, Python/NumPy versions, ``nproc`` and the load
average around every child, goes to ``DIR/<workload>-seed<S>[-trace].json``
for ``bench/compare.py``. The exit code is non-zero when any output
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("campaign_paper", "admission_exact", "serve_fleet30", "serve_small3")

#: End-to-end metrics: name -> (unit, better). Times are at full host
#: speed (``clock.Clock``).
E2E_METRICS = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
}

#: Per-layer metrics the runner adds to the span-derived table, as
#: medians over the untraced children. ``op_tail_ms`` sits here: it is
#: a handful of slow operations, so it spreads more than any bound it
#: could be given (README.md, End-to-end metrics). The ``raw.`` metrics
#: are the end-to-end timings as measured, before the host-speed
#: scaling, and ``host.slowdown`` is that scaling's divisor.
RUN_LAYER_METRICS = {
    "op_tail_ms": "ms",
    "raw.ops_per_s": "1/s",
    "raw.op_p50_ms": "ms",
    "host.slowdown": "ratio",
    "campaign.classify_s": "s",
    "campaign.grid_s": "s",
    "campaign.resume_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.spans": "count",
    "trace.self_sum_s": "s",
    "trace_overhead_frac": "ratio",
}

#: Samples the tail latency leaves beyond it: the tail is the highest
#: percentile with at least this many samples above it.
TAIL_BEYOND = 10
DEFAULT_SECONDS = 25
CHILD_TIMEOUT_S = 150


def per_layer_metrics() -> dict[str, str]:
    """Every per-layer metric name -> unit, in report order."""
    sys.path.insert(0, str(BENCH))
    from tracing import PER_LAYER_METRICS

    return {**PER_LAYER_METRICS, **RUN_LAYER_METRICS}


def better(name: str) -> str:
    """Direction of improvement for a metric name."""
    if name in E2E_METRICS:
        return E2E_METRICS[name][1]
    return "higher" if name.endswith(("hit_rate", "ops_per_s")) else "lower"


def tail(values) -> float:
    """The highest percentile of ``values`` with ``TAIL_BEYOND`` above it.

    That is the ``TAIL_BEYOND + 1``-th largest value; its percentile is
    :func:`tail_percentile` of the sample count.
    """
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {len(ordered)}"
        )
    return ordered[-TAIL_BEYOND - 1]


def tail_percentile(n: int) -> float:
    """The percentile :func:`tail` reports for ``n`` samples."""
    return 100.0 * (n - 1 - TAIL_BEYOND) / (n - 1)


# -- child: one unit in a fresh process ----------------------------------


def run_unit(spec: dict) -> dict:
    """Set up and run one unit of ``spec['workload']``; return its result."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy

    from clock import Clock

    clock = Clock()
    clock.burst()  # the host's speed early in set-up

    from tracing import NAME, Tracer, layer_metrics, self_times
    from workloads import NullTracer, make_workload

    out = Path(spec["out"])
    workdir = out / f"tmp-{spec['workload']}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if spec["trace"] else NullTracer()
    try:
        workload = make_workload(
            spec["workload"], spec["seed"], workdir, **spec.get("sizes", {})
        )
        if spec["trace"]:
            tracer.install()
        setup_end = time.perf_counter()
        setup = (setup_end - (time.time() - spec["spawned"]), setup_end)
        clock.burst()
        with tracer.span("bench.unit"):
            unit = workload.run(tracer, clock)
        clock.burst()
    finally:
        if spec["trace"]:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    expected = None  # pinned outputs hold for the benchmark's own sizes
    if EXPECTED.exists() and not spec.get("sizes"):
        pinned = json.loads(EXPECTED.read_text())
        expected = pinned.get(spec["workload"], {}).get(str(spec["seed"]))
    latencies = [sum(clock.scaled(*i) for i in op) for op in unit.latencies]
    raw_latencies = [sum(e - s for s, e in op) for op in unit.latencies]
    wall = clock.scaled_wall(*unit.wall)
    done = unit.attempted - unit.failed
    result = {
        "numpy": numpy.__version__,
        "metrics": {
            "setup_s": clock.scaled_wall(*setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024,
            "ops_per_s": done / wall,
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail(latencies) * 1e3,
            "raw.ops_per_s": done / clock.raw_wall(*unit.wall),
            "raw.op_p50_ms": statistics.median(raw_latencies) * 1e3,
            "host.slowdown": clock.slowdown(*unit.wall),
        },
        "samples": len(latencies),
        "probes": len(clock.samples),
        "wall_s": wall,
        "elapsed_s": unit.wall[1] - unit.wall[0],
        "phases": {
            name: clock.scaled_wall(*interval)
            for name, interval in unit.phases.items()
        },
        "attempted": unit.attempted,
        "failed": unit.failed,
        "summary": unit.summary,
        "checks": [
            {"name": name, "ok": bool(ok), "detail": detail}
            for name, ok, detail in workload.check(unit, expected)
        ],
    }
    if spec.get("pin"):
        result["pin"] = workload.pin(unit)
    if spec["trace"]:
        result["layers"] = layer_metrics(tracer.spans)
        result["spans"] = len(tracer.spans)
        # Self time of the program's layers, leaving out the benchmark's
        # own glue spans: it can never exceed the unit's elapsed time.
        result["self_sum_s"] = sum(
            own
            for span, own in zip(tracer.spans, self_times(tracer.spans))
            if not span[NAME].startswith("bench.")
        )
        tracer.write_jsonl(out / f"spans-{spec['workload']}.jsonl")
    return result


# -- parent: spawn children, aggregate, report ----------------------------


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _spawn(spec: dict) -> dict:
    spec = dict(spec, spawned=time.time())
    # A fixed hash seed gives every child the same dict and set layouts,
    # so children of one run differ only by the host's noise.
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--child", json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=CHILD_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"child for {spec['workload']} exited rc={proc.returncode}"
        )
    return json.loads(lines[-1])


def run_children(args) -> list[dict]:
    """Spawn the traced child, if asked for, then untraced children until
    the repeat floor is met and the time is used.

    Past the floor, another child starts only if one more of the same
    length still fits in ``--seconds``.
    """
    spec = {"workload": args.workload, "seed": args.seed, "out": str(args.out)}
    children: list[dict] = []
    start = time.monotonic()
    want_trace = bool(args.trace)
    untraced = 0
    last = 0.0
    while (
        want_trace
        or untraced < args.repeats
        or time.monotonic() - start + last <= args.seconds
    ):
        load_before = os.getloadavg()
        t0 = time.monotonic()
        child = _spawn(dict(spec, trace=want_trace))
        last = time.monotonic() - t0
        child["traced"] = want_trace
        child["loadavg_before"] = load_before
        child["loadavg_after"] = os.getloadavg()
        children.append(child)
        untraced += not want_trace
        want_trace = False
    return children


def aggregate(args, children: list[dict]) -> dict:
    """Medians over the untraced children; the per-layer table from the
    traced one."""
    untraced = [c for c in children if not c["traced"]]

    def median(key):
        return statistics.median(key(c) for c in untraced)

    e2e = {name: median(lambda c: c["metrics"][name]) for name in E2E_METRICS}
    checks = [check for c in children for check in c["checks"]]
    agree = all(c["summary"] == children[0]["summary"] for c in children)
    failed = sum(c["failed"] for c in children)
    checks += [
        {
            "name": "every child produced identical outputs",
            "ok": agree,
            "detail": f"{len(children)} children",
        },
        {
            "name": "no operation failed",
            "ok": failed == 0,
            "detail": f"{failed} failed",
        },
    ]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": bool(args.trace),
        "stamp": {
            "commit": _git_commit(),
            "python": platform.python_version(),
            "numpy": children[0]["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
        },
        "attempted": sum(c["attempted"] for c in children),
        "failed": failed,
        "checks": checks,
        "e2e": e2e,
        "children": children,
    }
    if args.trace:
        traced = next(c for c in children if c["traced"])
        untraced_wall = median(lambda c: c["wall_s"])
        layers = dict(traced["layers"])
        for name in ("op_tail_ms", "raw.ops_per_s", "raw.op_p50_ms",
                     "host.slowdown"):
            layers[name] = median(lambda c: c["metrics"][name])
        for phase in ("classify_s", "grid_s", "resume_s"):
            layers[f"campaign.{phase}"] = median(
                lambda c: c["phases"].get(phase, 0.0)
            )
        layers.update(
            {
                "trace.wall_s": traced["wall_s"],
                "trace.untraced_wall_s": untraced_wall,
                "trace.spans": traced["spans"],
                "trace.self_sum_s": traced["self_sum_s"],
                "trace_overhead_frac": traced["wall_s"] / untraced_wall,
            }
        )
        result["layers"] = layers
        checks.append(
            {
                "name": "layer self times sum to no more than wall time",
                "ok": traced["self_sum_s"] <= traced["elapsed_s"],
                "detail": f"{traced['self_sum_s']:.4f} s of "
                f"{traced['elapsed_s']:.4f} s",
            }
        )
    result["correct"] = all(check["ok"] for check in checks)
    return result


def report(result: dict, units: dict[str, str]) -> None:
    """Print the human-readable block, then the one-line JSON result."""
    stamp = result["stamp"]
    untraced = [c for c in result["children"] if not c["traced"]]
    print(
        f"workload={result['workload']} seed={result['seed']} "
        f"commit={stamp['commit'][:12]} python={stamp['python']} "
        f"numpy={stamp['numpy']} nproc={stamp['nproc']} "
        f"children={len(result['children'])} (untraced {len(untraced)})"
    )
    samples = untraced[0]["samples"]
    print(
        f"  latency samples per unit: {samples}; the tail is "
        f"p{tail_percentile(samples):.1f}, {TAIL_BEYOND} samples beyond"
    )
    slowdown = statistics.median(c["metrics"]["host.slowdown"] for c in untraced)
    print(
        f"  the host ran {slowdown:.2f}x slower than full speed; times are "
        "scaled to full speed (the raw.* per-layer metrics are not)"
    )
    values = result["layers"] if result["trace"] else result["e2e"]
    values = {name: values[name] for name in units if name in values}
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units[name]}")
    for check in result["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        print(f"  check {status} {check['name']}: {check['detail']}")
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in values.items()
                },
            }
        )
    )


def pin(args) -> int:
    """Record this seed's expected outputs in ``expected.json``."""
    result = run_unit(
        {
            "workload": args.workload,
            "seed": args.seed,
            "out": str(args.out),
            "trace": False,
            "spawned": time.time(),
            "pin": True,
        }
    )
    pinned = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    pinned.setdefault(args.workload, {})[str(args.seed)] = result["pin"]
    EXPECTED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"pinned {args.workload} seed {args.seed}: {result['pin']}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1)
    )
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument(
        "--pin", action="store_true",
        help="record this seed's outputs in expected.json and exit",
    )
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.child:
        print(json.dumps(run_unit(json.loads(args.child))))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro").is_dir():
        print(f"error: no package source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    args.out = args.out.resolve()
    if args.pin:
        return pin(args)

    load1 = os.getloadavg()[0]
    if load1 >= 1.0:
        print(
            f"warning: 1-minute load average is {load1:.2f} at start; "
            "timings will be noisy",
            file=sys.stderr,
        )
    try:
        children = run_children(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = aggregate(args, children)
    args.out.mkdir(parents=True, exist_ok=True)
    suffix = "-trace" if args.trace else ""
    path = args.out / f"{args.workload}-seed{args.seed}{suffix}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    units = {name: unit for name, (unit, _) in E2E_METRICS.items()}
    units.update(per_layer_metrics())
    report(result, units)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
