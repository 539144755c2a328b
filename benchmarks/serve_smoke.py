#!/usr/bin/env python
"""Self-checking smoke test for the ``repro.serve`` control plane.

The determinism contract of DESIGN.md §14, run end-to-end through the
real CLI:

1. generate a seeded churn stream (1000+ submit/depart events);
2. run it clean through the serve daemon → the reference digest;
3. weave seeded chaos into the same stream (node crash + hang +
   partition, each with a recover, plus transient placement faults);
4. run the chaos stream, SIGTERM-kill the daemon mid-run, restart it,
   and let it drain;

then fail (exit 1) unless the interrupted chaos run's terminal placement
digest is byte-identical to the clean run's, and no job was dropped —
every submission is either placed, pending, departed, or explicitly
rejected by admission. The snapshot the killed daemon leaves must be
version 2 and carry the admission memo the restarted process resumes
with; its size in bytes is printed. ``make serve-smoke`` wires this into ``make
all``.

Usage::

    python benchmarks/serve_smoke.py [--events 1200] [--nodes 3]
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _serve(args: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", "serve", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _run(args: list[str], env: dict, *, timeout: float = 600.0) -> str:
    proc = _serve(args, env)
    out, _ = proc.communicate(timeout=timeout)
    sys.stdout.write(out)
    if proc.returncode != 0:
        raise RuntimeError(f"serve {args[0]} exited rc={proc.returncode}")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--events", type=int, default=1200)
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--throttle-s", type=float, default=0.004,
        help="chaos-run pacing so the SIGTERM lands mid-stream",
    )
    args = parser.parse_args(argv)
    if args.events < 1000:
        print("FAIL: the contract is a 1000+-event churn run")
        return 1

    import os

    from repro.serve.snapshot import load_snapshot

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    seed = [] if args.seed is None else ["--seed", str(args.seed)]
    nodes = ["--nodes", str(args.nodes)]

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        tmpdir = Path(tmp)
        base = tmpdir / "base.jsonl"
        chaos = tmpdir / "chaos.jsonl"
        plan_path = tmpdir / "plan.json"

        _run(
            ["loadgen", "--out", str(base), "--events", str(args.events)]
            + seed,
            env,
        )
        _run(
            ["chaos", "--base", str(base), "--out", str(chaos),
             "--plan", str(plan_path)] + seed + nodes,
            env,
        )
        plan = json.loads(plan_path.read_text())
        if plan["counts"].get("node_crash", 0) < 1:
            print("FAIL: chaos plan carries no node crash")
            return 1
        n_chaos_events = sum(1 for _ in chaos.open())

        # Clean reference: the base stream, uninterrupted, no faults.
        _run(
            ["run", "--events", str(base),
             "--snapshot", str(tmpdir / "clean_snap.json"),
             "--summary", str(tmpdir / "clean.json")] + nodes,
            env,
        )
        clean = json.loads((tmpdir / "clean.json").read_text())

        # Chaos run, phase 1: throttled so we can SIGTERM it mid-stream.
        snap = tmpdir / "snap.json"
        run_args = [
            "run", "--events", str(chaos), "--snapshot", str(snap),
            "--summary", str(tmpdir / "chaos1.json"),
            "--snapshot-every", "25",
        ] + nodes
        proc = _serve(run_args + ["--throttle-s", str(args.throttle_s)], env)
        kill_after = max(50, plan["kill_seq"] // 2)
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            state = load_snapshot(snap)
            if state is not None and state["applied_seq"] >= kill_after:
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        killed = proc.poll() is None
        if killed:
            proc.send_signal(signal.SIGTERM)
        out, _ = proc.communicate(timeout=600)
        sys.stdout.write(out)
        if proc.returncode != 0:
            print(f"FAIL: chaos run (phase 1) exited rc={proc.returncode}")
            return 1
        state = load_snapshot(snap)
        if not killed or state["applied_seq"] + 1 >= n_chaos_events:
            print(
                "FAIL: SIGTERM landed after the run drained "
                f"(applied_seq={state['applied_seq']}, "
                f"events={n_chaos_events}) — raise --throttle-s"
            )
            return 1
        print(
            f"killed daemon at applied_seq={state['applied_seq']} "
            f"of {n_chaos_events - 1}"
        )
        version = json.loads(snap.read_bytes()).get("version")
        memo = state.get("admission", {}).get("max_bes", [])
        if version != 2 or not memo:
            print(
                f"FAIL: phase-1 snapshot is version {version} with "
                f"{len(memo)} admission answers (want version 2, non-empty)"
            )
            return 1
        print(
            f"phase-1 snapshot: version {version}, {len(memo)} admission "
            f"answers, {snap.stat().st_size} bytes"
        )

        # Phase 2: restart on the same snapshot; it must resume and drain.
        out = _run(run_args, env)
        if "resumed from snapshot" not in out:
            print("FAIL: restarted daemon did not resume from the snapshot")
            return 1
        if f"({len(memo)} admission answers)" not in out:
            print("FAIL: restarted daemon did not adopt the admission memo")
            return 1
        chaos_summary = json.loads((tmpdir / "chaos1.json").read_text())

        failures = []
        if chaos_summary["digest"] != clean["digest"]:
            failures.append(
                "terminal digest diverged: chaos "
                f"{chaos_summary['digest']} != clean {clean['digest']}"
            )
        if chaos_summary["applied_seq"] != n_chaos_events - 1:
            failures.append(
                f"stream not drained: {chaos_summary['applied_seq']} "
                f"!= {n_chaos_events - 1}"
            )
        counters = chaos_summary["counters"]
        jobs = chaos_summary["jobs"]
        accounted = sum(jobs.values())
        if counters["submitted"] != accounted:
            failures.append(
                f"dropped jobs: {counters['submitted']} submitted but "
                f"only {accounted} accounted for ({jobs})"
            )
        if counters["accepted"] + counters["rejected"] != counters["submitted"]:
            failures.append(
                "admission leak: accepted + rejected != submitted"
            )
        if counters["node_crashes"] < 1 or counters["node_recoveries"] < 1:
            failures.append("chaos run saw no crash/recover cycle")
        for failure in failures:
            print(f"FAIL: {failure}")
        if failures:
            return 1
        print(
            f"OK: {args.events}-event churn, "
            f"{counters['node_crashes']} crash / "
            f"{counters['node_hangs']} hang / "
            f"{counters['node_partitions']} partition, "
            "SIGTERM kill + restart — terminal digest identical to the "
            f"clean run ({clean['digest'][:16]}…), "
            f"{counters['submitted']} jobs all accounted for "
            f"({jobs['rejected']} rejected by admission, 0 dropped)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
