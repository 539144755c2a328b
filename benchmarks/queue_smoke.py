#!/usr/bin/env python
"""Self-checking smoke test for the shared campaign queue.

Runs a small real campaign four ways — two concurrent ``dicer-repro
campaign`` worker processes draining one queue into one shared SQLite
store, a serial SQLite store, a serial JSON-file store, and a JSON-file
store fanned out over worker processes — and fails (exit 1) unless all
four artefacts carry the same canonical content digest and the queue
reports every cell done exactly once. This is the acceptance property
of DESIGN.md §11 (queue ≡ serial) and §7 (serial ≡ processes) run
end-to-end through the real CLI and ``ResultStore``; ``make
queue-smoke`` wires it into ``make all``.

Usage::

    python benchmarks/queue_smoke.py [--limit 2] [--cores 3] [--workers 2]
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))


def _run_worker(args: list[str], env: dict) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments.cli", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--limit", type=int, default=2)
    parser.add_argument("--cores", type=int, default=3)
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent queue workers, and the pool width "
                        "of the processes reference (default 2)")
    args = parser.parse_args(argv)

    import os

    from repro.experiments.backends import open_backend
    from repro.experiments.queue import CampaignQueue

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")

    with tempfile.TemporaryDirectory(prefix="queue-smoke-") as tmp:
        tmpdir = Path(tmp)
        queue_db = tmpdir / "q.db"
        store_db = tmpdir / "results.db"
        campaign = [
            "campaign", "--queue", str(queue_db), "--store", str(store_db),
            "--limit", str(args.limit), "--cores", str(args.cores),
            "--precision", "fast", "--claim-batch", "2",
        ]
        procs = [
            _run_worker(campaign + ["--worker-id", f"smoke-w{i}"], env)
            for i in range(1, args.workers + 1)
        ]
        failed = False
        for proc in procs:
            out, _ = proc.communicate(timeout=600)
            sys.stdout.write(out)
            if proc.returncode != 0:
                print(f"FAIL: worker exited rc={proc.returncode}")
                failed = True
        if failed:
            return 1

        snapshot = CampaignQueue(queue_db).snapshot()
        if not snapshot.terminal or snapshot.failed or snapshot.done == 0:
            print(f"FAIL: queue did not drain clean: {snapshot}")
            return 1

        # References: the exact workload a campaign worker runs
        # (classification sample + canonical grid), serially on each
        # backend and over worker processes.
        from repro.experiments.grid import build_sample, grid_cells
        from repro.experiments.store import ResultStore

        references = (
            ("serial.db", 1),
            ("serial.json", 1),
            ("processes.json", args.workers),
        )
        for name, workers in references:
            store = ResultStore(
                cache_path=tmpdir / name,
                n_workers=workers,
                precision="fast",
            )
            sample = build_sample(store, limit=args.limit)
            store.get_many(grid_cells(sample, cores=(args.cores,)))
            store.save()

        digests = {
            path.name: open_backend(path).digest()
            for path in [store_db]
            + [tmpdir / name for name, _ in references]
        }
        for name, digest in sorted(digests.items()):
            print(f"digest {name}: {digest}")
        if len(set(digests.values())) != 1:
            print(
                f"FAIL: {args.workers}-worker queue store and the "
                "serial/processes references diverged"
            )
            return 1
        print(
            f"OK: {args.workers} workers, {snapshot.done} cells, "
            f"{snapshot.steals} steal(s) — queue store byte-identical to "
            "serial file and sqlite references and to a processes pool run"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
