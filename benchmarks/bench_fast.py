#!/usr/bin/env python
"""Fast-math solver speedup gate (``make bench-fast``).

Times the steady-state solver over the paper-scale operating-point
population — every pair of the 59-app catalog (the Figure 1 / CT
classification sweep's 3481 mixes) under the unmanaged partition and four
HP/BE splits — once at exact precision (the scalar solver, one point at
a time, as the library runs it) and once with the tolerance-contracted
fast kernel (DESIGN.md §10) as one fused batch, exactly how fast-mode
campaigns submit work.

Runs the two modes in alternating rounds (exact, fast, exact, fast, ...)
and reports each round's ``exact_wall / fast_wall`` ratio and the
microseconds per point of each mode; the speedup is the median of the
per-round ratios, so a slow spell of the host that covers one round
moves one ratio, not the gate. It verifies the fast results against
the exact ones with the runtime accuracy contract, and exits non-zero
when the speedup lands below ``--min-speedup`` (default 9.6; quick mode
has a lower floor because narrow populations amortise the batch setup
worse).

Usage::

    python benchmarks/bench_fast.py                  # full 3481-pair gate
    python benchmarks/bench_fast.py --quick          # truncated, floor 4.9, 9 rounds
    python benchmarks/bench_fast.py --min-speedup 4
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import sys
import time
from pathlib import Path

#: HP way splits sampled per pair (plus the unmanaged partition) — the
#: corners of DICER's sampling grid on the Table-1 platform.
HP_WAY_SPLITS = (5, 9, 13, 17)

#: Acceptance floors. They were 5x (full) and 3x (quick) against the
#: exact batch kernel the library used to have; the scalar solver that
#: replaced it is slower on these populations (1.91x full, 1.62x quick,
#: medians of 5 runs on a 2-vCPU Xeon VM), so the floors were scaled by
#: those factors and rounded up to stay no looser. Quick mode shrinks the
#: population ~8x, so per-batch setup overhead weighs heavier.
MIN_SPEEDUP_FULL = 9.6
MIN_SPEEDUP_QUICK = 4.9

#: Default timing rounds. A quick round is ~8x shorter, so one slow spell
#: of the host moves more of its ratios: with 5 rounds the quick median
#: sat inside its own noise band around the floor, so it takes 9.
ROUNDS_FULL = 5
ROUNDS_QUICK = 9


def build_population(limit: int | None = None) -> list[tuple]:
    """Operating points of the full pair grid (phases, partition, mba)."""
    from repro.sim.partition import PartitionSpec
    from repro.sim.platform import TABLE1_PLATFORM
    from repro.workloads.catalog import app_names
    from repro.workloads.mix import make_mix

    names = app_names()[:limit]
    points: list[tuple] = []
    for hp, be in itertools.product(names, names):
        mix = make_mix(hp, be, n_be=9)
        phases = tuple(app.phases[0] for app in mix.apps())
        n = len(phases)
        partitions = [
            PartitionSpec.unmanaged(n, TABLE1_PLATFORM.llc_ways)
        ] + [
            PartitionSpec.hp_be(
                w, n_cores=n, total_ways=TABLE1_PLATFORM.llc_ways
            )
            for w in HP_WAY_SPLITS
        ]
        for partition in partitions:
            points.append((phases, partition, None))
    return points


def time_modes(points: list[tuple], rounds: int) -> tuple:
    """(per-round walls by precision, results by precision).

    The rounds alternate exact, fast, exact, fast, ... so a slow spell
    of the host lands on both modes instead of on one mode's rounds.
    """
    from repro.sim.contention import solve_steady_state_batch
    from repro.sim.platform import TABLE1_PLATFORM

    walls: dict[str, list[float]] = {"exact": [], "fast": []}
    results = {}
    for _ in range(rounds):
        for precision in walls:
            t0 = time.perf_counter()
            results[precision] = solve_steady_state_batch(
                TABLE1_PLATFORM, points, precision=precision
            )
            walls[precision].append(time.perf_counter() - t0)
    return walls, results


def check_contract(fast, exact) -> tuple[int, float]:
    """(violation count, worst relative IPC error) across the population."""
    import numpy as np

    from repro.sim.contention import _fast_contract_violations

    violations = 0
    worst = 0.0
    for f, e in zip(fast, exact):
        if _fast_contract_violations(f, e):
            violations += 1
        worst = max(
            worst,
            float(np.max(np.abs(f.ipc - e.ipc) / np.abs(e.ipc))),
        )
    return violations, worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="truncate the catalog to 16 apps (~1280 points) and relax "
        f"the floor to {MIN_SPEEDUP_QUICK}x",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        metavar="X",
        help="acceptance floor for exact/fast wall-clock ratio "
        f"(default {MIN_SPEEDUP_FULL}, quick {MIN_SPEEDUP_QUICK})",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="alternating exact/fast timing rounds; the median of the "
        f"per-round exact/fast ratios counts (default {ROUNDS_FULL}, "
        f"quick {ROUNDS_QUICK})",
    )
    args = parser.parse_args(argv)
    floor = args.min_speedup
    if floor is None:
        floor = MIN_SPEEDUP_QUICK if args.quick else MIN_SPEEDUP_FULL
    rounds = args.rounds
    if rounds is None:
        rounds = ROUNDS_QUICK if args.quick else ROUNDS_FULL

    points = build_population(limit=16 if args.quick else None)
    pairs = len(points) // (1 + len(HP_WAY_SPLITS))
    print(
        f"fast-math gate: {len(points)} operating points "
        f"({pairs} pairs x {1 + len(HP_WAY_SPLITS)} partitions, "
        f"{'quick' if args.quick else 'full'} population)"
    )

    walls, results = time_modes(points, rounds)
    ratios = [e / f for e, f in zip(walls["exact"], walls["fast"])]
    speedup = statistics.median(ratios)
    violations, worst = check_contract(results["fast"], results["exact"])

    us = 1e6 / len(points)
    for i, (t_exact, t_fast, ratio) in enumerate(
        zip(walls["exact"], walls["fast"], ratios)
    ):
        print(
            f"  round {i}: exact {t_exact:.3f}s ({t_exact * us:.1f} us/point)"
            f"   fast {t_fast:.3f}s ({t_fast * us:.1f} us/point)"
            f"   ratio {ratio:.2f}x"
        )
    print(f"  speedup: {speedup:.2f}x median of {len(ratios)} rounds "
          f"(floor {floor}x)")
    print(
        f"  accuracy contract: {violations} violation(s), "
        f"worst |ipc rel err| {worst:.3e}"
    )

    if violations:
        print(f"FAIL: {violations} point(s) broke the accuracy contract")
        return 1
    if speedup < floor:
        print(f"FAIL: speedup {speedup:.2f}x below the {floor}x floor")
        return 1
    print("OK: fast kernel clears the speedup floor with the contract held")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    sys.exit(main())
