#!/usr/bin/env python
"""Compare two sets of benchmark results, metric by metric.

Usage::

    python bench/compare.py A B

``A`` (the parent, or the first set) and ``B`` (the change, or the
second set) are directories of result files written by ``bench/run.py
--out``. For every (workload, end-to-end metric) the report gives each
side's median and quartiles over its runs, the fraction of seed-matched
pairs that B wins (ties count for neither), and a verdict, using the
bounds in ``BENCHMARK.json``:

* ``improved``   — B wins at least 9/10 of the pairs and the medians
  differ, in B's favour, by more than A's quartile spread;
* ``regressed``  — B's median is worse than A's by more than the bound,
  and A's own spread is within the bound or every B run is worse than
  every A run;
* ``unresolved`` — A's own spread (quartile distance over median) is
  wider than the bound, and not every B run beats every A run;
* ``unchanged``  — otherwise.

Each workload also gets a ``failed`` row: the operations that failed
over the seeds both sides ran. More failures in B is ``regressed``,
whatever the timings say.

When both directories hold traced runs (``--trace 1``), the per-layer
tables are diffed too (medians over the traced runs of each side). The
exit code is 1 when any pairing regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> tuple[dict, dict, dict]:
    """From a set: workload -> seed -> (e2e values, layer values, failed)."""
    e2e: dict[str, dict[int, dict]] = {}
    layers: dict[str, dict[int, dict]] = {}
    failed: dict[str, dict[int, int]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text())
        if "workload" not in result:
            continue
        workload, seed = result["workload"], result["seed"]
        if result.get("trace"):
            layers.setdefault(workload, {})[seed] = result["layers"]
        else:
            e2e.setdefault(workload, {})[seed] = result["e2e"]
            failed.setdefault(workload, {})[seed] = result["failed"]
    return e2e, layers, failed


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(a: dict[int, float], b: dict[int, float], higher_is_better: bool,
            bound: float) -> tuple[str, float | None]:
    """Verdict for one metric and the fraction of pairs B won."""
    sign = 1.0 if higher_is_better else -1.0
    a_q1, a_med, a_q3 = quartiles(list(a.values()))
    _, b_med, _ = quartiles(list(b.values()))
    pairs = sorted(set(a) & set(b))
    wins = sum(sign * (b[s] - a[s]) > 0 for s in pairs)
    won = wins / len(pairs) if pairs else None
    gain = sign * (b_med - a_med)
    if won is not None and won >= 0.9 and gain > a_q3 - a_q1:
        return "improved", won
    spread = (a_q3 - a_q1) / a_med if a_med else 0.0
    a_signed = [sign * v for v in a.values()]
    b_signed = [sign * v for v in b.values()]
    all_better = min(b_signed) > max(a_signed)
    all_worse = max(b_signed) < min(a_signed)
    worse_than_bound = -gain > bound * abs(a_med)
    if worse_than_bound and all_worse:
        return "regressed", won
    if spread > bound and not all_better:
        return "unresolved", won
    if worse_than_bound:
        return "regressed", won
    return "unchanged", won


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="results of the parent / set 1")
    parser.add_argument("b", type=Path, help="results of the change / set 2")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    a_e2e, a_layers, a_failed = load(args.a)
    b_e2e, b_layers, b_failed = load(args.b)

    regressed = False
    print(
        f"{'workload':<16} {'metric':<12} {'A q1/med/q3':>30} "
        f"{'B q1/med/q3':>30} {'won':>5} {'bound':>6}  verdict"
    )
    for workload in sorted(set(a_e2e) & set(b_e2e)):
        a_runs, b_runs = a_e2e[workload], b_e2e[workload]
        for name, meta in metrics.items():
            a = {s: r[name] for s, r in a_runs.items()}
            b = {s: r[name] for s, r in b_runs.items()}
            result, won = verdict(
                a, b, meta["better"] == "higher", meta["bound"]
            )
            regressed |= result == "regressed"
            cells = [
                "/".join(f"{v:.4g}" for v in quartiles(list(side.values())))
                for side in (a, b)
            ]
            won_text = "-" if won is None else f"{won:.2f}"
            print(
                f"{workload:<16} {name:<12} {cells[0]:>30} {cells[1]:>30} "
                f"{won_text:>5} {meta['bound']:>6.2f}  {result}"
            )
        seeds = set(a_failed[workload]) & set(b_failed[workload])
        a_fail = sum(a_failed[workload][s] for s in seeds)
        b_fail = sum(b_failed[workload][s] for s in seeds)
        result = "regressed" if b_fail > a_fail else "unchanged"
        regressed |= result == "regressed"
        print(
            f"{workload:<16} {'failed':<12} {a_fail:>30} {b_fail:>30} "
            f"{'-':>5} {'-':>6}  {result}"
        )

    for workload in sorted(set(a_layers) & set(b_layers)):
        print(f"\nper-layer {workload} (median over traced runs)")
        names = next(iter(a_layers[workload].values()))
        for name in names:
            a_med = statistics.median(r[name] for r in a_layers[workload].values())
            b_med = statistics.median(r[name] for r in b_layers[workload].values())
            if not a_med and not b_med:
                continue
            change = f"{(b_med - a_med) / a_med:+.1%}" if a_med else "new"
            print(f"  {name:<40} {a_med:>14.6g} {b_med:>14.6g} {change:>8}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
