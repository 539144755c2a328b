"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import clock  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Sizes small enough for a test, large enough to enter every layer and
#: to leave more than ``run.TAIL_BEYOND`` latency samples.
TINY = {
    "campaign_paper": {"limit": 4, "n_ctf": 1, "n_ctt": 3,
                       "cores": (2, 4, 6, 8, 10)},
    "admission_exact": {"n_queries": 12},
    "serve_fleet30": {"n_events": 80, "n_live": 20},
    "serve_small3": {"n_events": 80, "n_live": 20},
}

#: Span name -> the workload predicted to stress that layer.
STRESSED_BY = {
    "sim.solver.singleton": "admission_exact",
    "sim.solver.batch": "campaign_paper",
    "sim.steady_cache.solve": "campaign_paper",
    "sim.steady_cache.solve_many": "campaign_paper",
    "sim.server.advance": "campaign_paper",
    "sim.server.prefetch": "campaign_paper",
    "sim.solo.profile": "campaign_paper",
    "sim.solo.prewarm": "campaign_paper",
    "rdt.sample": "campaign_paper",
    "rdt.apply": "campaign_paper",
    "rdt.prefetch": "campaign_paper",
    "core.controller.dicer": "campaign_paper",
    "core.controller.lfoc": "admission_exact",
    "core.controller.cbp": "admission_exact",
    "core.admission.find_max_bes": "admission_exact",
    "experiments.runner.run_pair": "campaign_paper",
    "experiments.supervise.run": "campaign_paper",
    "experiments.store.get_many": "campaign_paper",
    "experiments.store.save": "campaign_paper",
    "experiments.store.load": "campaign_paper",
    "serve.plane.apply_event": "serve_small3",
    "serve.plane.reconcile": "serve_fleet30",
    "serve.plane.canonical_placement": "serve_small3",
    "serve.daemon.apply_event": "serve_fleet30",
    "serve.node.assign": "serve_fleet30",
    "serve.snapshot.save": "serve_fleet30",
    "serve.snapshot.load": "serve_fleet30",
}


@pytest.fixture(scope="module")
def traced_runs(tmp_path_factory):
    """One tiny traced unit per workload, through the child's code path."""
    out = tmp_path_factory.mktemp("out")
    results = {}
    for name in run.WORKLOADS:
        results[name] = run.run_unit(
            {
                "workload": name,
                "seed": 0,
                "out": str(out),
                "trace": True,
                "spawned": time.time(),
                "sizes": TINY[name],
            }
        )
        spans = [
            json.loads(line)
            for line in (out / f"spans-{name}.jsonl").read_text().splitlines()
        ]
        results[name]["span_rows"] = spans
    return results


def test_tiny_run_of_every_workload(traced_runs):
    for name, result in traced_runs.items():
        assert result["samples"] > run.TAIL_BEYOND, name
        assert result["failed"] == 0, name
        assert all(c["ok"] for c in result["checks"]), (name, result["checks"])
        assert result["self_sum_s"] <= result["elapsed_s"], name
        assert result["probes"] > 2 * clock.WINDOW, name
        for metric in result["metrics"]:
            assert result["metrics"][metric] > 0, (name, metric)


def test_every_layer_records_spans_on_its_workload(traced_runs):
    assert set(STRESSED_BY) == {e[2] for e in tracing.LAYER_ENTRY_POINTS}
    for span_name, workload in STRESSED_BY.items():
        names = [s["name"] for s in traced_runs[workload]["span_rows"]]
        assert span_name in names, (span_name, workload)


def test_from_import_bindings_are_traced(traced_runs):
    # find_max_bes calls run_pair through ``repro.core.admission.run_pair``;
    # the stopped daemon checkpoints through ``repro.serve.daemon.save_snapshot``.
    for workload, child, parent in (
        ("admission_exact", "experiments.runner.run_pair",
         "core.admission.find_max_bes"),
        ("serve_fleet30", "serve.snapshot.save", "bench.restart"),
    ):
        rows = traced_runs[workload]["span_rows"]
        assert any(
            r["name"] == child and rows[r["parent"]]["name"] == parent
            for r in rows
        ), (workload, child, parent)


def test_correlation_ids_follow_the_unit_of_work(traced_runs):
    rows = traced_runs["admission_exact"]["span_rows"]
    assert {r["corr"] for r in rows if r["name"] == "sim.server.advance"} <= set(
        range(TINY["admission_exact"]["n_queries"])
    )
    rows = traced_runs["campaign_paper"]["span_rows"]
    cells = {r["corr"] for r in rows if r["name"] == "rdt.sample"}
    assert cells and all(c.count("|") == 3 for c in cells)


def test_uninstall_restores_every_binding():
    from repro.core import admission
    from repro.experiments import runner
    from repro.serve import daemon, snapshot

    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert admission.run_pair is runner.run_pair
        assert hasattr(admission.run_pair, "__wrapped__")
        assert daemon.save_snapshot is snapshot.save_snapshot
        assert hasattr(daemon.save_snapshot, "__wrapped__")
    finally:
        tracer.uninstall()
    assert admission.run_pair is runner.run_pair
    assert daemon.save_snapshot is snapshot.save_snapshot
    assert not hasattr(runner.run_pair, "__wrapped__")


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
    assert {
        m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]
    } == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_metrics()
    )
    for m in spec["per_layer"]:
        assert m["better"] == run.better(m["name"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)) and len(spec["per_layer"]) <= 128
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_contract_json_line(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve_small3",
         "--seed", "1", "--seconds", "0", "--repeats", "1",
         "--trace", trace, "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    expected = (
        run.per_layer_metrics()
        if trace == "1"
        else {k: unit for k, (unit, _) in run.E2E_METRICS.items()}
    )
    assert {k: v["unit"] for k, v in last["metrics"].items()} == expected


def test_run_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, printing no result."""
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(
        (ROOT / "BENCHMARK.json").read_text()
    )
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "serve_small3",
         "--seed", "0", "--seconds", "25", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tail_percentile_keeps_ten_samples_beyond(tmp_path):
    for name in run.WORKLOADS:
        workload = workloads.make_workload(name, 0, tmp_path)
        assert workload.expected_samples > run.TAIL_BEYOND, name
    rng = random.Random(0)
    for n in (11, 50, 354, 1008):
        values = [rng.random() for _ in range(n)]
        cut = run.tail(values)
        assert sum(v > cut for v in values) == run.TAIL_BEYOND >= 10
        below = sum(v < cut for v in values)
        assert below / (n - 1) * 100 == pytest.approx(run.tail_percentile(n))
    with pytest.raises(ValueError):
        run.tail([1.0] * run.TAIL_BEYOND)


def test_union_length_and_self_times():
    assert tracing.union_length([], 0.0, 1.0) == 0.0
    # Overlapping, nested and disjoint intervals, one clipped by the window.
    intervals = [(1.0, 3.0), (2.0, 4.0), (2.5, 2.6), (6.0, 7.0), (9.0, 12.0)]
    assert tracing.union_length(intervals, 0.0, 10.0) == pytest.approx(5.0)
    spans = [
        ["root", 0.0, 10.0, -1, None, None],
        ["a", 1.0, 4.0, 0, None, None],
        ["b", 3.0, 5.0, 0, None, None],  # overlaps its sibling
        ["c", 1.5, 2.0, 1, None, None],
    ]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.5, 2.0, 0.5])


def test_compare_verdicts():
    a = {s: 100.0 + s for s in range(10)}
    assert compare.verdict(a, dict(a), False, 0.1)[0] == "unchanged"
    faster = {s: v * 0.7 for s, v in a.items()}
    assert compare.verdict(a, faster, False, 0.1) == ("improved", 1.0)
    slower = {s: v * 1.3 for s, v in a.items()}
    assert compare.verdict(a, slower, False, 0.1)[0] == "regressed"
    noisy = {s: 100.0 * (1 + (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), False, 0.1)[0] == "unresolved"
    # A regression that holds on every run is not hidden by A's spread.
    much_slower = {s: 250.0 + s for s in range(10)}
    assert compare.verdict(noisy, much_slower, False, 0.1)[0] == "regressed"


def _clock(samples, every=1.0, cost=0.1):
    """A clock whose probes start every ``every`` s, last ``cost`` s and
    read ``samples`` (in multiples of the full-speed reference time)."""
    c = clock.Clock()
    c.starts = [i * every for i in range(len(samples))]
    c.ends = [s + cost for s in c.starts]
    c.samples = [x * clock.REFERENCE_S for x in samples]
    return c


def test_clock_scales_by_the_probes_around_an_interval():
    steady = _clock([2.0] * 10)
    assert steady.slowdown(3.2, 3.8) == pytest.approx(2.0)
    assert steady.scaled(3.2, 3.8) == pytest.approx(0.3)
    # Probe time is left out: ten probes of 0.1 s in [0, 10].
    assert steady.raw_wall(0.0, 10.0) == pytest.approx(9.0)
    assert steady.scaled_wall(0.0, 10.0) == pytest.approx(4.5)
    # Full speed for the first half, twice as slow for the second: an
    # interval deep in either half is scaled by that half's probes.
    halves = _clock([1.0] * 10 + [2.0] * 10)
    assert halves.scaled(2.2, 2.8) == pytest.approx(0.6)
    assert halves.scaled(16.2, 16.8) == pytest.approx(0.3)
    assert 9.5 < halves.scaled_wall(0.0, 20.0) < 18.0
    with pytest.raises(RuntimeError):
        _clock([]).slowdown(0.0, 1.0)


def test_clock_probes_at_most_once_per_interval():
    c = clock.Clock(every_s=3600.0)
    for _ in range(5):
        c.probe()
    assert len(c.samples) == 1
    c.burst()
    assert len(c.samples) == 1 + clock.WINDOW
    assert all(end > start for start, end in zip(c.starts, c.ends))
    assert all(0 < s < end - start
               for s, start, end in zip(c.samples, c.starts, c.ends))


def _child(failed, ops_per_s=10.0, setup_s=0.5):
    return {
        "traced": False, "failed": failed, "attempted": 12,
        "wall_s": 1.0, "summary": {}, "numpy": "x", "phases": {},
        "checks": [{"name": "outputs", "ok": True, "detail": ""}],
        "metrics": {"setup_s": setup_s, "peak_rss_mb": 50.0,
                    "ops_per_s": ops_per_s, "op_p50_ms": 100.0 / ops_per_s},
    }


def test_a_run_reports_the_median_child():
    args = type("Args", (), {"workload": "admission_exact", "seed": 0,
                             "trace": 0})()
    children = [_child(0, 10.0, 0.4), _child(0, 30.0, 0.6), _child(0, 20.0)]
    result = run.aggregate(args, children)
    assert result["correct"] and result["failed"] == 0
    assert result["e2e"] == {"setup_s": 0.5, "peak_rss_mb": 50.0,
                             "ops_per_s": 20.0, "op_p50_ms": 5.0}


def test_a_failed_operation_makes_the_run_incorrect():
    args = type("Args", (), {"workload": "admission_exact", "seed": 0,
                             "trace": 0})()
    one_failed = run.aggregate(args, [_child(0), _child(1)])
    assert not one_failed["correct"] and one_failed["failed"] == 1


def test_compare_flags_more_failures(tmp_path, capsys):
    for side, failed in (("a", 0), ("b", 2)):
        (tmp_path / side).mkdir()
        for seed in range(3):
            result = {
                "workload": "admission_exact", "seed": seed, "trace": False,
                "failed": failed if seed == 1 else 0,
                "e2e": {m: 1.0 + seed for m in run.E2E_METRICS},
            }
            (tmp_path / side / f"r{seed}.json").write_text(json.dumps(result))
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 1
    row = [line for line in capsys.readouterr().out.splitlines()
           if " failed " in line]
    assert row and row[0].endswith("regressed")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
