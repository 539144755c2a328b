"""Tests for the benchmark regression gate (benchmarks/compare_saves.py)."""

import importlib.util
import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "compare_saves", REPO_ROOT / "benchmarks" / "compare_saves.py"
)
compare_saves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_saves)


def _write_save(storage: Path, counter: int, medians: dict[str, float]):
    machine = storage / "Linux-CPython-3.11-64bit"
    machine.mkdir(parents=True, exist_ok=True)
    payload = {
        "benchmarks": [
            {"name": name, "stats": {"median": median}}
            for name, median in medians.items()
        ]
    }
    (machine / f"{counter:04d}_save.json").write_text(json.dumps(payload))


class TestCompare:
    def test_flags_regressions_over_threshold(self):
        old = {"bench_a": 1.0, "bench_b": 2.0}
        new = {"bench_a": 1.30, "bench_b": 2.1}
        _, offenders = compare_saves.compare(old, new, threshold=0.25)
        assert offenders == ["bench_a"]

    def test_improvements_and_new_benches_pass(self):
        old = {"bench_a": 1.0}
        new = {"bench_a": 0.5, "bench_new": 9.9}
        lines, offenders = compare_saves.compare(old, new, threshold=0.25)
        assert offenders == []
        assert any("new benchmark" in line for line in lines)


class TestMain:
    def test_passes_trivially_without_two_saves(self, tmp_path, capsys):
        assert compare_saves.main(["--storage", str(tmp_path)]) == 0
        assert "passing trivially" in capsys.readouterr().out

    def test_fails_on_regression(self, tmp_path):
        _write_save(tmp_path, 1, {"bench_a": 1.0})
        _write_save(tmp_path, 2, {"bench_a": 2.0})
        assert compare_saves.main(["--storage", str(tmp_path)]) == 1

    def test_passes_within_threshold(self, tmp_path):
        _write_save(tmp_path, 1, {"bench_a": 1.0})
        _write_save(tmp_path, 2, {"bench_a": 1.1})
        assert compare_saves.main(["--storage", str(tmp_path)]) == 0


def _headline_payload(wall=10.0, scalar=100, reduction=3.0):
    return {
        "schema": 1,
        "wall_clock_s": wall,
        "solver": {
            "total_points": 300,
            "scalar_solves": scalar,
            "batch_solves": 20,
            "mean_batch_size": 10.0,
            "points_per_python_call": 2.5,
            "scalar_call_reduction": reduction,
            "scalar_iterations": 900,
            "batch_iterations": 1800,
        },
        "steady_cache": {"hit_rate": 0.4},
    }


class TestBenchJson:
    def test_report_renders_and_tracks_history(self, tmp_path):
        artefact = tmp_path / "BENCH_headline.json"
        artefact.write_text(json.dumps(_headline_payload()))
        report = compare_saves.report_bench_json(artefact)
        text = "\n".join(report)
        assert "wall_clock: 10.0s" in text
        assert "solver.scalar_call_reduction: 3.0" in text
        assert "steady_cache.hit_rate: 0.4" in text
        history = artefact.with_name("BENCH_history.jsonl")
        assert history.exists()
        # Every appended row records its solver precision (absent in the
        # artefact = pre-fast-math era = "exact").
        assert json.loads(history.read_text()) == {
            **_headline_payload(),
            "precision": "exact",
        }

    def test_second_run_diffs_against_previous(self, tmp_path):
        artefact = tmp_path / "BENCH_headline.json"
        artefact.write_text(json.dumps(_headline_payload(wall=10.0)))
        compare_saves.report_bench_json(artefact)
        artefact.write_text(
            json.dumps(_headline_payload(wall=8.0, scalar=50))
        )
        report = compare_saves.report_bench_json(artefact)
        text = "\n".join(report)
        assert "prev 10.0s, -20.0%" in text
        assert "prev 100, -50.0%" in text
        history = artefact.with_name("BENCH_history.jsonl")
        assert len(history.read_text().strip().splitlines()) == 2

    def test_main_reports_but_never_gates_on_json(self, tmp_path, capsys):
        artefact = tmp_path / "BENCH_headline.json"
        artefact.write_text(json.dumps(_headline_payload()))
        # A hard benchmark regression still fails, JSON or not ...
        _write_save(tmp_path, 1, {"bench_a": 1.0})
        _write_save(tmp_path, 2, {"bench_a": 2.0})
        assert compare_saves.main(
            ["--storage", str(tmp_path), "--bench-json", str(artefact)]
        ) == 1
        assert "perf artefact" in capsys.readouterr().out

    def test_main_skips_missing_artefact(self, tmp_path, capsys):
        assert compare_saves.main(
            ["--storage", str(tmp_path),
             "--bench-json", str(tmp_path / "absent.json")]
        ) == 0
        assert "missing — skipping" in capsys.readouterr().out


class TestBenchJsonSchemaDrift:
    """Old histories / new payloads with different field sets must diff."""

    def test_old_history_without_new_fields(self, tmp_path):
        artefact = tmp_path / "BENCH_headline.json"
        # Previous run: an old-schema row (no precision, no fast fields).
        history = artefact.with_name("BENCH_history.jsonl")
        old = {"schema": 1, "wall_clock_s": 12.0, "solver": {"scalar_solves": 5}}
        history.write_text(json.dumps(old) + "\n")
        payload = _headline_payload()
        payload["precision"] = "fast"
        payload["fast_speedup"] = 5.5
        payload["solver"]["fast_solves"] = 3
        payload["solver"]["fast_points"] = 900
        artefact.write_text(json.dumps(payload))
        report = compare_saves.report_bench_json(artefact)
        text = "\n".join(report)
        assert "precision: fast" in text
        assert "previous run used precision=exact" in text
        assert "fast_speedup: 5.5x" in text
        assert "solver.fast_points: 900" in text
        # Old row had wall_clock; the delta still renders.
        assert "prev 12.0s" in text

    def test_new_history_fields_tolerated_by_old_style_payload(self, tmp_path):
        artefact = tmp_path / "BENCH_headline.json"
        history = artefact.with_name("BENCH_history.jsonl")
        newer = _headline_payload()
        newer["precision"] = "fast"
        newer["fast_speedup"] = 6.0
        newer["solver"]["fast_solves"] = 9
        history.write_text(json.dumps(newer) + "\n")
        artefact.write_text(json.dumps(_headline_payload()))
        report = compare_saves.report_bench_json(artefact)
        text = "\n".join(report)
        assert "precision: exact" in text
        # The previous fast_speedup still shows even though this payload
        # has none.
        assert "fast_speedup" in text

    def test_absent_fields_on_both_sides_stay_silent(self, tmp_path):
        artefact = tmp_path / "BENCH_headline.json"
        artefact.write_text(json.dumps(_headline_payload()))
        report = compare_saves.report_bench_json(artefact)
        text = "\n".join(report)
        assert "fast_solves" not in text
        assert "fast_speedup" not in text

    def test_torn_history_line_diffs_against_nothing(self, tmp_path):
        artefact = tmp_path / "BENCH_headline.json"
        history = artefact.with_name("BENCH_history.jsonl")
        history.write_text('{"schema": 1, "wall_cl')  # torn write
        artefact.write_text(json.dumps(_headline_payload()))
        report = compare_saves.report_bench_json(artefact)
        assert any("wall_clock: 10.0s" in line for line in report)
        # The torn line is left in place; the new row still appends.
        assert len(history.read_text().splitlines()) == 2

    def test_rows_from_the_compiled_kernel_era_still_render(self, tmp_path):
        """Artefacts written while a numba kernel existed carry
        ``kernel``, ``compiled_*`` counters, ``compiled_speedup`` and a
        ``kernels`` block; they must still render, as history and as the
        current payload."""

        def compiled_era(wall):
            payload = _headline_payload(wall=wall)
            payload["precision"] = "fast"
            payload["kernel"] = "auto"
            payload["pool"] = "serial"
            payload["solver"].update(
                compiled_solves=0, compiled_points=0, compiled_iterations=0
            )
            payload["solver"]["by_kernel"] = {
                name: {"solves": 0, "points": 0, "iterations": 0}
                for name in ("exact", "fast", "compiled")
            }
            payload["compiled_speedup"] = None
            payload["kernels"] = {"numba": False, "compiled_wall_s": None}
            return payload

        artefact = tmp_path / "BENCH_headline.json"
        history = artefact.with_name("BENCH_history.jsonl")
        history.write_text(json.dumps(compiled_era(12.0)) + "\n")
        artefact.write_text(json.dumps(compiled_era(10.0)))
        # Line 0 names the artefact path; the rest is the rendering.
        text = "\n".join(compare_saves.report_bench_json(artefact)[1:])
        assert "precision: fast" in text
        assert "pool: serial" in text
        assert "prev 12.0s" in text
        assert "compiled" not in text
        # The row is carried into the history unchanged.
        rows = history.read_text().splitlines()
        assert json.loads(rows[-1]) == compiled_era(10.0)
