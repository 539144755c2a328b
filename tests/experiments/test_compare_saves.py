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
