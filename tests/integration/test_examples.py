"""Smoke tests: the fast examples must run end to end.

Examples are part of the public surface; a refactor that breaks them
should fail CI, not a user. Slow examples (capacity planning, extensions
tour) are exercised by their underlying-API tests instead.
"""

import importlib.util
import sys
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str, capsys) -> str:
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = spec.loader and spec.name  # keep import machinery quiet
    try:
        spec.loader.exec_module(module)
        module.main()
    finally:
        sys.modules.pop(name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "DICER" in out and "Co-location policies" in out

    def test_latency_sensitive_service(self, capsys):
        out = run_example("latency_sensitive_service", capsys)
        assert "SLO" in out and "VIOLATED" in out or "OK" in out

    def test_phase_adaptive(self, capsys):
        out = run_example("phase_adaptive", capsys)
        assert "phase changes detected" in out
        assert "HP ways/period" in out

    def test_resctrl_hardware(self, capsys):
        out = run_example("resctrl_hardware", capsys)
        assert "LLC ways detected" in out
        assert "fffff" in out or "ffff" in out
