"""Guardrails for the repository's build/lint tooling.

The lint gate must stay part of the default make flow, and must degrade
to a skip (not a failure) on machines without ruff installed. Without
ruff it still checks unused imports with ``tools/unused_imports.py``.
The benchmark tracer's entry points must resolve against the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unused_imports_module():
    return _load("unused_imports", REPO / "tools" / "unused_imports.py")


def _entry_points():
    tracing = _load("bench_tracing", REPO / "bench" / "tracing.py")
    return [(module, attr) for module, attr, *_ in tracing.LAYER_ENTRY_POINTS]


@pytest.mark.parametrize(
    "module_name, attr", _entry_points(), ids=lambda v: str(v)
)
def test_traced_entry_point_resolves(module_name, attr):
    """``bench/run.py --trace 1`` wraps a ``Class.method`` from the class's
    own namespace and a function by name: a method moved into a base class
    or a renamed function would crash the traced run, so fail here."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


class TestMakefile:
    def _text(self):
        return (REPO / "Makefile").read_text()

    def test_default_goal_runs_lint_and_tests(self):
        text = self._text()
        assert ".DEFAULT_GOAL := all" in text
        assert "all: lint test" in text

    def test_lint_gated_on_ruff_presence(self):
        text = self._text()
        assert "command -v ruff" in text
        assert "skipping" in text  # absent ruff is a skip, not an error

    def test_lint_without_ruff_checks_unused_imports(self):
        assert "tools/unused_imports.py" in self._text()

    def test_recipes_import_the_package_from_src(self):
        # Bare `pytest` and `python -m repro...` recipes work from a fresh
        # checkout: src/ is exported once, ahead of any inherited path.
        text = self._text()
        assert (
            "export PYTHONPATH := $(CURDIR)/src$(if $(PYTHONPATH),"
            ":$(PYTHONPATH))" in text
        )
        assert "PYTHONPATH=src" not in text


class TestRuffConfig:
    def test_config_present_and_plausible(self):
        config = (REPO / ".ruff.toml").read_text()
        assert 'target-version = "py310"' in config
        assert '"F"' in config  # pyflakes rules are the core of the gate


class TestUnusedImports:
    def test_flags_an_unused_import(self):
        found = _unused_imports_module().unused_imports(
            "import os\nimport sys\n"
            "from math import pi, tau\nprint(sys, tau)\n"
        )
        assert found == [(1, "os"), (3, "pi")]

    def test_dotted_import_binds_its_root(self):
        check = _unused_imports_module().unused_imports
        assert check("import os.path\nos.getcwd()\n") == []
        assert check("import os.path as p\n") == [(1, "p")]

    def test_all_noqa_future_and_string_annotations_count_as_used(self):
        source = (
            "from __future__ import annotations\n"
            "from typing import TYPE_CHECKING\n"
            "from a import exported\n"
            "from b import kept  # noqa: F401\n"
            "from c import (  # noqa\n    also_kept,\n)\n"
            "from d import other  # noqa: E402\n"
            "if TYPE_CHECKING:\n    from e import Hint\n"
            "__all__ = ['exported']\n"
            "def f() -> 'list[Hint]': ...\n"
        )
        assert _unused_imports_module().unused_imports(source) == [
            (8, "other")
        ]

    def test_init_files_and_ruff_exemptions_are_skipped(self, tmp_path):
        module = _unused_imports_module()
        (tmp_path / ".ruff.toml").write_text(
            '[lint.per-file-ignores]\n"pkg/exempt.py" = ["F4"]\n'
            '"pkg/other.py" = ["F403"]\n'
        )
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        for name in ("__init__.py", "exempt.py", "other.py"):
            (pkg / name).write_text("import os\n")
        assert module.check([pkg], root=tmp_path) == [
            "pkg/other.py:1: os imported but unused"
        ]

    def test_repository_has_no_unused_imports(self):
        paths = [
            REPO / d
            for d in ("src", "tests", "benchmarks", "examples", "tools")
        ]
        assert _unused_imports_module().check(paths) == []
