#!/usr/bin/env python
"""Report unused imports with the standard library only.

Usage::

    python tools/unused_imports.py PATH [PATH ...]

The fallback of ``make lint`` where ruff is not installed: pyflakes'
F401 (imported but unused) from the ``ast`` module, so import hygiene is
checked on every machine. A name counts as used when it is read anywhere
in its file, listed in the module's ``__all__`` or named in a string
annotation. ``__init__.py`` files (re-export surfaces), ``__future__``
imports and lines marked ``# noqa`` (bare, or with F401 among its codes)
are skipped, as are the files ``.ruff.toml`` exempts from F401 under
``[lint.per-file-ignores]``. Prints one ``path:line: name`` per unused
import and exits 1 when there is any.
"""

from __future__ import annotations

import ast
import fnmatch
import re
import sys
import tomllib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RULE = "F401"
_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def exempt_globs(config: Path = ROOT / ".ruff.toml") -> list[str]:
    """The per-file-ignores globs whose selectors cover F401."""
    if not config.exists():
        return []
    ignores = (
        tomllib.loads(config.read_text())
        .get("lint", {})
        .get("per-file-ignores", {})
    )
    return [
        glob for glob, codes in ignores.items()
        if any(RULE.startswith(code) for code in codes)
    ]


def _noqa(line: str) -> bool:
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or RULE in codes.replace(" ", "").split(",")


def _annotation_names(node: ast.AST | None, used: set[str]) -> None:
    """Names read inside a (possibly quoted) annotation."""
    if node is None:
        return
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                _annotation_names(ast.parse(sub.value, mode="eval"), used)
            except SyntaxError:
                pass
        elif isinstance(sub, ast.Name):
            used.add(sub.id)


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every import ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _annotation_names(node.returns, used)
            for arg in ast.walk(node.args):
                if isinstance(arg, ast.arg):
                    _annotation_names(arg.annotation, used)
        elif isinstance(node, ast.AnnAssign):
            _annotation_names(node.annotation, used)
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if node.value is None or not any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in targets
        ):
            continue
        for sub in ast.walk(node.value):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.add(sub.value)
    # An import statement may span lines; its noqa sits on any of them.
    spans = {
        node.lineno: lines[node.lineno - 1 : node.end_lineno]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    }
    return [
        (line, name)
        for line, name in imported
        if name not in used and not any(_noqa(text) for text in spans[line])
    ]


def check(paths: list[Path], root: Path = ROOT) -> list[str]:
    """One ``path:line: name`` entry per unused import under ``paths``."""
    globs = exempt_globs(root / ".ruff.toml")
    files: list[Path] = []
    for path in paths:
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    problems = []
    for file in files:
        try:
            relative = file.resolve().relative_to(root).as_posix()
        except ValueError:
            relative = file.as_posix()
        if file.name == "__init__.py" or any(
            fnmatch.fnmatch(relative, glob) for glob in globs
        ):
            continue
        for line, name in unused_imports(file.read_text()):
            problems.append(f"{relative}:{line}: {name} imported but unused")
    return problems


def main(argv: list[str]) -> int:
    problems = check([Path(arg) for arg in argv])
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
