"""Static guards on the package source: every name a module imports is used
in that module, and every module-level private name is read somewhere in
the package.

No linter ships with the toolchain, so these are the unused-import and
dead-helper checks. ``__init__.py`` is skipped by the import check because
its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "paal"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import (``__future__`` aside) that no code reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_x`` definitions that no module of ``sources`` reads,
    by name or as a module attribute."""
    defined: list[tuple[str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from numpy.lib.stride_tricks import sliding_window_view\n"
              "x = np.zeros(3)\n")
    assert unused_imports(source) == ["line 3: sliding_window_view"]


def test_guard_flags_an_unread_private_name():
    sources = {
        "strategies.py": ("_LIMIT = 4\n"
                          "def _positions(ids):\n    return ids[:_LIMIT]\n"
                          "def _lookup(ids):\n    return _positions(ids)\n"
                          "def select(ids):\n    return ids\n"),
        "experiment.py": ("from . import strategies\n"
                          "_KEYS = strategies._LIMIT\n"),
    }
    assert unread_private_names(sources) == ["strategies.py: _lookup",
                                             "experiment.py: _KEYS"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_unread_private_names():
    sources = {p.name: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unread_private_names(sources) == []
