"""Static guard: every name a package module imports is used in that module.

No linter ships with the toolchain, so this is the unused-import check.
``__init__.py`` is skipped because its imports are the package's re-exports.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "paal"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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


def test_guard_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import numpy as np\n"
              "from numpy.lib.stride_tricks import sliding_window_view\n"
              "x = np.zeros(3)\n")
    assert unused_imports(source) == ["line 3: sliding_window_view"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
