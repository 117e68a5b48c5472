"""Every module of the package reads each name it imports.

No linter ships with the project, so this stands in for an unused-import
rule. ``__init__.py`` files are skipped: their imports are re-exports.
"""
import ast
from pathlib import Path

import pytest

import balanced_lines

MODULES = sorted(p for p in Path(balanced_lines.__file__).parent.rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names the source imports but never reads; ``from __future__`` is exempt."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - read)


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom json import dumps, loads\n"
        "def f(x: np.ndarray):\n    return dumps(x)\n"
    )
    assert unused_imports(source) == ["loads", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
