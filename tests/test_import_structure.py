"""General position has one owner: ``geometry``.

``geometry`` keeps the exact sweep order that decides general position, so it
never reaches back into ``sequence``, and the gcd pass that lists a
degenerate input's defects is named nowhere else in the package.
"""
import ast
from pathlib import Path

import pytest

import balanced_lines

PACKAGE = Path(balanced_lines.__file__).parent
GCD_HELPERS = {"_pair_directions", "_general_position_report"}


def imports_from(tree: ast.AST, module: str) -> list[int]:
    """Lines of every import of the package's ``module``, at any nesting depth."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            relative = node.level and (node.module == module
                                       or node.module is None and module in {a.name for a in node.names})
            if relative or node.module == f"balanced_lines.{module}":
                lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            if any(a.name == f"balanced_lines.{module}" for a in node.names):
                lines.append(node.lineno)
    return lines


def names_used(tree: ast.AST) -> set[str]:
    """Every identifier the source reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.asname or node.name)
            out.add(node.name)
    return out


def test_finds_function_level_imports():
    source = ("from .errors import X\n"
              "def f():\n    from .sequence import g\n    from . import sequence\n"
              "    import balanced_lines.sequence\n    return g\n")
    assert imports_from(ast.parse(source), "sequence") == [3, 4, 5]


def test_geometry_imports_nothing_from_sequence():
    tree = ast.parse((PACKAGE / "geometry.py").read_text())
    assert imports_from(tree, "sequence") == []


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.rglob("*.py") if p.name != "geometry.py"),
                         ids=lambda p: p.name)
def test_only_geometry_names_the_gcd_pass(path):
    assert names_used(ast.parse(path.read_text())) & GCD_HELPERS == set()
