"""The checkers share no code with the fast path they check, either way.

``check_border`` is the independent check of a border. The generator makes
valid borders by construction, so in the package only ``verify_certificate``
may name it; a generator step that called it would lean on the checker
instead of the proof. The checkers replay the period with a walk of their
own, ``_ReferenceWalk``: they name no kernel and no step table, and nothing
but them names the walk. On the fast path's side, one session method,
``_Certifier.tracks``, makes every replay of a subset in ``certificate.py``,
one function, ``balance.balanced_steps``, picks out the steps at weight
delta, and one, ``_Certifier.swap``, reads a step from a member.
"""
import ast
from pathlib import Path

import pytest

import balanced_lines

MODULES = sorted(Path(balanced_lines.__file__).parent.rglob("*.py"))


def functions_naming(source: str, name: str) -> list[str]:
    """Dotted names of the functions (``<module>`` outside any) whose code names ``name``."""
    found = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif (isinstance(node, ast.Name) and node.id == name
              or isinstance(node, ast.Attribute) and node.attr == name):
            found.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sorted(found)


def test_finds_every_function_naming_the_checker():
    source = (
        "from m import check_border\n"
        "def verify_certificate(seq, cert):\n    return check_border(seq, cert.border)\n"
        "def documented():\n    '''Calls no check_border.'''\n"
        "class Session:\n    def method(self):\n        return m.check_border\n"
        "def outer():\n    def inner():\n        return [check_border]\n    return inner\n"
        "alias = check_border\n"
    )
    assert functions_naming(source, "check_border") == [
        "<module>", "Session.method", "outer.inner", "verify_certificate"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_verifier_calls_check_border(path):
    expected = ["verify_certificate"] if path.name == "certificate.py" else []
    assert functions_naming(path.read_text(), "check_border") == expected


CERTIFICATE = next(p for p in MODULES if p.name == "certificate.py")
KERNELS = sorted(node.name for node in ast.parse(
    next(p for p in MODULES if p.name == "_kernels.py").read_text()).body
    if isinstance(node, ast.FunctionDef))
FAST_PATH = sorted({"_kernels", "step_table", "full_word", "balanced_steps", *KERNELS})
CHECKERS = ("check_border", "verify_certificate", "_replayed_swaps", "_ReferenceWalk")


def is_checker(scope: str) -> bool:
    return any(scope == c or scope.startswith(f"{c}.") for c in CHECKERS)


@pytest.mark.parametrize("name", FAST_PATH)
def test_no_checker_names_the_fast_path(name):
    # The checkers replay the period themselves: no kernel, no step table.
    assert not [s for s in functions_naming(CERTIFICATE.read_text(), name) if is_checker(s)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_checkers_name_their_walk(path):
    expected = ["_replayed_swaps", "check_border"] if path == CERTIFICATE else []
    assert functions_naming(path.read_text(), "_ReferenceWalk") == expected


def test_only_the_session_replays_a_subset():
    # No second cache of tracks and no path around the session's.
    source = CERTIFICATE.read_text()
    assert functions_naming(source, "track_all") == ["_Certifier.tracks"]
    assert functions_naming(source, "_families") == functions_naming(source, "_subset") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_reader_per_step_fact(path):
    # One filter for the steps at weight delta, one view of a step from a member.
    source = path.read_text()
    expected = ["balanced_steps"] if path.name == "balance.py" else []
    if path.name in ("balance.py", "certificate.py"):
        assert functions_naming(source, "compress") == expected
    assert functions_naming(source, "_swap") == functions_naming(source, "swap_parts") == []


def test_case1_reads_no_member_view():
    # Case 1's crossings are balanced steps already: it builds each event off its step.
    source = CERTIFICATE.read_text()
    for name in ("_witness", "swap"):
        scopes = functions_naming(source, name)
        assert not [s for s in scopes if s.split(".")[0] == "case1_certificate"], name
