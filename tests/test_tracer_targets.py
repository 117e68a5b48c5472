"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` wraps each ``(module, function, kind)`` of its
``TARGETS`` by a bare ``getattr`` on the package's module, and for a
``"steps"`` kernel adds ``len(args[1])``, the word or event list it
replays, to its step count. Renaming or removing a target, or moving the
word out of second place, would only break a traced benchmark run; here it
fails the tests instead. ``TARGETS`` is read from the file's source, which
is not run.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
REPLAYED = {"word", "ev_i"}  # a word, or the sweep's events that events_to_word turns into one


def tracer_targets() -> tuple[tuple[str, str, str], ...]:
    tree = ast.parse(TRACING.read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in n.targets))
    return ast.literal_eval(node.value)


TARGETS = tracer_targets()


@pytest.mark.parametrize("module, func, kind", TARGETS, ids=lambda v: str(v))
def test_target_resolves(module, func, kind):
    fn = getattr(importlib.import_module(f"balanced_lines.{module}"), func)
    assert callable(fn)
    if kind == "steps":
        params = list(inspect.signature(fn).parameters.values())
        assert params[1].name in REPLAYED
        assert params[1].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
