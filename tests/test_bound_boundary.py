"""The max-influence bound is computed in ``bounds._influence_bound_sides``.

``analyze`` (``max_influence_bound_check``) and ``thm42`` and
``exhaustive-n4`` (``max_influence_bound_scan``) both call it, and neither
weighs a level itself, so the two cannot round a table's bound
differently. The check reads the package source with ``ast``.
"""

import ast
from pathlib import Path

from biascube import bounds

ENTRY_POINTS = ("max_influence_bound_check", "max_influence_bound_scan")


def _calls_by_function(source: str) -> dict[str, set[str]]:
    """The names each top-level function calls, as plain or attribute calls,
    nested calls included."""
    return {
        top.name: {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                   for node in ast.walk(top) if isinstance(node, ast.Call)}
        for top in ast.parse(source).body if isinstance(top, ast.FunctionDef)
    }


CALLS = _calls_by_function(Path(bounds.__file__).read_text())


def test_levels_are_weighed_only_in_the_shared_sides():
    assert "level_weights" in CALLS["_influence_bound_sides"]
    assert [name for name in ENTRY_POINTS if "level_weights" in CALLS[name]] == []


def test_both_entry_points_call_the_shared_sides():
    assert [name for name in ENTRY_POINTS if "_influence_bound_sides" in CALLS[name]] == list(
        ENTRY_POINTS)


def test_the_scan_sees_nested_and_attribute_calls():
    calls = _calls_by_function(
        "def f():\n    def g():\n        return measure.level_weights(1)\n    return h(g())\n"
        "class C:\n    def m(self):\n        return level_weights(2)\n")
    assert calls == {"f": {"level_weights", "h", "g"}}
