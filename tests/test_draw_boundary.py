"""Every coordinate is sampled in ``mc._bernoulli``.

Raw Philox words reach a draw only through ``mc._raw_words``, so a single
call site of it, inside ``_bernoulli``, keeps one draw loop for both of its
rules: a new rule is a way to turn a piece's words into bits, not a second
loop. The check reads the package source with ``ast``.
"""

import ast
from pathlib import Path

from biascube import mc

SRC = Path(mc.__file__).resolve().parent


def _call_sites(tree: ast.Module, name: str) -> list[str | None]:
    """The top-level definition around each call of ``name`` (None when the
    call is at module level), as plain or attribute calls."""
    sites = []
    for top in tree.body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and name in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                sites.append(owner)
    return sites


def test_raw_words_are_drawn_only_in_bernoulli():
    sites = {path.name: _call_sites(ast.parse(path.read_text()), "_raw_words")
             for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in sites.items() if found} == {"mc.py": ["_bernoulli"]}


def test_the_scan_sees_nested_attribute_and_module_level_calls():
    tree = ast.parse(
        "def f():\n    def g():\n        return _raw_words(1)\n    return mc._raw_words(2)\n"
        "class C:\n    x = _raw_words(3)\n"
        "_raw_words(4)\nraw_words(5)\n")
    assert _call_sites(tree, "_raw_words") == ["f", "f", "C", None]
