"""Every per-kind fact lives in the kind table of ``booleans``.

The modules that use family kinds reach them only through the public
lookups of ``booleans`` (``FamilySpec``, ``family_parameters``,
``build_family``, ``family_symmetry``, ``family_predicate``,
``family_closed_form``), so adding a kind is one edit there. These checks
read the source with ``ast``: outside docstrings, no string constant in the
scanned modules names a kind, and nothing there reads the table's private
names. The CLI's family flags come from the records, so every record
parameter is a flag of each subcommand that names a family.
"""

import argparse
import ast
import re
from pathlib import Path

import pytest

from biascube import booleans, cli
from biascube.booleans import FAMILY_NAMES, family_parameters, family_spec

SRC = Path(booleans.__file__).resolve().parent
SCANNED = ("cli.py", "mc.py", "threshold.py", "bounds.py")
PRIVATE = {"_record", "_values", "_KINDS"}

# a kind's name anywhere in a string, or a whole string that is an alias
# (the aliases "or" and "and" are also English words)
KIND_WORD = re.compile(r"\b(%s)\b" % "|".join(FAMILY_NAMES))
ALIASES = set(booleans._FAMILY_ALIASES)


def _tree(name: str) -> ast.Module:
    return ast.parse((SRC / name).read_text())


def _docstrings(tree: ast.Module) -> set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                ids.add(id(first.value))
    return ids


@pytest.mark.parametrize("name", SCANNED)
def test_no_kind_name_in_string_constants(name):
    tree = _tree(name)
    docstrings = _docstrings(tree)
    named = [
        (node.lineno, node.value) for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and id(node) not in docstrings
        and (KIND_WORD.search(node.value) or node.value in ALIASES)
    ]
    assert named == []


@pytest.mark.parametrize("name", SCANNED)
def test_no_read_of_the_kind_table_internals(name):
    reads = [
        node.lineno for node in ast.walk(_tree(name))
        if (isinstance(node, ast.Attribute) and node.attr in PRIVATE)
        or (isinstance(node, ast.Name) and node.id in PRIVATE)
        or (isinstance(node, ast.alias) and node.name in PRIVATE)
    ]
    assert reads == []


def test_the_scan_sees_a_kind_name_and_a_private_read():
    tree = ast.parse('"""The dictator."""\nx = spec._values\ny = "or_all:n=3"\nz = "or"\n')
    docstrings = _docstrings(tree)
    strings = [node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and id(node) not in docstrings]
    assert [s for s in strings if KIND_WORD.search(s) or s in ALIASES] == ["or_all:n=3", "or"]
    assert [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)] == ["_values"]


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def test_every_parameter_is_a_flag_of_each_family_subcommand():
    top = _subcommands(cli.build_parser())
    parsers = {name: top[name] for name in ("analyze", "sweep", "threshold")}
    parsers.update({f"mc {name}": p for name, p in _subcommands(top["mc"]).items()})
    assert set(parsers) == {"analyze", "sweep", "threshold", "mc mu", "mc influence",
                            "mc threshold"}
    takers = {}
    for kind in FAMILY_NAMES:
        for name in family_parameters(kind):
            takers.setdefault(name, []).append(kind)
    for command, parser in parsers.items():
        helps = {opt: action.help for action in parser._actions for opt in action.option_strings}
        for name, kinds in takers.items():
            assert f"--{name}" in helps, (command, name)
            # each flag's help names the kinds that take it
            assert helps[f"--{name}"].endswith("parameter of " + ", ".join(kinds)), (command, name)
        assert all(kind in helps["--family"] for kind in FAMILY_NAMES), command


def test_only_the_dictator_coordinate_has_a_default():
    defaults = {(kind, name): value for kind in FAMILY_NAMES
                for name, value in family_parameters(kind).items() if value is not None}
    assert defaults == {("dictator", "i"): 1}
    # the default serves the CLI; the Python constructor still needs every parameter
    with pytest.raises(ValueError, match="takes parameters"):
        family_spec("dictator", n=4)
