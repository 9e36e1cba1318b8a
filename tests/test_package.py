"""The package root's public surface."""

import ast
import inspect
import pathlib
from collections import Counter

import biascube


def _root_imports() -> list[str]:
    """Names the package root binds with ``from .module import ...``."""
    tree = ast.parse(inspect.getsource(biascube))
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def test_all_is_exactly_the_root_imports_and_the_version():
    imported = _root_imports()
    assert len(imported) == len(set(imported))
    assert len(biascube.__all__) == len(set(biascube.__all__))
    assert set(biascube.__all__) == set(imported) | {"__version__"}


# Public top-level definitions that nothing in the package uses and the root
# does not export, kept on purpose, each with its reason.
KEPT_UNUSED = {
    "booleans.random_monotone_function":
        "README documents it; tests/test_perfbench_contract.py requires it for booleans.build_s",
    "bounds.log_sobolev_literal_record":
        "tests/test_suites.py pins the lsi suite's stacked records to it",
    "bounds.prior_constants_table": "pins the paper's comparison with prior constants",
    "threshold.or_all_sharpness_ratio": "pins the paper's OR sharpness law (criterion 07)",
    "measure.coordinate_average": "pins the fiber-mean operator the centering subtracts",
    "measure.coordinate_center_case_form": "pins the case form of the centering operator",
    "threshold.width_from_derivative_check":
        "pins the paper's transfer of derivative bounds to width bounds",
    "measure.energy_derivative_sides": "pins Russo's formula as energy over p(1-p)",
    "mc.spot_check_monotone":
        "the only check of a caller's own oracle's monotone declaration; README documents it",
}


def _names(node: ast.AST) -> Counter:
    """How often each name occurs, as a name, an attribute or an import."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute)
        else sub.name
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
    )


def _unused_public_definitions() -> list[str]:
    """``module.name`` of each public top-level def or class in the package
    that no code of the package refers to, outside its own definition, and
    that ``biascube.__all__`` does not export."""
    package = pathlib.Path(biascube.__file__).parent
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    return sorted(
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in biascube.__all__
        and everywhere[node.name] == _names(node)[node.name]
    )


def test_every_public_definition_is_used_exported_or_kept():
    unused = set(_unused_public_definitions())
    unexplained = sorted(unused - set(KEPT_UNUSED))
    assert not unexplained, f"unused, unexported and not kept: {', '.join(unexplained)}"
    # a kept name that gains a caller, or goes, leaves the list
    stale = sorted(set(KEPT_UNUSED) - unused)
    assert not stale, f"kept but used, exported or gone: {', '.join(stale)}"
