"""The package root's public surface."""

import ast
import fnmatch
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
}


def _names(node: ast.AST) -> Counter:
    """How often each name occurs, as a name, an attribute or an import."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr if isinstance(sub, ast.Attribute)
        else sub.name
        for sub in ast.walk(node) if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
    )


def _package_trees() -> dict[str, ast.Module]:
    package = pathlib.Path(biascube.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}


def _unused_public_definitions() -> list[str]:
    """``module.name`` of each public top-level def or class in the package
    that no code of the package refers to, outside its own definition, and
    that ``biascube.__all__`` does not export."""
    trees = _package_trees()
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


# Top-level functions with a defaulted parameter that no call in the package
# passes, kept on purpose, each with its reason. Functions the root exports
# or KEPT_UNUSED lists are library API, and are not scanned.
KEPT_DEFAULTS = {
    "cli.main": "the entry point; tests and the benchmark pass argv",
    "bounds.max_influence_bound_scan": "tests fail rows through a negative tol",
    "suites.suite_*": "run_suite fills their trials, n_max and p from the verify flags",
}


def _defaulted(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position, name) of each defaulted parameter of ``fn``; keyword-only
    ones have no position."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    return ([(i, arg.arg) for i, arg in enumerate(positional) if i >= first]
            + [(None, arg.arg) for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
               if default is not None])


def _passed(call: ast.Call, position: int | None, name: str) -> bool:
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return position is not None and (starred or position < len(call.args))


def _unpassed_defaults() -> list[str]:
    """``module.function(parameter)`` of each defaulted parameter of a
    top-level function that no call in the package passes, by keyword or by
    position, for functions that are neither exported nor kept unused. A
    call is matched to a function by its name alone."""
    trees = _package_trees()
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def callee(call: ast.Call) -> str | None:
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    return sorted(
        f"{module}.{fn.name}({name})"
        for module, tree in trees.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and fn.name not in biascube.__all__ and f"{module}.{fn.name}" not in KEPT_UNUSED
        for position, name in _defaulted(fn)
        if not any(callee(call) == fn.name and _passed(call, position, name) for call in calls)
    )


def _kept_default(entry: str) -> str | None:
    function = entry.partition("(")[0]
    return next((pattern for pattern in KEPT_DEFAULTS if fnmatch.fnmatch(function, pattern)), None)


def test_every_defaulted_parameter_is_passed_exported_or_kept():
    unpassed = _unpassed_defaults()
    unexplained = [entry for entry in unpassed if _kept_default(entry) is None]
    assert not unexplained, f"defaulted, never passed and not kept: {', '.join(unexplained)}"
    # a kept function whose defaults all gain a caller, or that goes, leaves the list
    stale = sorted(set(KEPT_DEFAULTS) - {_kept_default(entry) for entry in unpassed})
    assert not stale, f"kept but passed, exported or gone: {', '.join(stale)}"
