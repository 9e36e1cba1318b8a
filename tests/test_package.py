"""The package root's public surface."""

import ast
import inspect

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

