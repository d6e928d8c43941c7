import ast
import inspect

import couplerkit


def imported_public_names():
    """Public names bound by the package's ``from .module import ...`` lines."""
    tree = ast.parse(inspect.getsource(couplerkit))
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }


def test_all_names_resolve():
    missing = [name for name in couplerkit.__all__ if not hasattr(couplerkit, name)]
    assert missing == []


def test_all_has_no_duplicates():
    assert len(couplerkit.__all__) == len(set(couplerkit.__all__))


def test_all_matches_imports():
    assert set(couplerkit.__all__) == imported_public_names()
