"""The package's public surface: ``__all__`` lists exactly what ``__init__`` binds."""

import ast
from pathlib import Path

import synapper


def _public_names_bound_in_init() -> set[str]:
    tree = ast.parse(Path(synapper.__file__).read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return {name for name in names if not name.startswith("_")}


def test_all_is_sorted_without_duplicates():
    assert synapper.__all__ == sorted(set(synapper.__all__))


def test_all_equals_the_public_names_bound_in_init():
    assert set(synapper.__all__) == _public_names_bound_in_init()
    assert all(hasattr(synapper, name) for name in synapper.__all__)
