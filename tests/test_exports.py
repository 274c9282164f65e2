import ast
import importlib
import inspect
import pkgutil

import pytest

import envlab

MODULES = sorted(info.name for info in pkgutil.iter_modules(envlab.__path__))


def package_reexports():
    """(module, name) for each name that `envlab/__init__.py` imports from
    one of its modules."""
    tree = ast.parse(inspect.getsource(envlab))
    return [(node.module, alias.name)
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module(f"envlab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert not missing


def test_reexports_are_listed_in_all():
    reexports = package_reexports()
    assert reexports
    unlisted = [(module, name) for module, name in reexports
                if name not in getattr(importlib.import_module(f"envlab.{module}"),
                                       "__all__", [name])]
    assert not unlisted
