"""The public surface: every exported name resolves where it is exported.

A dangling __all__ entry breaks `from pyramid_eq.<layer> import *`, and
the benchmark tracer reads each layer's __all__ to find what to wrap.
"""
import ast
import importlib
import pkgutil

import pytest

import pyramid_eq

LAYERS = sorted(m.name for m in pkgutil.iter_modules(pyramid_eq.__path__))


def _reexports():
    """(layer, name) for each `from .layer import name` in the package."""
    with open(pyramid_eq.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("layer", LAYERS)
def test_every_all_entry_resolves(layer):
    mod = importlib.import_module(f"pyramid_eq.{layer}")
    names = getattr(mod, "__all__", [])
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(mod, n)] == []
    namespace = {}
    exec(f"from pyramid_eq.{layer} import *", namespace)
    assert set(names) <= set(namespace)


def test_every_package_reexport_resolves_and_is_public_in_its_layer():
    reexports = _reexports()
    assert {layer for layer, _ in reexports} >= {"model", "wages", "lp", "analysis", "pyramid"}
    for layer, name in reexports:
        mod = importlib.import_module(f"pyramid_eq.{layer}")
        assert getattr(pyramid_eq, name) is getattr(mod, name), name
        assert name in mod.__all__, f"pyramid_eq re-exports {layer}.{name}, which is not in its __all__"
