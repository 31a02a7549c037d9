"""The public API: every exported name resolves, and none is exported twice."""

import importlib
import pkgutil

import pytest

import scoregraph

MODULES = [scoregraph] + [importlib.import_module(f"scoregraph.{info.name}")
                          for info in pkgutil.iter_modules(scoregraph.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_exported_names_resolve_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted(n for n in names if names.count(n) > 1)
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_exports_exactly_its_modules_names():
    # each module's __all__ is its API, and the package exports their union
    parts = ("errors", "graph", "models", "classifier", "estimators", "distributed",
             "experiments")
    union = {name for part in parts
             for name in importlib.import_module(f"scoregraph.{part}").__all__}
    assert sorted(scoregraph.__all__) == sorted(union | {"__version__"})
    assert len(scoregraph.__all__) == len(set(scoregraph.__all__))
    namespace = {}
    exec("from scoregraph import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(scoregraph.__all__)
