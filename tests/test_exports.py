import importlib

import pytest

import scvquad

MODULES = ["scvquad", *(f"scvquad.{name}" for name in
                        ("cli", "estimators", "grid", "interp", "stats", "testbed"))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names undefined {missing}"


def test_star_import():
    namespace = {}
    exec("from scvquad import *", namespace)
    assert set(scvquad.__all__) <= namespace.keys()
