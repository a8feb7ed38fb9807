import importlib

import pytest

import capflow

MODULES = ("cli", "diagnostics", "flow", "geometry", "nonlocal_ops", "snapshots", "validation")


def test_package_exports_resolve():
    for name in capflow.__all__:
        assert getattr(capflow, name) is not None, name


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"capflow.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"capflow.{module}.{name}"


@pytest.mark.parametrize("name", ["first_moment_psi", "kernel_K_dxi", "tangential_gradient"])
def test_removed_names_are_gone(name):
    assert name not in capflow.__all__
    assert not hasattr(capflow, name)
    for module in MODULES:
        mod = importlib.import_module(f"capflow.{module}")
        assert name not in getattr(mod, "__all__", ())
        assert not hasattr(mod, name)
