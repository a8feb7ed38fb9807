import importlib
import os
import subprocess
import sys

import pytest

import capflow

MODULES = ("cli", "diagnostics", "flow", "geometry", "nonlocal_ops", "snapshots", "validation")

# gone from the package and from every module
GONE = [
    "RunManifest",
    "_contact_residual",
    "_least_ratio2",
    "_mass_rows",
    "_wetted_disk_samples",
    "conormal_derivative",
    "first_moment_psi",
    "kernel_K_dxi",
    "remainder_P",
    "shrinking_circle_constant",
    "tangential_gradient",
]
# still public in their own modules, no longer re-exported by the package
UNEXPORTED = [
    "CheckResult",
    "CorruptRecordError",
    "HolderEstimate",
    "SchemaMismatchError",
    "SnapshotError",
    "SphereGrid",
    "Trajectory",
    "load_snapshot",
    "quad_integrate",
    "read_snapshot",
    "run_suite",
    "write_csv",
    "write_snapshot",
]


def test_package_exports_resolve():
    for name in capflow.__all__:
        assert getattr(capflow, name) is not None, name


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"capflow.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"capflow.{module}.{name}"


@pytest.mark.parametrize("name", GONE + UNEXPORTED)
def test_removed_names_are_gone(name):
    assert name not in capflow.__all__
    assert not hasattr(capflow, name)
    if name in UNEXPORTED:
        return
    for module in MODULES:
        mod = importlib.import_module(f"capflow.{module}")
        assert name not in getattr(mod, "__all__", ())
        assert not hasattr(mod, name)


def test_runtime_imports_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(capflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys, capflow, capflow.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
