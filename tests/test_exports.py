import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import capflow

MODULES = ("cli", "diagnostics", "flow", "geometry", "nonlocal_ops", "snapshots", "validation")

# gone from the package and from every module
GONE = [
    "RunManifest",
    "_contact_residual",
    "_gradient_sphere2",
    "_lattice_stencil",
    "_least_ratio2",
    "_mass_rows",
    "_wetted_disk_samples",
    "conormal_derivative",
    "first_moment_psi",
    "jacobian_J",
    "kernel_K",
    "kernel_K_dxi",
    "operator_matrix",
    "reflect_field",
    "remainder_P",
    "shrinking_circle_constant",
    "tangential_gradient",
    "unit_normal",
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


# exported names that nothing in the package calls, each with its reason
TEST_SURFACE = {
    "normal_velocity": "the speed that the divergence-form and reflected-set "
    "oracles compare against",
    "surface_samples": "the sampled surface (points, normals, weights) that "
    "the divergence-form oracle integrates over",
}


def _package_references():
    """Every name that code in `src/capflow` reads, outside `__init__.py`:
    names and attributes, but not imports, `__all__` strings, or a
    top-level function or class reading its own name."""
    seen = set()
    for path in pathlib.Path(capflow.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    seen.add(name)
    return seen


def test_every_export_has_a_caller_or_a_reason():
    unused = set(capflow.__all__) - _package_references()
    assert unused == set(TEST_SURFACE)


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


def test_run_loads_no_numpy_polynomial():
    # the homotopy rule is built without numpy.polynomial (or LAPACK)
    src = os.path.dirname(os.path.dirname(os.path.abspath(capflow.__file__)))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = (
        "import sys\n"
        "from capflow import flow\n"
        "from capflow.nonlocal_ops import HomotopyRule\n"
        "flow._get_context(flow.FlowConfig(s=0.5, theta=1.0, dt=1e-3, resolution=33,"
        " topology='hemisphere'))\n"
        "HomotopyRule(8)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
