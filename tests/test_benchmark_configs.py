"""The benchmark's pinned run configs, run in-process, and its span names.

The configs, the tolerance and the expected spans are read from
`perfbench/run.py`, their one owner, so a dropped config key, a drift from
the stored final rho or a renamed or folded traced function fails here
before the benchmark runs.
"""

import importlib
import inspect
import json
import os
import runpy

import numpy as np
import pytest

from capflow.flow import FlowConfig, run_flow
from capflow.snapshots import run_manifest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
BENCH = runpy.run_path(os.path.join(PERFBENCH, "run.py"))


@pytest.mark.parametrize(
    "workload, pinned",
    [
        ("capillary-curve", BENCH["CAPILLARY_CURVE"]),
        ("capillary-surface", BENCH["CAPILLARY_SURFACE"]),
    ],
)
def test_pinned_run_configs_reproduce_their_reference(workload, pinned):
    cfg = FlowConfig(**pinned)
    assert run_manifest(cfg)["config"] == pinned
    traj = run_flow(cfg)
    assert traj.status == "completed"
    with open(os.path.join(PERFBENCH, "reference", f"{workload}.json")) as fh:
        reference = np.array(json.load(fh)["final_rho"])
    # the last saved frame is the last frame of the run's .snap
    final = traj.saved[-1][1]
    assert final.shape == reference.shape
    assert np.max(np.abs(final - reference)) <= BENCH["RHO_TOL"]


@pytest.mark.parametrize(
    "span",
    sorted(set(BENCH["FLOW_SPANS"] + BENCH["ORACLE_SPANS"] + BENCH["COUNTED_SPANS"])),
)
def test_expected_spans_name_public_functions(span):
    """A span is named `<module>.<function>` after the function's own
    `__module__` and `__name__`, and only public functions are traced."""
    module, name = span.split(".")
    fn = getattr(importlib.import_module(f"capflow.{module}"), name, None)
    assert inspect.isfunction(fn) and not name.startswith("_"), span
    assert (fn.__module__, fn.__name__) == (f"capflow.{module}", name)
