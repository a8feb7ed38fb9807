"""The benchmark's pinned run configs, run in-process.

The configs and the tolerance are read from `perfbench/run.py`, their one
owner, so a dropped config key or a drift from the stored final rho fails
here before the benchmark runs.
"""

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
