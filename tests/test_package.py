"""The public namespace: every exported name resolves, and importing it
loads neither scipy nor the process pool."""

import os
import subprocess
import sys
from pathlib import Path

import pnetsim


def test_every_exported_name_resolves():
    missing = [name for name in pnetsim.__all__ if not hasattr(pnetsim, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pnetsim import *", namespace)
    assert set(pnetsim.__all__) <= set(namespace)


COLD_START = """
import sys

import pnetsim, pnetsim.cli
from pnetsim import (BehavioralParams, GridSpec, IntegrationConfig,
                     grid_search, simulate)
from pnetsim.calibration import synthesize_dataset
from pnetsim.fixtures import fixture_economy, scenario_for


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


print(scipy_modules())
d3 = fixture_economy("d3")
scenario = scenario_for(d3)
params = BehavioralParams()
simulate(d3, scenario, params, IntegrationConfig(), 30.0)
dataset = synthesize_dataset(d3, scenario, params)
grid_search(d3, scenario, params, dataset,
            GridSpec((("tau", (7.0, 14.0)),)), workers=1)
print(scipy_modules())
simulate(d3, scenario, params,
         IntegrationConfig(method="continuous_adaptive"), 30.0)
print(scipy_modules())
"""


def test_no_run_path_loads_scipy():
    src = str(Path(pnetsim.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", COLD_START],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["[]", "[]", "[]", ""]


def test_process_pool_is_imported_on_first_use():
    import pnetsim.calibration

    assert not hasattr(pnetsim.calibration, "ProcessPoolExecutor")
