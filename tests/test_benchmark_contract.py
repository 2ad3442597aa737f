"""The benchmark worker still runs against the package and matches its golden values."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["stability-norms", "oneway-lens"])
def test_worker_pass(tmp_path, workload):
    # one pass of a workload against perfbench/golden.json: stability-norms
    # calls norm_sweep/semigroup_defect with the keywords the worker passes,
    # oneway-lens goes through harness.run, the mixed-mode datum and write_field
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", workload, "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
