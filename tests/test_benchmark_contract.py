"""The benchmark worker still runs against the package and matches its golden values."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from thinslab import harness

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


@pytest.mark.parametrize("workload", ["study-varspeed", "study-hoelder"])
def test_study_config_echo_matches_golden(workload):
    # a study pass checks its convergence.json config echo against the golden
    # config, which records every ExperimentConfig field: a removed or renamed
    # key fails every study pass, so check the echo without running the study
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(ROOT, "perfbench", "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    with open(worker.GOLDEN) as fh:
        golden = json.load(fh)[workload]
    cfg = worker.WORKLOADS[workload].setup(0)
    echo = json.loads(json.dumps(harness.config_echo(cfg)))
    echo.pop("output_dir")
    assert worker.check_values({"config": echo}, {"config": golden["config"]}, 0) == []
