"""The benchmark worker still runs against the package and matches its golden values."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from thinslab import harness, propagator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload",
                         ["study-varspeed", "study-hoelder", "stability-norms", "oneway-lens"])
def test_worker_pass(tmp_path, workload):
    # one pass of a workload against perfbench/golden.json: the studies go
    # through harness.run of their default config, stability-norms calls
    # norm_sweep/semigroup_defect with the keywords the worker passes,
    # oneway-lens goes through harness.run, the mixed-mode datum and write_field
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", workload, "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []


def _worker():
    spec = importlib.util.spec_from_file_location(
        "perfbench_worker", os.path.join(ROOT, "perfbench", "worker.py"))
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


@pytest.mark.parametrize("workload", ["study-varspeed", "study-hoelder"])
def test_study_config_echo_matches_golden(workload):
    # a study pass checks its convergence.json config echo against the golden
    # config, which records every ExperimentConfig field: a removed or renamed
    # key fails every study pass, so check the echo without running the study
    worker = _worker()
    with open(worker.GOLDEN) as fh:
        golden = json.load(fh)[workload]
    cfg = worker.WORKLOADS[workload].setup(0)
    echo = json.loads(json.dumps(harness.config_echo(cfg)))
    echo.pop("output_dir")
    assert worker.check_values({"config": echo}, {"config": golden["config"]}, 0) == []


@pytest.mark.parametrize("workload", ["study-varspeed", "study-hoelder"])
def test_study_applies_the_slabs_the_benchmark_counts(tmp_path, monkeypatch, workload):
    # a traced benchmark run fails unless the study applies exactly
    # Study.slabs(cfg) slabs; count them here on a reduced config, so that a
    # change in the slab count fails in the tests too
    worker = _worker()
    study = worker.WORKLOADS[workload]
    cfg = harness.resolve_config(study.scenario, overrides={
        "n_points": "64", "Ns": "8,16", "n_ref": "128", "output_dir": str(tmp_path)})
    applied = []
    apply_slab = propagator.apply_slab

    def counting(slab, field):
        applied.append(slab)
        return apply_slab(slab, field)

    monkeypatch.setattr(propagator, "apply_slab", counting)
    assert harness.run(cfg) == harness.EXIT_OK
    assert len(applied) == study.slabs(cfg)
