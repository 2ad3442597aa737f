"""The benchmark worker still runs against the package and matches its golden values."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_stability_norms_worker_pass(tmp_path):
    # one pass of the stability-norms workload: the norm_sweep/semigroup_defect
    # keywords it calls and its norms against perfbench/golden.json
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "worker.py"),
         "--workload", "stability-norms", "--seed", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["problems"] == []
