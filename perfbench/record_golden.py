"""Record the values the golden check compares against, into golden.json.

Runs every workload once at seed 0 and stores the values its pass checks.
Re-record only for a deliberate change of the numerics, and say so in the
change that does it.

Usage: python3 perfbench/record_golden.py
"""

import json
import os
import shutil
import sys

import worker

WORK = os.path.join(worker.ROOT, ".perfbench-work", "golden")


def main() -> None:
    sys.path.insert(0, os.path.join(worker.ROOT, "src"))
    golden = {}
    for name, workload in worker.WORKLOADS.items():
        where = os.path.join(WORK, name)
        shutil.rmtree(where, ignore_errors=True)
        os.makedirs(where)
        os.chdir(where)
        golden[name] = workload.run(workload.setup(0))
    with open(worker.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
