"""One pass of one perfbench workload, in a fresh Python process.

``run.py`` starts this script once per pass, with the pass's own working
directory as cwd, so no library state (lru caches, kernel caches, BLAS
warm-up) carries over from one timed pass to the next: each pass pays what
one ``thinslab run`` invocation pays.

Protocol on stdout: the line ``ready`` once imports, config resolution and
inputs are done (``run.py`` times set-up up to this line), then, unless
``--setup-only``, one JSON line with the pass result: its wall time, its
CPU time (``cpu_s``, the process clock, which leaves out the time the CPU
spent on other processes or was taken away by the host), and the timed
interval stamped with ``time.monotonic()`` as ``start``/``end``, the clock
of ``probe.py``, so ``run.py`` can find the probe rounds that ran during it.
``--cpu N`` pins the process to CPU N before it imports the package.  A
pass that raises exits non-zero with the traceback on stderr.  A pass whose
values differ from ``golden.json`` beyond the tolerances below lists the
differences in ``problems``.

Usage: python3 perfbench/worker.py --workload NAME --seed N [--cpu N] [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden.json")
OUT = "out"

# (rtol, atol) per checked value: |got - want| <= rtol * |want| + atol.
# They admit a fused exp (~1e-14 per slab), low-rank slabs (1e-12 per slab)
# and exact LAPACK norms in place of power iteration (5.3e-9 at norm ~1):
# random noise of 1e-12 per slab moves the study errors by at most 3.5e-9
# and the one-way outside energy by 2.9e-5 relative.  That outside bin holds
# ~4e-17 of 3.5, so atol 1e-12 checks it only as negligible, and the
# suppression ratio built on it gets rtol 1e-3.  The translation defects sit
# at roundoff (~1e-14), which atol 1e-10 admits.
TOLERANCES = {
    "normalized_errors": (1e-6, 0.0),
    "averaged_normalized_errors": (1e-6, 0.0),
    "fitted_slope": (1e-6, 0.0),
    "norms": (1e-7, 1e-10),
    "defects": (1e-7, 1e-10),
    "final_partition": (1e-7, 1e-12),
    "suppression": (1e-3, 0.0),
}

NORM_SWEEP_SCENARIOS = ("varspeed", "damped-varspeed", "damped", "hoelder-z")
DEFECT_SCENARIOS = ("varspeed", "damped-varspeed", "translation")
NORMS_PER_SWEEP = 12    # harness.norm_sweep defaults: 6 thicknesses x s in (0, 1)
DEFECT_EXPONENTS = (4, 5, 6, 7)


# ---------------------------------------------------------------------------
# workloads: setup(seed) -> ctx, run(ctx) -> checked values, slabs(ctx), work(ctx)


class Study:
    """One ``harness.run`` of an evolution scenario with its default config."""

    def __init__(self, scenario):
        self.scenario = scenario

    def setup(self, seed):
        from thinslab import harness
        return harness.resolve_config(self.scenario,
                                      overrides={"seed": seed, "output_dir": OUT})

    def run(self, cfg):
        from thinslab import harness
        code = harness.run(cfg)
        if code != harness.EXIT_OK:
            raise RuntimeError(f"harness.run returned exit code {code}")
        with open(os.path.join(OUT, "convergence.json")) as fh:
            report = json.load(fh)
        config = dict(report["config"])
        config.pop("output_dir")
        values = {"normalized_errors": report["normalized_errors"],
                  "fitted_slope": report["fitted_slope"],
                  "config": config}
        if cfg.compare_variants:
            with open(os.path.join(OUT, "convergence_averaged.csv")) as fh:
                values["averaged_normalized_errors"] = [
                    float(row["normalized_error"]) for row in csv.DictReader(fh)]
        return values

    def slabs(self, cfg):
        n_ref = cfg.n_ref or 8 * max(cfg.Ns)
        per_study = sum(cfg.Ns) + n_ref + n_ref // 2   # study Ns + reference + half cross-check
        return per_study * (2 if cfg.compare_variants else 1)

    def work(self, cfg):
        return self.slabs(cfg)


class StabilityNorms:
    """``harness.norm_sweep`` over four symbols plus twelve semigroup defects."""

    def setup(self, seed):
        from thinslab import harness, symbols
        from thinslab.spectral import Grid
        sweeps = []
        for name in NORM_SWEEP_SCENARIOS:
            cfg = harness.resolve_config(name, overrides={"seed": seed})
            sweeps.append((symbols.get_symbol(name, cfg.period),
                           Grid(cfg.norm_points, cfg.period), cfg.seed))
        defects = []
        for name in DEFECT_SCENARIOS:
            cfg = harness.resolve_config(name, overrides={"seed": seed})
            defects.append((symbols.get_symbol(name, cfg.period),
                            Grid(cfg.norm_points, cfg.period), cfg.seed))
        return sweeps, defects

    def run(self, ctx):
        from thinslab import harness, propagator
        sweeps, defects = ctx
        norms = []
        for spec, grid, seed in sweeps:
            norms += [row[2] for row in harness.norm_sweep(spec, grid, seed=seed)]
        found = []
        for spec, grid, seed in defects:
            for k in DEFECT_EXPONENTS:
                delta = 2.0 ** -k
                found.append(propagator.semigroup_defect(
                    spec, 0.0, delta, 2.0 * delta, 1.0, grid, seed=seed))
        return {"norms": norms, "defects": found}

    def slabs(self, ctx):
        return 0

    def work(self, ctx):
        sweeps, defects = ctx
        return NORMS_PER_SWEEP * len(sweeps) + len(DEFECT_EXPONENTS) * len(defects)


class Oneway(Study):
    """One ``harness.run`` of a one-way continuation scenario."""

    def run(self, cfg):
        from thinslab import harness
        code = harness.run(cfg)
        if code != harness.EXIT_OK:
            raise RuntimeError(f"harness.run returned exit code {code}")
        with open(os.path.join(OUT, "energy_partition.csv")) as fh:
            rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
        first, last = rows[0][1:], rows[-1][1:]
        return {"final_partition": last, "suppression": first[2] / last[2]}

    def slabs(self, cfg):
        return cfg.n_slabs


WORKLOADS = {
    "study-varspeed": Study("varspeed"),
    "study-hoelder": Study("hoelder-z"),
    "stability-norms": StabilityNorms(),
    "oneway-lens": Oneway("oneway-lens"),
}


# ---------------------------------------------------------------------------
# checks and records


def check_values(values: dict, golden: dict, seed: int) -> list:
    """Differences between a pass's values and the recorded ones."""
    problems = []
    for key, want in golden.items():
        got = values.get(key)
        if key == "config":
            # recorded keys only, so a config key added later is not a mismatch
            want = dict(want, seed=seed)
            diff = sorted(k for k in want if (got or {}).get(k) != want[k])
            if diff:
                problems.append(f"config differs in {diff}")
            continue
        rtol, atol = TOLERANCES[key]
        want_list = want if isinstance(want, list) else [want]
        got_list = got if isinstance(got, list) else [got]
        if got is None or len(got_list) != len(want_list):
            problems.append(f"{key}: expected {len(want_list)} values, got {got!r}")
            continue
        for i, (g, w) in enumerate(zip(got_list, want_list)):
            if g is None or not abs(g - w) <= rtol * abs(w) + atol:
                problems.append(f"{key}[{i}] = {g!r}, recorded {w!r} "
                                f"(rtol {rtol:g}, atol {atol:g})")
    return problems


def artifact_digests() -> dict:
    """sha256 of every data artifact; the manifest carries timings, so it is left out."""
    if not os.path.isdir(OUT):
        return {}
    digests = {}
    for name in sorted(os.listdir(OUT)):
        if name != "manifest.json":
            with open(os.path.join(OUT, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def blas_record() -> dict:
    """BLAS name, version and thread count of the numpy in use."""
    import ctypes
    import glob
    import numpy as np
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        info = {}
    threads = None
    numpy_dir = os.path.dirname(np.__file__)
    for lib in glob.glob(os.path.join(os.path.dirname(numpy_dir), "numpy.libs", "*openblas*")) \
            + glob.glob(os.path.join(numpy_dir, ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--cpu", type=int)
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import thinslab  # noqa: F401  (imports every layer module)
    workload = WORKLOADS[args.workload]
    ctx = workload.setup(args.seed)
    with open(GOLDEN) as fh:
        golden = json.load(fh)[args.workload]
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    start, cpu_start = time.monotonic(), time.process_time()
    values = workload.run(ctx)
    problems = check_values(values, golden, args.seed)
    end, cpu_end = time.monotonic(), time.process_time()

    result = {
        "wall_s": end - start,
        "cpu_s": cpu_end - cpu_start,
        "start": start,
        "end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "slabs": workload.slabs(ctx),
        "work": workload.work(ctx),
        "problems": problems,
        "values": values,
        "artifacts": artifact_digests(),
        "numpy": sys.modules["numpy"].__version__,
        "blas": blas_record(),
        "thinslab_threads": os.environ.get("THINSLAB_THREADS"),
    }
    if tracer is not None:
        tracer.dump("spans.npz")
        result["spans"] = os.path.abspath("spans.npz")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
