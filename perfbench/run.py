"""thinslab benchmark: time whole passes of one workload, check them, report metrics.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every pass runs in a fresh process (``worker.py``), so nothing a pass builds
or caches makes the next one cheaper, and every worker is pinned to one CPU.
A run first starts the worker ``SETUP_SAMPLES`` times in set-up-only mode,
then runs passes until the next one would end after ``--seconds`` (but at
least ``MIN_PASSES``, which a traced run meets with one untraced and one
traced pass).  Pass k gets
``cfg.seed = seed * 1000 + k``, so one ``--seed`` always gives the same inputs.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json:
``pass_cost`` (median over the passes of the pass's CPU time, first library
call to checked result, divided by ``ref_s``), ``work_per_ref`` (slab
applications, or H^s norms plus defects on stability-norms, per ``ref_s``
of pass CPU time, median over the passes), ``setup_s`` (median wall time
from process start to the pass being ready) and ``peak_rss_mb`` (median
peak RSS of a pass process).  ``ref_s`` is the mean CPU time of the rounds
of a fixed numpy-only kernel that ``probe.py`` ran, pinned to the pass's
CPU, while the pass ran.  ``setup_s`` is rescaled the same way, by the
run's median probe round, to seconds on a CPU that runs a round in
``REF_ROUND_S``.  On a shared host whose speed changes by up to a factor of
two from one minute to the next, times in these units spread far less from
run to run than seconds do (README.md); the measured seconds are kept in
``result.json``.

``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of BENCHMARK.json from the traced ones.  It fails the run unless the
traced passes applied exactly the workload's slab count and wrote
byte-identical data artifacts (the manifest, which carries timings, is
exempt); ``trace.overhead_s`` is the median traced wall minus the median
untraced wall.

A pass fails on a non-zero exit, an exception, or a value outside the golden
tolerances of ``worker.py``; ``failed``/``attempted`` is the fail ratio.  The
last stdout line is the JSON result; the line before it is the machine
record.  Each run also leaves ``result.json``, the worker stderr and (traced)
the span files under ``.perfbench-work/`` in the checkout.  The exit code is
0 when every pass was correct, 1 when a pass failed, 2 when the package
cannot be set up at all (no result is printed then).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
PROBE = os.path.join(HERE, "probe.py")
WORK = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("study-varspeed", "study-hoelder", "stability-norms", "oneway-lens")
SETUP_SAMPLES = 7
MIN_PASSES = 2          # a study pass takes 9-16 s; one alone spreads 11% run to run
RUN_LIMIT_S = 170.0     # whole run, so the process ends within 180 s
REF_ROUND_S = 1.5e-3    # setup_s is set-up time on a CPU that runs a probe round this fast


class SetupFailed(RuntimeError):
    """The worker did not reach ``ready``: the package cannot be imported or configured."""


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _child_env() -> dict:
    """Single-threaded passes: THINSLAB_THREADS unset and one BLAS thread.

    With the BLAS default of one thread per CPU, the idle BLAS threads spin
    against the main thread on a 2-CPU machine; a varspeed pass then burns
    25-30 s of CPU in 16-20 s of wall time, against 15-16 s of both with one.
    A fixed hash seed gives every pass process the same dict and set layout,
    so passes differ only in the inputs their seed picks.
    """
    env = dict(os.environ)
    env.pop("THINSLAB_THREADS", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def spawn(workload, seed, where, timeout, cpu, trace=False, setup_only=False):
    """Start one worker on ``cpu``; return (setup seconds, result dict or None, error or None)."""
    os.makedirs(where)
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--cpu", str(cpu)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    with open(os.path.join(where, "stderr.txt"), "w+") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=where, stdout=subprocess.PIPE, stderr=err,
                                text=True, env=_child_env())
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        tail = err.read()[-2000:]
    if first.strip() != "ready":
        raise SetupFailed(f"worker exited with code {code} before set-up finished:\n{tail}")
    if code != 0:
        return setup_s, None, f"exit code {code}:\n{tail}"
    if setup_only:
        return setup_s, None, None
    try:
        return setup_s, json.loads(rest.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return setup_s, None, f"no result line:\n{tail}"


@contextlib.contextmanager
def probe_running(cpu, out):
    """Run ``probe.py`` pinned to ``cpu``, writing its rounds to ``out``, for the block."""
    with open(out + ".stderr", "w+") as err:
        proc = subprocess.Popen([sys.executable, PROBE, "--cpu", str(cpu), "--out", out],
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                env=_child_env())
        killer = threading.Timer(60.0, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            killer.cancel()
            if ready.strip() != "ready":
                err.seek(0)
                raise SetupFailed(f"probe exited before it was ready:\n{err.read()[-2000:]}")
            yield
        finally:
            killer.cancel()
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def probe_rounds(path):
    """(start, seconds) of every round ``probe.py`` wrote to ``path``."""
    with open(path) as fh:
        return [tuple(map(float, line.split())) for line in fh if len(line.split()) == 2]


def pass_seed_of(seed: int, k: int) -> int:
    """cfg.seed of pass k (both passes of a traced pair share it).

    The seed picks the power iteration's start vector, and with it 33k to
    42k iterations per stability-norms pass; a run that varies it over its
    passes measures that workload's mean cost instead of one draw.
    """
    return (seed * 1000 + k) % 2 ** 31


def run_passes(args, one, modes, hard_stop):
    """Set-up samples, then passes until the next would end after ``--seconds``.

    Returns (set-up seconds, pass results, problems).
    """
    setups = [one(args.seed, setup_only=True)[0] for _ in range(SETUP_SAMPLES)]
    passes, problems = [], []
    deadline = time.perf_counter() + args.seconds
    cycle = []
    while True:
        t0 = time.perf_counter()
        pass_seed = pass_seed_of(args.seed, len(cycle))
        for trace in modes:
            setup_s, res, error, where = one(pass_seed, trace=trace)
            shutil.rmtree(os.path.join(where, "out"), ignore_errors=True)
            if res is None:
                res = {"problems": [error]}
            else:
                res["setup_s"] = setup_s
                threads = res["blas"]["threads"]
                if threads is not None and threads > os.cpu_count():
                    res["problems"].append(f"BLAS uses {threads} threads on "
                                           f"{os.cpu_count()} CPUs")
            res["traced"] = trace
            res["seed"] = pass_seed
            problems += res["problems"]
            passes.append(res)
        cycle.append(time.perf_counter() - t0)
        now = time.perf_counter()
        if len(passes) >= MIN_PASSES and now + median(cycle) > min(deadline, hard_stop):
            break
    return setups, passes, problems


def median(values):
    return statistics.median(values) if values else float("nan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="thinslab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the worker and the probe are still killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    hard_stop = started + RUN_LIMIT_S

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    counter = itertools.count()
    modes = (False, True) if args.trace else (False,)
    # the passes and the probe share one CPU, so the probe sees what the pass sees
    cpu = max(os.sched_getaffinity(0))

    def one(seed, trace=False, setup_only=False):
        where = os.path.join(run_dir, f"{'setup' if setup_only else 'pass'}-{next(counter):03d}")
        timeout = hard_stop - time.perf_counter()
        return spawn(args.workload, seed, where, timeout, cpu, trace, setup_only) + (where,)

    probe_out = os.path.join(run_dir, "probe.txt")
    try:
        with probe_running(cpu, probe_out) if not args.trace else contextlib.nullcontext():
            setups, passes, problems = run_passes(args, one, modes, hard_stop)
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 2
    if not args.trace:
        rounds = probe_rounds(probe_out)
        for p in passes:
            if "start" not in p:
                continue
            inside = [d for t, d in rounds if p["start"] <= t <= p["end"]]
            if inside:
                p["ref_s"], p["ref_rounds"] = statistics.fmean(inside), len(inside)
            else:
                p["problems"].append("no probe round ran during the pass")
                problems += p["problems"][-1:]

    good = [p for p in passes if not p["problems"]]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    metrics, raw = {}, {}
    if args.trace and traced and plain:
        import tracing
        layers = [tracing.layer_metrics(p["spans"]) for p in traced]
        metrics = {name: median([m[name] for m in layers]) for name in units
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (median([p["wall_s"] for p in traced])
                                       - median([p["wall_s"] for p in plain]))
        untraced = {p["seed"]: p for p in plain}
        for p, layer in zip(traced, layers):
            if layer["propagator.apply_slab.calls"] != p["slabs"]:
                p["problems"].append(f"traced pass applied "
                                     f"{layer['propagator.apply_slab.calls']:g} slabs, "
                                     f"the workload has {p['slabs']}")
            twin = untraced.get(p["seed"], {})
            if p["artifacts"] != twin.get("artifacts") or p["values"] != twin.get("values"):
                p["problems"].append("traced pass wrote different artifacts or values than "
                                     "the untraced pass with the same seed")
            problems += p["problems"]
    elif not args.trace and plain:
        costs = [p["cpu_s"] / p["ref_s"] for p in plain]
        raw = {name: median([p[name] for p in plain]) for name in ("wall_s", "cpu_s", "ref_s")}
        raw["setup_s"] = median(setups + [p["setup_s"] for p in plain])
        raw["round_s"] = median([d for _, d in rounds])
        metrics = {
            "pass_cost": median(costs),
            "work_per_ref": median([p["work"] / cost for p, cost in zip(plain, costs)]),
            "setup_s": raw["setup_s"] * REF_ROUND_S / raw["round_s"],
            "peak_rss_mb": median([p["peak_rss_mb"] for p in plain]),
        }
    failed = sum(1 for p in passes if p["problems"])
    correct = not problems and set(metrics) == set(units)

    first = (plain or traced or [{}])[0]
    machine = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "blas": first.get("blas"),
        "thinslab_threads": first.get("thinslab_threads"),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    result = {
        "correct": correct,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump({"machine": machine, "result": result, "problems": problems,
                   "raw": raw, "setup_samples": setups,
                   "passes": [{k: v for k, v in p.items() if k != "values"} for p in passes]},
                  fh, indent=1)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print("machine: " + json.dumps(machine))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
