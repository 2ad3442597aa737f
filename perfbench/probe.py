"""Reference probe: time a fixed numpy kernel every few milliseconds on one CPU.

Usage: python3 perfbench/probe.py --cpu N --out FILE

``run.py`` starts the probe for an untraced run, pinned to the CPU its pass
processes are pinned to, and stops it with SIGTERM when the run ends.  Every
``PERIOD_S`` the probe wakes, runs one round of ``reference_round`` (about
1.6 ms) and writes ``<start> <seconds>`` to FILE: the start on
``time.monotonic()``, the clock the worker stamps its pass with, and the
round's duration on the probe thread's CPU clock, so that a round the pass
preempts is not charged the pass's time slice.  The rounds that start
during a pass measure how fast that CPU ran while the pass ran; ``run.py``
divides the pass's CPU time by their mean.  The probe takes about 4 % of
the CPU from the pass, on every commit alike, and touches under 0.3 MB, so
what the pass leaves in the caches moves a round by little.  It prints ``ready``
once numpy is imported and its inputs are built.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import time

PERIOD_S = 0.04


def reference_inputs(np):
    """Fixed inputs: every round on every commit does the same work."""
    rng = np.random.default_rng(12345)
    mat = (rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))) / 64
    rows = rng.standard_normal((16, 256)) + 0j
    phase = 1j * rng.standard_normal((64, 64))
    return mat, rows, phase, np.empty_like(phase), np.empty_like(phase)


def reference_round(np, inputs) -> float:
    """CPU seconds of one round of a numpy kernel that never touches thinslab.

    The round mixes what the workloads spend their time on: a Python loop of
    small complex mat-vecs with a norm each (the power iteration of
    stability-norms), FFT round trips at n = 256, and complex ``exp`` and
    products of small arrays (slab kernels), the last two into preallocated
    outputs so that first-touch page faults stay out of the round.
    """
    mat, rows, phase, kernel, product = inputs
    t0 = time.thread_time()
    v = np.ones(64, dtype=complex)
    for _ in range(40):
        v = mat @ v
        v /= np.linalg.norm(v)
    for _ in range(4):
        np.fft.ifft(np.fft.fft(rows, axis=1), axis=1)
    for _ in range(4):
        np.exp(phase, out=kernel)
    for _ in range(4):
        np.matmul(kernel, kernel, out=product)
    return time.thread_time() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cpu", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.sched_setaffinity(0, {args.cpu})
    # SIGTERM unwinds like an exception, so the sample file is flushed and closed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(0))
    import numpy as np
    inputs = reference_inputs(np)
    with open(args.out, "w") as fh:
        print("ready", flush=True)
        due = time.monotonic()
        while True:
            start = time.monotonic()
            fh.write(f"{start:.6f} {reference_round(np, inputs):.9f}\n")
            due = max(due + PERIOD_S, time.monotonic())
            time.sleep(max(0.0, due - time.monotonic()))


if __name__ == "__main__":
    sys.exit(main())
