"""Span tracing of the thinslab package from outside, for the traced run.

``Tracer.install`` replaces the public functions named in ``TARGETS`` with
wrappers.  It rebinds every module attribute of the package that holds the
original function object, so calls made inside the package (``spectral.forward``
from ``propagator``, ``eval_symbol`` from ``averaged_symbol``, a name pulled in
with ``from .x import f``) all go through the wrappers.  Each call records one
span (name, start, end, parent) into flat arrays kept in memory; ``dump``
writes them to an ``.npz`` file at the end of the pass and ``layer_metrics``
turns such a file into the per-layer metrics.

The span stack is a plain list, so a pass traced here must run its library
calls on one thread (THINSLAB_THREADS unset).
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np


def _slab_entries(slab, field):
    """Direct-sum kernel entries of one slab: grid.size**2 when x-dependent."""
    return 0 if slab.spec.x_independent else field.grid.size ** 2


def _file_bytes(path, field):
    return os.path.getsize(path)


# (module, function, per-call count or None), bottom layer first
TARGETS = (
    ("symbols", "eval_symbol", None),
    ("symbols", "averaged_symbol", None),
    ("propagator", "apply_slab", _slab_entries),
    ("propagator", "assemble_matrix", None),
    ("propagator", "operator_norm_hs", None),
    ("propagator", "semigroup_defect", None),
    ("spectral", "forward", None),
    ("spectral", "inverse", None),
    ("spectral", "sobolev_norm", None),
    ("spectral", "write_field", _file_bytes),
    ("ansatz", "apply_ansatz", None),
    ("ansatz", "reference_solution", None),
    ("ansatz", "convergence_study", None),
    ("oneway", "energy_partition", None),
    ("oneway", "downward_continue", None),
    ("harness", "run", None),
    ("harness", "norm_sweep", None),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in TARGETS)


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {name: 0 for name in SPAN_NAMES}
        self._stack = []

    def _wrap(self, name_id, fn, count):
        name = SPAN_NAMES[name_id]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.starts.append(0.0)
            self.ends.append(0.0)
            stack.append(i)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[i] = time.perf_counter()
                self.starts[i] = t0
                stack.pop()
            if count is not None:
                self.counts[name] += count(*args, **kwargs)
            return result

        return traced

    def install(self, package: str = "thinslab") -> None:
        """Rebind every package attribute that holds a target function."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == package or key.startswith(package + "."))]
        for name_id, (mod, fn_name, count) in enumerate(TARGETS):
            original = getattr(sys.modules[f"{package}.{mod}"], fn_name)
            wrapper = self._wrap(name_id, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path) -> None:
        np.savez(path,
                 name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
                 parents=np.frombuffer(self.parents, dtype=np.int32),
                 starts=np.frombuffer(self.starts, dtype=np.float64),
                 ends=np.frombuffer(self.ends, dtype=np.float64),
                 count_names=np.array(list(self.counts)),
                 count_values=np.array(list(self.counts.values()), dtype=np.float64))


def layer_metrics(path) -> dict:
    """Per-layer metrics (plain floats) from one pass's span file.

    A span's self time is its duration minus the durations of its direct
    child spans; ``total_s`` is the summed duration of the spans of a name
    (none of the traced functions calls itself).
    """
    with np.load(path) as data:
        ids = data["name_ids"]
        parents = data["parents"]
        dur = data["ends"] - data["starts"]
        counts = dict(zip(data["count_names"].tolist(), data["count_values"].tolist()))
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
    self_t = dur - child

    def calls(name):
        return float(np.count_nonzero(ids == SPAN_NAMES.index(name)))

    def self_s(name):
        return float(self_t[ids == SPAN_NAMES.index(name)].sum())

    def total_s(name):
        return float(dur[ids == SPAN_NAMES.index(name)].sum())

    slab_ms = np.sort(dur[ids == SPAN_NAMES.index("propagator.apply_slab")]) * 1e3
    slab_self = self_s("propagator.apply_slab")
    m = {
        "symbols.eval_symbol.calls": calls("symbols.eval_symbol"),
        "symbols.eval_symbol.self_s": self_s("symbols.eval_symbol"),
        "symbols.averaged_symbol.calls": calls("symbols.averaged_symbol"),
        "symbols.averaged_symbol.self_s": self_s("symbols.averaged_symbol"),
        "symbols.eval_per_slab": (calls("symbols.eval_symbol") / len(slab_ms)
                                  if len(slab_ms) else 0.0),
        "propagator.apply_slab.calls": float(len(slab_ms)),
        "propagator.apply_slab.self_s": slab_self,
        "propagator.apply_slab.p50_ms": (float(np.percentile(slab_ms, 50))
                                         if len(slab_ms) else 0.0),
        "propagator.apply_slab.p99_ms": (float(np.percentile(slab_ms, 99))
                                         if len(slab_ms) else 0.0),
        "propagator.apply_slab.entries_per_s": (
            counts["propagator.apply_slab"] / slab_self if slab_self > 0 else 0.0),
    }
    for name in ("propagator.assemble_matrix", "propagator.operator_norm_hs",
                 "propagator.semigroup_defect"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = self_s(name)
    m["spectral.forward.calls"] = calls("spectral.forward")
    m["spectral.inverse.calls"] = calls("spectral.inverse")
    m["spectral.fft.self_s"] = self_s("spectral.forward") + self_s("spectral.inverse")
    m["spectral.sobolev_norm.calls"] = calls("spectral.sobolev_norm")
    m["spectral.sobolev_norm.self_s"] = self_s("spectral.sobolev_norm")
    m["spectral.write_field.calls"] = calls("spectral.write_field")
    m["spectral.write_field.bytes"] = counts["spectral.write_field"]
    m["spectral.write_field.self_s"] = self_s("spectral.write_field")
    m["ansatz.apply_ansatz.calls"] = calls("ansatz.apply_ansatz")
    m["ansatz.apply_ansatz.self_s"] = self_s("ansatz.apply_ansatz")
    m["ansatz.reference_solution.calls"] = calls("ansatz.reference_solution")
    m["ansatz.reference_solution.total_s"] = total_s("ansatz.reference_solution")
    m["ansatz.convergence_study.total_s"] = total_s("ansatz.convergence_study")
    m["oneway.energy_partition.calls"] = calls("oneway.energy_partition")
    m["oneway.energy_partition.self_s"] = self_s("oneway.energy_partition")
    m["oneway.downward_continue.total_s"] = total_s("oneway.downward_continue")
    m["harness.run.self_s"] = self_s("harness.run")
    m["harness.norm_sweep.total_s"] = total_s("harness.norm_sweep")
    return m
