"""Experiment harness: scenario registry, config resolution, artifact writers.

A scenario bundles a canned symbol (or one-way medium) with default grid
and study settings and its gates: each gate maps a scalar fact the
experiment reports to ``(op, bound)``.  Every setting is a ``KEY=VALUE``
string parsed here, in three layers (scenario defaults, then a flat
key=value config file, then command-line overrides, last writer wins).
``run`` executes the experiment and writes deterministic artifacts into the
output directory.  Every artifact writer lives here: one CSV writer with 17
significant digits per value, strict JSON, JUnit XML and the manifest.  The
artifacts are:

* ``convergence.csv`` / ``convergence.json``  - study errors and fit,
* ``norm_sweep.csv``                          - H^s slab norms over a thickness sweep,
* ``properties.xml``                          - JUnit-style property-suite summary,
* ``energy_partition.csv``, ``phase_errors.csv``, ``snapshot_*.tslb``
                                              - one-way demo artifacts,
* ``manifest.json``                           - config echo, version, timings, status,
                                                and the counters: kernel sums
                                                (``propagator.counters``), symbol
                                                tables and transforms.

Everything except the manifest (which carries wall-clock timings) is
byte-identical across runs with the same config, seed and build.  ``run``,
``quick_check`` and ``record_rejection`` (for settings that
``resolve_config`` rejected) share one recorded path, the only writer of
the manifest: exit codes 0 success, 2 configuration error, 4 an acceptance
gate or property was violated.  The manifest's status is "ok" only for a
completed run; an unexpected exception is recorded as status "error" and
re-raised.
"""

from __future__ import annotations

import json
import math
import operator
import os
import random
import time
from dataclasses import asdict, dataclass, field, fields, replace
from xml.etree import ElementTree as ET

import numpy as np

from . import __version__
from . import ansatz, oneway, propagator, spectral, symbols
from .ansatz import ExactMultiplier, FineStep, Subdivision
from .oneway import ApertureConfig
from .propagator import Averaged, Frozen, SlabSpec
from .spectral import Field, Grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GATE = 4


class ConfigError(ValueError):
    """Bad scenario name, config key, or config value."""


class GateViolation(RuntimeError):
    """An acceptance gate failed; message lists the violations."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str = ""
    output_dir: str = ""
    n_points: int = 256
    period: float = 2.0 * np.pi
    s: float = 1.0
    Z: float = 1.0
    Ns: tuple = (8, 16, 32, 64)
    variant: str = "frozen"
    reference: str = "auto"
    n_ref: int = 0               # 0 = auto (8x largest study N)
    seed: int = 0
    delta_max: float = propagator.DELTA_MAX_DEFAULT
    norm_points: int = 128
    quadrature_order: int = 0    # 0 = auto from the symbol's z-bandwidth
    compare_variants: bool = False
    damping_scale: float = 2.0
    tau: float = 32.0
    theta1_deg: float = 15.0
    theta2_deg: float = 50.0
    n_slabs: int = 64
    snapshot_every: int = 8
    modes: tuple = (0, 2, 5)


def _parse_int_tuple(raw: str) -> tuple:
    try:
        vals = tuple(int(p) for p in str(raw).replace(" ", "").split(",") if p != "")
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {raw!r}")
    if not vals:
        raise ConfigError(f"expected a non-empty integer list, got {raw!r}")
    return vals


def _parse_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    low = str(raw).strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _coerce(name: str, raw):
    if name not in {f.name for f in fields(ExperimentConfig)}:
        raise ConfigError(f"unknown config key {name!r}")
    current = getattr(ExperimentConfig(), name)
    try:
        if isinstance(current, bool):
            return _parse_bool(raw)
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
        if isinstance(current, tuple):
            return _parse_int_tuple(raw)
        return str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {name!r}: {raw!r} ({exc})")


def parse_config_file(path) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment; later keys win."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, line in enumerate(fh, 1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, _, value = stripped.partition("=")
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    return out


def _layered(cfg: ExperimentConfig, layers, strict: bool = True) -> ExperimentConfig:
    """Apply each layer's settings in order, last writer wins.

    A setting that does not parse raises ConfigError, or is left out when
    ``strict`` is False.
    """
    for layer in layers:
        coerced = {}
        for key, raw in layer.items():
            if key == "scenario":
                continue
            try:
                coerced[key] = _coerce(key, raw)
            except ConfigError:
                if strict:
                    raise
        cfg = replace(cfg, **coerced)
    return cfg


def _scenario_config(scenario: str) -> ExperimentConfig:
    """The scenario's defaults, or the bare defaults for an unknown scenario."""
    cfg = ExperimentConfig(scenario=scenario)
    entry = _SCENARIOS.get(scenario)
    if entry is None:
        return cfg
    return replace(cfg, output_dir=f"thinslab-out/{scenario}", **entry.defaults)


def resolve_config(scenario: str, file_map: dict | None = None,
                   overrides: dict | None = None) -> ExperimentConfig:
    """Layer scenario defaults, config file, and CLI overrides (last wins)."""
    entry = get_scenario(scenario)
    cfg = _layered(_scenario_config(scenario), ((file_map or {}), (overrides or {})))
    if any(n < 1 for n in cfg.Ns) or list(cfg.Ns) != sorted(set(cfg.Ns)):
        raise ConfigError(f"Ns must be strictly increasing positive ints, got {cfg.Ns}")
    if cfg.variant not in ("frozen", "averaged"):
        raise ConfigError(f"variant must be frozen|averaged, got {cfg.variant!r}")
    if cfg.reference not in ("auto", "exact", "finestep"):
        raise ConfigError(f"reference must be auto|exact|finestep, got {cfg.reference!r}")
    if cfg.snapshot_every < 1:
        raise ConfigError(f"snapshot_every must be >= 1, got {cfg.snapshot_every}")
    if cfg.damping_scale < 0.0:
        raise ConfigError(f"damping_scale must be >= 0, got {cfg.damping_scale}")
    if not 0 <= cfg.quadrature_order <= symbols.MAX_QUADRATURE_ORDER:
        raise ConfigError(f"quadrature_order must be in 0..{symbols.MAX_QUADRATURE_ORDER} "
                          f"(0 = auto), got {cfg.quadrature_order}")
    for name in ("s", "Z", "delta_max", "damping_scale"):
        if not np.isfinite(getattr(cfg, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(cfg, name)}")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.norm_points < 8 or cfg.norm_points & (cfg.norm_points - 1):
        raise ConfigError(f"norm_points must be a power of two >= 8, got {cfg.norm_points}")
    sweep_points = min(cfg.norm_points, cfg.n_points)
    if entry.kind == "evolution" and sweep_points > propagator.MATRIX_SIZE_LIMIT:
        raise ConfigError(f"the norm sweep grid min(norm_points, n_points) = {sweep_points} "
                          f"exceeds the dense-assembly limit {propagator.MATRIX_SIZE_LIMIT}")
    return cfg


def config_echo(cfg: ExperimentConfig) -> dict:
    echo = {}
    for f in fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        echo[f.name] = list(v) if isinstance(v, tuple) else v
    return echo


# ---------------------------------------------------------------------------
# scenario registry


@dataclass(frozen=True)
class Scenario:
    name: str
    kind: str            # "evolution" | "oneway"
    description: str
    regularity: str
    defaults: dict = field(default_factory=dict)
    gates: dict = field(default_factory=dict)    # fact name -> (op, bound)


_SCENARIOS: dict = {}


def _register(sc: Scenario):
    _SCENARIOS[sc.name] = sc


_register(Scenario(
    name="translation", kind="evolution",
    description="constant drift; averaged composition reproduces the exact multiplier",
    regularity="lipschitz",
    defaults={"variant": "averaged", "reference": "exact", "Ns": (1, 8, 64),
              "delta_max": 1.0},
    gates={"max_normalized_error": ("<", 1e-10)}))

_register(Scenario(
    name="halfwave", kind="evolution",
    description="half-wave multiplier with constant absorption",
    regularity="lipschitz",
    defaults={"variant": "averaged", "reference": "exact", "Ns": (1, 8, 64),
              "delta_max": 1.0},
    gates={"max_normalized_error": ("<", 1e-10)}))

_register(Scenario(
    name="damped", kind="evolution",
    description="pure damping multiplier; contractive on L2",
    regularity="lipschitz",
    defaults={"variant": "averaged", "reference": "exact", "Ns": (1, 8, 64),
              "delta_max": 1.0},
    gates={"max_normalized_error": ("<", 1e-10)}))

_register(Scenario(
    name="varspeed", kind="evolution",
    description="laterally varying speed; first-order convergence expected",
    regularity="lipschitz",
    defaults={"variant": "frozen", "reference": "auto", "Ns": (8, 16, 32, 64, 128),
              "n_points": 256},
    gates={"fitted_slope": (">=", 0.45), "error_growth": ("<=", 1.05)}))

_register(Scenario(
    name="varspeed-z", kind="evolution",
    description="laterally varying speed with linear z drift",
    regularity="lipschitz",
    defaults={"variant": "frozen", "reference": "auto", "Ns": (8, 16, 32, 64),
              "n_points": 128},
    gates={"fitted_slope": (">=", 0.45), "error_growth": ("<=", 1.05)}))

_register(Scenario(
    name="damped-varspeed", kind="evolution",
    description="variable speed plus variable angular damping",
    regularity="lipschitz",
    defaults={"variant": "frozen", "reference": "auto", "Ns": (8, 16, 32, 64),
              "n_points": 128},
    gates={"fitted_slope": (">=", 0.45), "error_growth": ("<=", 1.05)}))

_register(Scenario(
    name="hoelder-z", kind="evolution",
    description="rough z modulation; slab averaging beats freezing",
    regularity="hoelder(0.5)",
    defaults={"variant": "frozen", "reference": "auto", "Ns": (8, 16, 32, 64),
              "n_points": 128, "n_ref": 1024, "compare_variants": True},
    gates={"fitted_slope": (">=", 0.2), "averaged_ratio": ("<=", 0.9)}))

_register(Scenario(
    name="oneway-homogeneous", kind="oneway",
    description="one-way continuation in a constant medium; per-mode phase check",
    regularity="lipschitz",
    defaults={"damping_scale": 0.0, "n_points": 256, "n_slabs": 64},
    gates={"max_phase_error": ("<", 1e-9)}))

_register(Scenario(
    name="oneway-lens", kind="oneway",
    description="one-way continuation through a lateral lens with angular damping",
    regularity="lipschitz",
    defaults={"damping_scale": 2.0, "n_points": 256, "n_slabs": 64},
    gates={"suppression": (">=", 10.0), "inside_change": ("<=", 0.05)}))


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}")


def list_scenarios() -> str:
    """Stable, deterministic table of registered scenarios."""
    rows = [("name", "kind", "z-regularity", "description")]
    for sc in _SCENARIOS.values():
        rows.append((sc.name, sc.kind, sc.regularity, sc.description))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, row in enumerate(rows):
        lines.append("  ".join(col.ljust(widths[j]) if j < 3 else col
                               for j, col in enumerate(row)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * w for w in widths) + "  " + "-" * 11)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# writers


def write_junit(path, suite_name: str, cases) -> None:
    """cases: iterable of (name, ok, message), the message a ``failure`` or a
    passing case's ``system-out``; no timestamps, deterministic."""
    cases = list(cases)
    suite = ET.Element("testsuite", {
        "name": suite_name,
        "tests": str(len(cases)),
        "failures": str(sum(1 for _, ok, _ in cases if not ok)),
    })
    for name, ok, message in cases:
        case = ET.SubElement(suite, "testcase", {"classname": suite_name, "name": name})
        if ok:
            ET.SubElement(case, "system-out").text = message
        else:
            ET.SubElement(case, "failure", {"message": message})
    tree = ET.ElementTree(suite)
    ET.indent(tree)
    tree.write(path, encoding="unicode", xml_declaration=True)
    with open(path, "a") as fh:
        fh.write("\n")


def _write_csv(out, outputs, name, header: str, rows) -> None:
    """Write out/name with every value at 17 significant digits, and list it."""
    with open(os.path.join(out, name), "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")
    outputs.append(name)


def _write_report_csv(out, outputs, name, report: ansatz.ConvergenceReport) -> None:
    _write_csv(out, outputs, name, "N,delta,error_Hs,normalized_error",
               zip(report.Ns, report.deltas, report.errors, report.normalized_errors))


def _strict_json(value):
    """Replace non-finite floats, nested anywhere, by "nan", "inf" or "-inf"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "nan" if math.isnan(value) else ("inf" if value > 0 else "-inf")
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    return value


def _write_json(path, data) -> None:
    """Write strict JSON: sorted keys, non-finite floats as strings, final newline."""
    with open(path, "w") as fh:
        json.dump(_strict_json(data), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# experiment pieces


def _variant_object(cfg: ExperimentConfig):
    if cfg.variant == "averaged":
        return Averaged(cfg.quadrature_order or None)
    return Frozen()


def _reference_object(cfg: ExperimentConfig, spec):
    if cfg.reference == "exact" or (cfg.reference == "auto" and spec.x_independent):
        return ExactMultiplier()
    return FineStep(cfg.n_ref or 8 * max(cfg.Ns))


def norm_sweep(spec, grid: Grid, seed: int = 0):
    """H^s operator norms of one frozen slab over a thickness sweep.

    The sweep covers s in (0, 1) and Delta = 2^-4, ..., 2^-9.  Each slab
    matrix is assembled once and gives the norms for both s.  Returns rows
    (s, delta, norm, excess_rate) in (s, delta) order, with excess_rate =
    (norm - 1)/delta, the quantity the stability estimate bounds.  ``seed``
    is unused: the norms are exact and need no random start vector.  It is
    kept so that callers which still pass it, such as the benchmark worker,
    keep working.
    """
    sobolev = (0.0, 1.0)
    deltas = [2.0 ** (-k) for k in range(4, 10)]
    norms = {}
    for delta in deltas:
        mat = propagator.assemble_matrix(SlabSpec(0.0, delta, spec, Frozen()), grid)
        for s in sobolev:
            norms[s, delta] = propagator.operator_norm_hs(mat, grid, s)
    return [(s, delta, norms[s, delta], (norms[s, delta] - 1.0) / delta)
            for s in sobolev for delta in deltas]


def _shared_cases(grid: Grid, seed: int):
    """The parseval-round-trip and exponential-family-uniform cases.

    Returns (u, round_trip_case, family_case), where u is the seeded random
    field the round trip is checked on: standard normal real and imaginary
    parts from the stdlib generator, which the interpreter has loaded, so a
    run does not import numpy.random.
    """
    gauss = random.Random(seed).gauss
    parts = np.array([gauss() for _ in range(2 * grid.size)]).reshape((2,) + grid.shape)
    u = Field(grid, parts[0] + 1j * parts[1])
    round_trip = spectral.inverse(spectral.forward(u))
    err = np.linalg.norm(round_trip.values - u.values) / np.linalg.norm(u.values)
    ql = symbols.check_QL_family(lambda x, xi: symbols.smoothed_abs(xi)
                                 * np.ones(np.broadcast(x, xi).shape))
    return (u, ("parseval-round-trip", err < 1e-12, f"relative error {err:.3e}"),
            ("exponential-family-uniform", ql.uniform,
             "slab-exponential seminorms uniform in thickness"))


def _property_cases(cfg: ExperimentConfig, spec, grid) -> list:
    """Cheap per-scenario property checks mirrored into properties.xml."""
    _, round_trip, family = _shared_cases(grid, cfg.seed)
    cases = [round_trip]
    probe_xi = np.linspace(-4.0, 4.0, 9)
    p0 = symbols.component_argument(spec, 0.0)
    c1_vals = spec.c1(p0, np.linspace(0.0, cfg.period, 7)[:, None], probe_xi[None, :])
    if np.any(np.asarray(c1_vals) != 0.0):
        def q(x, xi):
            return spec.c1(p0, x, xi)
        rep = symbols.check_PL(q)
        cases.append(("damping-derivative-bound", rep.passed,
                      f"worst ratio {rep.worst_ratio:.3f} (limit {symbols.RATIO_LIMIT:g})"))
    cases.append(family)
    return cases


_COMPARE = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


def _check_gates(entry: Scenario, facts: dict) -> list:
    """Return one violation string per gate whose fact fails its comparison.

    Each gate maps a fact name to ``(op, bound)`` with op ``<``, ``<=`` or
    ``>=``.  A fact the run did not report is not checked; NaN fails every op.
    """
    return [f"{name} {facts[name]:.6g} not {op} {bound:g}"
            for name, (op, bound) in entry.gates.items()
            if name in facts and not _COMPARE[op](facts[name], bound)]


def _worst_ratio(numerators, denominators) -> float:
    """Largest numerator/denominator ratio, for gates on error ratios.

    A pair of zeros reads 0 and passes; a positive error over a zero one
    reads inf; NaN propagates.
    """
    num, den = np.asarray(numerators, float), np.asarray(denominators, float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where((num == 0.0) & (den == 0.0), 0.0, num / den)))


def _run_evolution(cfg: ExperimentConfig, out, timings, outputs) -> dict:
    grid = Grid(cfg.n_points, cfg.period)
    spec = symbols.get_symbol(cfg.scenario, cfg.period)
    u0 = spectral.wave_packet(grid)
    variant = _variant_object(cfg)
    reference = _reference_object(cfg, spec)

    t0 = time.perf_counter()
    report = ansatz.convergence_study(spec, u0, cfg.s, cfg.Ns, variant, reference,
                                      Z=cfg.Z, delta_max=cfg.delta_max)
    errors = report.normalized_errors
    facts = {"max_normalized_error": float(np.max(errors))}   # NaN propagates
    if not report.exact:
        facts["fitted_slope"] = report.fitted_slope
    if len(errors) > 1:
        facts["error_growth"] = _worst_ratio(errors[1:], errors[:-1])
    _write_report_csv(out, outputs, "convergence.csv", report)
    slope = None if math.isnan(report.fitted_slope) else report.fitted_slope
    _write_json(os.path.join(out, "convergence.json"),
                dict(asdict(report), fitted_slope=slope, config=config_echo(cfg)))
    outputs.append("convergence.json")

    if cfg.compare_variants:
        other = "averaged" if cfg.variant == "frozen" else "frozen"
        report2 = ansatz.convergence_study(spec, u0, cfg.s, cfg.Ns,
                                           _variant_object(replace(cfg, variant=other)),
                                           reference, Z=cfg.Z, delta_max=cfg.delta_max)
        _write_report_csv(out, outputs, f"convergence_{other}.csv", report2)
        by_variant = {cfg.variant: errors, other: report2.normalized_errors}
        facts["averaged_ratio"] = _worst_ratio(by_variant["averaged"], by_variant["frozen"])
    timings["convergence"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    norm_grid = Grid(min(cfg.norm_points, cfg.n_points), cfg.period)
    _write_csv(out, outputs, "norm_sweep.csv", "s,delta,norm_hs,excess_rate",
               norm_sweep(spec, norm_grid))
    timings["norm_sweep"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cases = _property_cases(cfg, spec, grid)
    timings["properties"] = time.perf_counter() - t0
    _write_properties(out, outputs, "thinslab.properties", cases)
    return facts


def _write_properties(out, outputs, suite: str, cases) -> None:
    """Write properties.xml; a failed case ends the run as a gate violation."""
    write_junit(os.path.join(out, "properties.xml"), suite, cases)
    outputs.append("properties.xml")
    failed = [f"property {n} failed: {m}" for n, ok, m in cases if not ok]
    if failed:
        raise GateViolation("; ".join(failed))


def _oneway_parts(cfg: ExperimentConfig):
    grid = Grid(cfg.n_points, cfg.period)
    aperture = ApertureConfig(theta1=np.deg2rad(cfg.theta1_deg),
                              theta2=np.deg2rad(cfg.theta2_deg), tau=cfg.tau)
    if cfg.scenario == "oneway-lens":
        medium = oneway.lens_medium(period=cfg.period)
    else:
        medium = oneway.homogeneous_medium()
    return grid, medium, aperture


def _mixed_mode_datum(grid: Grid, medium, aperture) -> Field:
    """Inside-aperture packet plus one steep still-propagating mode."""
    n = grid.n_points
    k = np.arange(n) - n // 2
    scale = grid.period / (2.0 * np.pi)          # mode number per unit frequency
    coeffs = np.zeros(n, dtype=np.complex128)
    coeffs[(np.abs(k - 4) <= 6)] = np.exp(-((k[(np.abs(k - 4) <= 6)] - 4) ** 2) / 8.0)
    c_min = medium.c_bounds[0]
    c_max = medium.c_bounds[1]
    steep = int(np.floor(0.97 * abs(aperture.tau) * scale / c_max))
    lo = np.sin(aperture.theta2) * abs(aperture.tau) * scale / c_min
    if steep <= lo:
        raise oneway.BandLimitError(
            "no propagating mode lies strictly outside theta2 for this geometry")
    if steep >= n // 2:
        raise oneway.BandLimitError(
            f"steep mode {steep} does not fit on a {n}-point lattice")
    coeffs[n // 2 + steep] = 0.7
    return spectral.inverse(spectral.SpectralField(grid, coeffs))


def _run_oneway(cfg: ExperimentConfig, out, timings, outputs) -> dict:
    grid, medium, aperture = _oneway_parts(cfg)
    facts = {}

    t0 = time.perf_counter()
    if cfg.scenario == "oneway-homogeneous":
        # per-mode phase advance against the closed-form vertical wavenumber;
        # modes n/2 and -n/2 sample alike and larger ones alias, so for
        # |mode| >= n/2 the closed form describes another wave than the one propagated
        half = grid.n_points // 2
        if any(abs(mode) >= half for mode in cfg.modes):
            raise ConfigError(f"modes {list(cfg.modes)} must satisfy |mode| < {half} "
                              f"on a {grid.n_points}-point grid")
        rows = []
        for mode in cfg.modes:
            x = grid.axis_points()
            u0 = Field(grid, np.exp(1j * mode * (2.0 * np.pi / cfg.period) * x))
            uz = oneway.downward_continue(medium, aperture, u0, cfg.Z, cfg.n_slabs,
                                          damping_scale=cfg.damping_scale,
                                          delta_max=cfg.delta_max)
            xi = mode * 2.0 * np.pi / cfg.period
            expected = np.exp(1j * cfg.Z * np.sqrt(aperture.tau ** 2 - xi ** 2))
            got = uz.values / u0.values
            err = float(np.max(np.abs(got - expected)))
            rows.append((mode, err))
        _write_csv(out, outputs, "phase_errors.csv", "mode,max_abs_error", rows)
        facts["max_phase_error"] = float(np.max([err for _, err in rows]))   # NaN propagates

    partition_rows = []
    snapshots = []
    u0 = _mixed_mode_datum(grid, medium, aperture)
    e0 = oneway.energy_partition(spectral.forward(u0), medium, aperture)
    partition_rows.append((0.0,) + e0)
    spectral.write_field(os.path.join(out, "snapshot_0000.tslb"), u0)
    snapshots.append("snapshot_0000.tslb")

    def observe(k, zk, c):
        # coefficients in; only a snapshot takes the inverse transform
        partition_rows.append((zk,) + oneway.energy_partition(c, medium, aperture))
        if k % cfg.snapshot_every == 0:
            name = f"snapshot_{k:04d}.tslb"
            spectral.write_field(os.path.join(out, name), spectral.inverse(c))
            snapshots.append(name)

    oneway.downward_continue(medium, aperture, u0, cfg.Z, cfg.n_slabs,
                             damping_scale=cfg.damping_scale,
                             delta_max=cfg.delta_max, observer=observe)
    _write_csv(out, outputs, "energy_partition.csv",
               "depth,energy_inside_theta1,energy_between,energy_outside_theta2",
               partition_rows)
    outputs += snapshots
    timings["continuation"] = time.perf_counter() - t0

    eZ = partition_rows[-1][1:]         # the observer's split at the last slab, z = Z
    if e0[2] > 0.0:
        facts["suppression"] = e0[2] / max(eZ[2], 1e-300)
    if e0[0] > 0.0:
        facts["inside_change"] = abs(eZ[0] / e0[0] - 1.0)
    try:
        oneway.validate_medium(medium, grid.axis_points(), [0.0, cfg.Z])
        bounds = ("medium-bounds", True, "sampled speed within declared bounds")
    except oneway.MediumError as exc:
        bounds = ("medium-bounds", False, str(exc))
    _write_properties(out, outputs, "thinslab.properties", [bounds])
    return facts


def _recorded(cfg: ExperimentConfig, body) -> int:
    """Call body(out, timings, outputs) and leave a manifest; return the exit code.

    A gate violation, or a configuration the library rejects, ends the run
    with its status and exit code; any other exception is recorded as status
    "error" and re-raised.  An output directory that cannot be written
    raises ConfigError before anything is recorded.
    """
    out = cfg.output_dir
    try:
        os.makedirs(out, exist_ok=True)
        probe = os.path.join(out, ".write-probe")
        with open(probe, "w") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as exc:
        raise ConfigError(f"output directory {out!r} is not writable: {exc}")
    timings = {}
    outputs = []
    status, error, code = "error", None, EXIT_OK
    propagator.reset_counts()
    started = time.perf_counter()
    try:
        body(out, timings, outputs)
        status = "ok"
    except GateViolation as exc:
        status, error, code = "gate-violation", str(exc), EXIT_GATE
    except (ConfigError, spectral.GridError, ansatz.SubdivisionError,
            propagator.SlabError, propagator.ContractViolation, propagator.MatrixSizeError,
            oneway.BandLimitError, oneway.MediumError, oneway.ApertureError) as exc:
        status, error, code = "config-error", str(exc), EXIT_CONFIG
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        timings["total"] = time.perf_counter() - started
        _write_json(os.path.join(out, "manifest.json"), {
            "version": __version__,
            "scenario": cfg.scenario,
            "config": config_echo(cfg),
            "status": status,
            "error": error,
            "timings": {k: round(v, 6) for k, v in timings.items()},
            "counters": {**propagator.counters, **symbols.counters, **spectral.counters},
            "outputs": sorted(outputs),
        })
    return code


def run(cfg: ExperimentConfig) -> int:
    """Execute one scenario; always leaves a manifest in the output dir."""
    entry = get_scenario(cfg.scenario)
    experiment = _run_evolution if entry.kind == "evolution" else _run_oneway

    def body(out, timings, outputs):
        violations = _check_gates(entry, experiment(cfg, out, timings, outputs))
        if violations:
            raise GateViolation("; ".join(violations))

    return _recorded(cfg, body)


def record_rejection(scenario: str, layers, rejection: ConfigError) -> tuple:
    """Record settings that resolve_config rejected as a config-error run.

    The run goes to the output directory the settings name, else to the
    scenario's default one; its config echo holds every setting that parses.
    Returns (output directory, exit code).  The rejection itself is raised
    when no manifest can be written: for an unknown scenario without an
    output directory, or for a directory that cannot be written.
    """
    cfg = _layered(_scenario_config(scenario), layers, strict=False)
    if not cfg.output_dir:
        raise rejection

    def body(out, timings, outputs):
        raise rejection

    try:
        return cfg.output_dir, _recorded(cfg, body)
    except ConfigError:
        raise rejection from None


# ---------------------------------------------------------------------------
# quick self-check


def quick_check(output_dir: str, seed: int | str = 0) -> int:
    """Fast library self-check; writes properties.xml + manifest, returns exit code.

    It shares ``run``'s recorded path: a failed case exits 4, a seed that
    does not parse or is negative exits 2 with a config-error manifest, and
    an output directory that cannot be written raises ConfigError.
    """
    cfg = _layered(ExperimentConfig(scenario="check", output_dir=output_dir),
                   ({"seed": seed},), strict=False)

    def body(out, timings, outputs):
        if _coerce("seed", seed) < 0:
            raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
        grid = Grid(64, 2.0 * np.pi)
        u, round_trip, family = _shared_cases(grid, cfg.seed)
        cases = [round_trip]

        w = spectral.apply_weight(u, 1.5)
        iso = abs(spectral.sobolev_norm(w, -0.5) - spectral.sobolev_norm(u, 1.0))
        cases.append(("weight-isometry", iso < 1e-12 * spectral.sobolev_norm(u, 1.0),
                      f"defect {iso:.3e}"))

        spec = symbols.get_symbol("translation")
        u0 = spectral.wave_packet(grid)
        sub = Subdivision(1.0, 16)
        moved = ansatz.apply_ansatz(spec, sub, u0, variant=Averaged())
        exact = propagator.exact_multiplier_evolution(spec, 0.0, 1.0, u0)
        drift = np.linalg.norm(moved.values - exact.values) / np.linalg.norm(u0.values)
        cases.append(("multiplier-exactness", drift < 1e-10, f"relative error {drift:.3e}"))

        ok_all = True
        for trial in range(20):
            q, _ = symbols.random_nonneg_order1(np.random.default_rng(cfg.seed + trial))
            rep = symbols.check_PL(q)
            ok_all = ok_all and rep.passed
        cases.append(("nonneg-symbol-derivative-bound", ok_all,
                      "20 random nonnegative order-1 symbols within the L=2 bound"))
        cases.append(family)
        _write_properties(out, outputs, "thinslab.check", cases)

    return _recorded(cfg, body)
