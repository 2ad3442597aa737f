"""Multi-slab composition and its empirical convergence machinery.

The composed propagator over [0, Z] with a constant-step subdivision
0 = z_0 < z_1 < ... < z_N = Z applies one thin slab per interval; an
intermediate depth z gets all full slabs up to the last z_k <= z and one
partial slab [z_k, z].  Convergence studies compare the composition at
z = Z against a reference (the exact multiplier evolution when the symbol
is x-independent, otherwise a fine-step composition with slab-averaged
symbols) and fit a log-log rate.  The residual probe measures how far the
composition is from solving the evolution equation by combining a centered
z-difference with a discrete application of the generator.

Energy bookkeeping, error normalization, and the CSV/JSON serialization of
study reports live here as well; numbers are written with 17 significant
digits so identical runs produce identical bytes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import propagator, spectral
from .propagator import Averaged, Frozen, SlabSpec, DELTA_MAX_DEFAULT
from .spectral import Field
from .symbols import SymbolSpec

_BOUNDARY_TOL = 1e-12


class SubdivisionError(ValueError):
    """Invalid depth subdivision (step size, ordering, or a too-coarse reference)."""


class PositionError(ValueError):
    """The requested depth is too close to a slab boundary for the probe."""


@dataclass(frozen=True)
class Subdivision:
    """Constant-step subdivision of [0, Z] into n_slabs slabs."""

    Z: float
    n_slabs: int
    delta_max: float = DELTA_MAX_DEFAULT

    def __post_init__(self):
        if not (self.Z > 0.0 and np.isfinite(self.Z)):
            raise SubdivisionError(f"Z must be positive, got {self.Z}")
        if self.n_slabs < 1:
            raise SubdivisionError(f"n_slabs must be >= 1, got {self.n_slabs}")
        if self.step > self.delta_max * (1.0 + 1e-12):
            raise SubdivisionError(
                f"step {self.step:g} exceeds delta_max {self.delta_max:g}")

    @property
    def step(self) -> float:
        return self.Z / self.n_slabs

    def points(self) -> np.ndarray:
        pts = np.linspace(0.0, self.Z, self.n_slabs + 1)
        # linspace is exact at the ends; interior points are constant-step
        # to roundoff, which is all the validation contract asks for.
        steps = np.diff(pts)
        if np.max(np.abs(steps - self.step)) > 1e-14 * max(1.0, self.Z):
            raise SubdivisionError("subdivision is not constant-step")
        return pts


def _split_depth(sub: Subdivision, z: float):
    """Number of full slabs below z, plus the partial remainder (or 0.0)."""
    if not (0.0 <= z <= sub.Z * (1.0 + 1e-12)):
        raise PositionError(f"z = {z} outside [0, {sub.Z}]")
    z = min(z, sub.Z)
    k = int(math.floor(z / sub.step + _BOUNDARY_TOL))
    k = min(k, sub.n_slabs)
    rem = z - k * sub.step
    if rem <= _BOUNDARY_TOL * max(1.0, sub.Z):
        rem = 0.0
    return k, rem


def apply_ansatz(spec: SymbolSpec, sub: Subdivision, u0: Field, z: float | None = None,
                 variant: object = Frozen(), observer=None) -> Field:
    """Compose thin slabs from depth 0 to z (default: all the way to Z).

    ``observer(k, z_k, field)`` is called after each full slab, which the
    stability checks use to record norms along the way.  A z exactly on a
    subdivision point gets no partial slab.
    """
    if z is None:
        z = sub.Z
    k_full, rem = _split_depth(sub, z)
    u = u0
    step = sub.step
    for k in range(k_full):
        slab = SlabSpec(k * step, (k + 1) * step, spec, variant, sub.delta_max)
        u = propagator.apply_slab(slab, u)
        if observer is not None:
            observer(k + 1, (k + 1) * step, u)
    if rem > 0.0:
        slab = SlabSpec(k_full * step, k_full * step + rem, spec, variant, sub.delta_max)
        u = propagator.apply_slab(slab, u)
    return u


# ---------------------------------------------------------------------------
# references


@dataclass(frozen=True)
class ExactMultiplier:
    """Reference by exact multiplier evolution (x-independent symbols only).

    The z-integral uses the Gauss-Legendre order that
    :func:`thinslab.symbols.recommended_quadrature_order` picks.
    """


@dataclass(frozen=True)
class FineStep:
    """Reference by a fine constant-step composition with slab-averaged symbols."""

    n_ref: int


def reference_solution(spec: SymbolSpec, u0: Field, z: float, mode,
                       delta_max: float = DELTA_MAX_DEFAULT) -> Field:
    """Evaluate the configured reference at depth z."""
    if isinstance(mode, ExactMultiplier):
        return propagator.exact_multiplier_evolution(spec, 0.0, z, u0)
    if isinstance(mode, FineStep):
        if mode.n_ref < 1:
            raise ValueError("FineStep needs n_ref >= 1")
        sub = Subdivision(z, mode.n_ref, delta_max)
        return apply_ansatz(spec, sub, u0, variant=Averaged())
    raise TypeError(f"unknown reference mode {mode!r}")


def _reference_kind(mode) -> str:
    if isinstance(mode, ExactMultiplier):
        return "exact-multiplier"
    return f"fine-step:{mode.n_ref}"


# ---------------------------------------------------------------------------
# residual probe


def residual_norm(spec: SymbolSpec, sub: Subdivision, u0: Field, z: float, s: float,
                  variant: object = Frozen(), h_z: float | None = None) -> float:
    """H^s norm of (d/dz + a(z, x, D_x)) applied to the composed propagator at z.

    The z-derivative is a centered difference with step h_z (default
    step/64); z must sit at least h_z inside a slab so all three
    evaluations share the same slab prefix.
    """
    if h_z is None:
        h_z = sub.step / 64.0
    k = int(math.floor(z / sub.step))
    dist = min(abs(z - kk * sub.step) for kk in (k, k + 1))
    if dist < h_z:
        raise PositionError(
            f"z = {z:g} is within h_z = {h_z:g} of a slab boundary")
    k_full, _ = _split_depth(sub, z)
    prefix = apply_ansatz(spec, sub, u0, z=k_full * sub.step, variant=variant)
    z_bot = k_full * sub.step

    def partial(z_to: float) -> Field:
        slab = SlabSpec(z_bot, z_to, spec, variant, sub.delta_max)
        return propagator.apply_slab(slab, prefix)

    u_minus, u_mid, u_plus = partial(z - h_z), partial(z), partial(z + h_z)
    dz = (u_plus.values - u_minus.values) / (2.0 * h_z)
    au = propagator.apply_symbol_operator(spec, z, u_mid)
    return spectral.sobolev_norm(Field(u0.grid, dz + au.values), s)


# ---------------------------------------------------------------------------
# convergence studies


EXACT_THRESHOLD = 1e-10


@dataclass
class ConvergenceReport:
    """Outcome of one convergence study at fixed Sobolev index."""

    s: float
    Z: float
    Ns: tuple
    deltas: tuple
    errors: tuple                # raw H^s errors at z = Z
    normalized_errors: tuple     # divided by the H^(s+1) norm of u0
    fitted_slope: float          # nan when flagged exact
    fit_residual: float
    reference_kind: str
    exact: bool
    dropped_coarsest: bool
    reference_cross_check: float | None
    u0_norm: float


def _fit_slope(deltas, errors):
    logd = np.log(np.asarray(deltas))
    loge = np.log(np.asarray(errors))
    slope, intercept = np.polyfit(logd, loge, 1)
    resid = float(np.sqrt(np.mean((loge - (slope * logd + intercept)) ** 2)))
    return float(slope), resid


def convergence_study(spec: SymbolSpec, u0: Field, s: float, Ns, variant,
                      reference, Z: float = 1.0,
                      delta_max: float = DELTA_MAX_DEFAULT) -> ConvergenceReport:
    """Error of the composed propagator at z = Z against a reference, per N.

    Errors are H^s norms normalized by the H^(s+1) norm of the datum.  The
    log-log slope is fit by least squares; if the fit residual exceeds 0.1
    the two coarsest subdivisions are dropped once and the fit repeated
    (recorded in the report).  When every normalized error is below 1e-10
    the study is flagged exact and no slope is fit.  A fine-step reference
    must use at least 8x the largest study N and is cross-checked against
    its own half-resolution run.
    """
    Ns = tuple(int(n) for n in Ns)
    if len(Ns) < 1 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise SubdivisionError("Ns must be non-empty and strictly increasing")
    if isinstance(reference, FineStep) and reference.n_ref < 8 * max(Ns):
        raise SubdivisionError(
            f"fine-step reference n_ref = {reference.n_ref} must be >= 8x "
            f"the largest study N ({max(Ns)})")

    u_ref = reference_solution(spec, u0, Z, reference, delta_max)
    cross = None
    if isinstance(reference, FineStep):
        half = reference_solution(spec, u0, Z, FineStep(reference.n_ref // 2), delta_max)
        cross = spectral.sobolev_norm(
            Field(u0.grid, u_ref.values - half.values), s)

    def run_one(n):
        sub = Subdivision(Z, n, delta_max)
        u = apply_ansatz(spec, sub, u0, variant=variant)
        return spectral.sobolev_norm(Field(u0.grid, u.values - u_ref.values), s)

    errors = tuple(run_one(n) for n in Ns)
    u0_norm = spectral.sobolev_norm(u0, s + 1.0)
    normalized = tuple(e / u0_norm for e in errors)
    if cross is not None:
        cross = cross / u0_norm
    deltas = tuple(Z / n for n in Ns)

    exact = all(e < EXACT_THRESHOLD for e in normalized)
    dropped = False
    if exact or len(Ns) < 2:
        slope, resid = float("nan"), 0.0
    else:
        slope, resid = _fit_slope(deltas, normalized)
        if resid > 0.1 and len(Ns) >= 4:
            slope, resid = _fit_slope(deltas[:-2], normalized[:-2])
            dropped = True
    return ConvergenceReport(
        s=s, Z=Z, Ns=Ns, deltas=deltas, errors=errors,
        normalized_errors=normalized, fitted_slope=slope, fit_residual=resid,
        reference_kind=_reference_kind(reference), exact=exact,
        dropped_coarsest=dropped, reference_cross_check=cross, u0_norm=u0_norm)


@dataclass
class UniformBoundReport:
    """Sup of norm amplification over subdivisions, depths and data."""

    s: float
    Ns: tuple
    per_n: tuple        # sup ratio for each subdivision
    sup_ratio: float


def uniform_bound_check(spec: SymbolSpec, u0_family, s: float, Ns, Z: float = 1.0,
                        variant: object = Frozen(),
                        delta_max: float = DELTA_MAX_DEFAULT) -> UniformBoundReport:
    """sup_(N, z_k, u0) ||W u0||_(H^s) / ||u0||_(H^s) over slab endpoints.

    The stability estimate makes this sup bounded independently of N; the
    tests assert the per-N values barely move across subdivisions.
    """
    Ns = tuple(int(n) for n in Ns)
    per_n = []
    for n in Ns:
        sub = Subdivision(Z, n, delta_max)
        worst = 0.0
        for u0 in u0_family:
            denom = spectral.sobolev_norm(u0, s)
            ratios = []

            def observe(k, zk, field):
                ratios.append(spectral.sobolev_norm(field, s) / denom)

            apply_ansatz(spec, sub, u0, variant=variant, observer=observe)
            worst = max(worst, max(ratios))
        per_n.append(worst)
    return UniformBoundReport(s=s, Ns=Ns, per_n=tuple(per_n),
                              sup_ratio=max(per_n))


# ---------------------------------------------------------------------------
# report serialization


def write_report_csv(path, report: ConvergenceReport) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("N,delta,error_Hs,normalized_error\n")
        for n, d, e, ne in zip(report.Ns, report.deltas, report.errors,
                               report.normalized_errors):
            fh.write(f"{n},{d:.17g},{e:.17g},{ne:.17g}\n")


def report_summary(report: ConvergenceReport, config_echo: dict | None = None) -> dict:
    summary = {
        "s": report.s,
        "Z": report.Z,
        "Ns": list(report.Ns),
        "deltas": list(report.deltas),
        "errors": list(report.errors),
        "normalized_errors": list(report.normalized_errors),
        "fitted_slope": None if math.isnan(report.fitted_slope) else report.fitted_slope,
        "fit_residual": report.fit_residual,
        "reference_kind": report.reference_kind,
        "exact": report.exact,
        "dropped_coarsest": report.dropped_coarsest,
        "reference_cross_check": report.reference_cross_check,
        "u0_norm": report.u0_norm,
    }
    if config_echo is not None:
        summary["config"] = dict(sorted(config_echo.items()))
    return summary


def write_report_json(path, report: ConvergenceReport, config_echo: dict | None = None) -> None:
    with open(path, "w") as fh:
        json.dump(report_summary(report, config_echo), fh, indent=2, sort_keys=True)
        fh.write("\n")
