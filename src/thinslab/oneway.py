"""One-way acoustic downward continuation built on the thin-slab machinery.

For a laterally varying sound speed c(x, z) and a fixed time-harmonic
frequency tau, the downgoing one-way equation is

    (d/dz - i b_+(z, x, D_x) + c_1(z, x, D_x)) v = 0,

where b_+ = sqrt(c^-2 tau^2 - |xi|^2) is the vertical slowness times tau
inside the propagating cone and c_1 >= 0 is an angular damping that
switches on between two apertures theta1 < theta2 measured from vertical.
Both symbols are positively homogeneous of degree one jointly in (tau, xi).

Outside the propagating cone the square root is floored at (mu*tau)^2 with
mu = cos(theta2)/4 and blended with a C^2 spline, so b_+ stays real,
smooth, and of order at most one; the damping ramp is the unique quintic
with vanishing first and second derivatives at both ends, evaluated on
|c xi / tau| between sin(theta1) and sin(theta2).

The propagating/damped regions are x-dependent; for energy bookkeeping the
spectral bins use conservative speeds: a mode counts as inside theta1 only
if it is inside for the fastest medium value, and outside theta2 only if it
is outside for the slowest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import ansatz, spectral, symbols
from .ansatz import DELTA_MAX_DEFAULT, Subdivision
from .spectral import Field, SpectralField
from .symbols import SymbolSpec


class MediumError(ValueError):
    """Medium bounds are inconsistent or violated on samples."""


class ApertureError(ValueError):
    """Invalid aperture configuration."""


class BandLimitError(ValueError):
    """Input data carries energy at or beyond the evanescent threshold."""


@dataclass(frozen=True)
class AcousticMedium:
    """Sound speed with declared bounds, the only medium property the symbols use.

    ``c`` is a callable (x, z) -> positive values; ``c_bounds`` are
    declared, and :func:`validate_medium` spot-checks them on samples.
    ``x_independent`` and ``z_independent`` declare that the speed is
    constant in x or in z; the one-way symbol spec inherits both flags.
    """

    c: Callable
    c_bounds: tuple
    x_independent: bool = False
    z_independent: bool = False

    def __post_init__(self):
        c0, c1 = self.c_bounds
        if not (0.0 < c0 <= c1):
            raise MediumError(f"need 0 < c_min <= c_max, got {self.c_bounds}")


def homogeneous_medium() -> AcousticMedium:
    """Unit speed everywhere."""
    return AcousticMedium(
        c=lambda x, z: np.full(np.shape(x) or (), 1.0, dtype=float),
        c_bounds=(1.0, 1.0), x_independent=True, z_independent=True)


def lens_medium(period: float = 2.0 * np.pi) -> AcousticMedium:
    """Smooth lateral lens c(x) = 1 + 0.1 * cos(2 pi x / period)."""
    w0 = 2.0 * np.pi / period
    return AcousticMedium(
        c=lambda x, z: 1.0 + 0.1 * np.cos(w0 * np.asarray(x, float)),
        c_bounds=(0.9, 1.1),
        z_independent=True)


def validate_medium(medium: AcousticMedium, x_samples, z_samples) -> None:
    """Spot-check the declared speed bounds on a sample lattice."""
    tol = 1e-9
    for z in np.atleast_1d(z_samples):
        c = np.asarray(medium.c(np.asarray(x_samples, float), z), dtype=float)
        if not (np.min(c) >= medium.c_bounds[0] - tol and np.max(c) <= medium.c_bounds[1] + tol):
            raise MediumError("sampled speed violates the declared bounds")


@dataclass(frozen=True)
class ApertureConfig:
    """Damping apertures (radians from vertical) and time-harmonic frequency."""

    theta1: float
    theta2: float
    tau: float

    def __post_init__(self):
        if not (0.0 < self.theta1 < self.theta2 < np.pi / 2.0):
            raise ApertureError(
                f"need 0 < theta1 < theta2 < pi/2, got {self.theta1}, {self.theta2}")
        if self.tau == 0.0 or not np.isfinite(self.tau):
            raise ApertureError("tau must be nonzero and finite")


def _in_place(ufunc, values):
    """ufunc(values), written over ``values`` when it is an array."""
    return ufunc(values, out=values if isinstance(values, np.ndarray) else None)


def bplus_joint(medium: AcousticMedium, aperture: ApertureConfig):
    """The vertical symbol as a function of (z, x, tau, xi), jointly degree one.

    sqrt(floor * (1 + u * smoothstep(u))), u = (disc - floor) / floor: the
    discriminant disc = (tau / c)^2 - xi^2 lifted by a C^2 soft positive
    part (0 for u <= 0, u for u >= 1) onto the floor (mu tau)^2.  Each
    operation is taken in that order, in place in the discriminant's table
    and the ramp's.
    """
    mu = np.cos(aperture.theta2) / 4.0

    def b(z, x, tau, xi):
        c = np.asarray(medium.c(x, z), dtype=float)
        floor = (mu * tau) ** 2
        u = (tau / c) ** 2 - np.asarray(xi, dtype=float) ** 2
        u -= floor
        u /= floor
        root = symbols._smoothstep(u)
        root *= u
        root += 1.0
        root *= floor
        return _in_place(np.sqrt, root)

    return b


def build_bplus(medium: AcousticMedium, aperture: ApertureConfig):
    """b1 evaluator (z, x, xi) at the aperture's fixed tau.

    Equals sqrt((tau/c)^2 - xi^2) wherever the discriminant clears twice
    the floor (mu tau)^2, in particular on the whole aperture cone; decays
    smoothly to the constant floor mu*|tau| in the evanescent region.
    """
    joint = bplus_joint(medium, aperture)
    tau = aperture.tau

    def b1(z, x, xi):
        return joint(z, x, tau, xi)

    return b1


def build_damping(medium: AcousticMedium, aperture: ApertureConfig, scale: float = 2.0):
    """c1 evaluator: scale * |tau| * quintic ramp in |c xi / tau|.

    Zero inside the theta1 cone, equal to scale*|tau| outside theta2, C^2
    throughout; nonnegative for scale >= 0.
    """
    if scale < 0.0:
        raise ValueError("damping scale must be nonnegative")
    s1, s2 = np.sin(aperture.theta1), np.sin(aperture.theta2)
    tau = aperture.tau

    def c1(z, x, xi):
        # (|c xi / tau| - s1) / (s2 - s1), in place in one table
        t = np.asarray(medium.c(x, z), dtype=float) * np.asarray(xi, dtype=float)
        t /= tau
        t = _in_place(np.abs, t)
        t -= s1
        t /= s2 - s1
        ramp = symbols._smoothstep(t)
        ramp *= scale * abs(tau)
        return ramp

    return c1


def oneway_symbol_spec(medium: AcousticMedium, aperture: ApertureConfig,
                       damping_scale: float = 2.0) -> SymbolSpec:
    """Assemble a = -i b_+ + c_1 as a symbol spec for the slab machinery.

    The spec inherits the medium's x- and z-independence flags.  At fixed
    tau these symbols are bounded in xi rather than homogeneous; the
    degree-one scaling holds jointly in (tau, xi) and is checked by the
    tests through :func:`bplus_joint`.
    """
    return SymbolSpec(
        b1=build_bplus(medium, aperture),
        c1=build_damping(medium, aperture, damping_scale),
        x_independent=medium.x_independent,
        z_independent=medium.z_independent)


# ---------------------------------------------------------------------------
# spectral energy bookkeeping


def partition_bins(grid: spectral.Grid, medium: AcousticMedium,
                   aperture: ApertureConfig):
    """Boolean masks (inside theta1, between, outside theta2) on the lattice.

    Conservative in x: inside uses the fastest speed, outside the slowest,
    so each bin's label is valid for every lateral position.
    """
    c_min, c_max = medium.c_bounds
    mag = np.sqrt(spectral.xi_squared(grid))
    tau = abs(aperture.tau)
    inside = mag <= np.sin(aperture.theta1) * tau / c_max
    outside = mag > np.sin(aperture.theta2) * tau / c_min
    between = ~inside & ~outside
    return inside, between, outside


def energy_partition(c: SpectralField, medium: AcousticMedium,
                     aperture: ApertureConfig):
    """Spectral energy split (inside, between, outside) of coefficients against the apertures."""
    power = np.abs(c.coeffs) ** 2
    ins, bet, out = partition_bins(c.grid, medium, aperture)
    return float(power[ins].sum()), float(power[bet].sum()), float(power[out].sum())


def check_band_limit(u0: Field, medium: AcousticMedium, aperture: ApertureConfig) -> None:
    """Require u0's energy to sit inside |xi| < 0.98 |tau| / c_max.

    More than 1e-10 of the energy at or beyond that cutoff raises
    :class:`BandLimitError`.
    """
    c_max = medium.c_bounds[1]
    cutoff = 0.98 * abs(aperture.tau) / c_max
    coeffs = spectral.forward(u0).coeffs
    beyond = np.sqrt(spectral.xi_squared(u0.grid)) >= cutoff
    total = float(np.sum(np.abs(coeffs) ** 2))
    bad = float(np.sum(np.abs(coeffs[beyond]) ** 2))
    if total > 0.0 and bad > 1e-10 * total:
        raise BandLimitError(
            f"datum has energy fraction {bad / total:.3e} at |xi| >= {cutoff:g} "
            "(evanescent threshold)")


def downward_continue(medium: AcousticMedium, aperture: ApertureConfig, u0: Field,
                      Z: float, n_slabs: int, damping_scale: float = 2.0,
                      delta_max: float = DELTA_MAX_DEFAULT,
                      observer=None) -> Field:
    """March u0 down through [0, Z] with the frozen one-way thin-slab composition.

    ``observer`` is :func:`thinslab.ansatz.apply_ansatz`'s: it gets the
    Fourier coefficients after each full slab.
    """
    check_band_limit(u0, medium, aperture)
    spec = oneway_symbol_spec(medium, aperture, damping_scale)
    sub = Subdivision(Z, n_slabs, delta_max)
    return ansatz.apply_ansatz(spec, sub, u0, observer=observer)
