"""First-order symbols: evaluation, slab averages, seminorms, class checkers.

A symbol here is the full right-hand-side coefficient of the evolution
``(d/dz + a(z, x, D_x)) u = 0`` split into four real-valued parts,

    a(z, x, xi) = -i*(b1 + b0) + (c1 + c0),

with ``b1`` the real principal phase part, ``c1 >= 0`` the principal
damping, and ``b0``, ``c0`` bounded subprincipal parts.  ``b1`` and ``c1``
of canned symbols are positively homogeneous of degree one in xi outside a
cutoff radius; homogeneity near xi = 0 is mollified by the smoothed modulus
:func:`smoothed_abs`, which vanishes for |xi| <= 1/4 and equals |xi| for
|xi| >= 1.

The module also provides the analysis tools used by the test batteries:

* finite-difference estimates of weighted symbol seminorms
  ``sup (1+|xi|)^(-m + rho*|beta| - delta*|alpha|) |d_x^alpha d_xi^beta a|``,
* a checker for the derivative-vs-decay inequality satisfied by any
  bounded nonnegative first-order symbol (the square-root/Landau bound,
  with exponents parameterized by L),
* a checker that the exponential family exp(-Delta*q) stays bounded in the
  rough class S^0_(1-1/L) uniformly in the slab thickness Delta,
* a registry of named, canned symbol specs consumed by the harness.

Evaluators are numpy-vectorized callables ``f(z, x, xi)`` with scalar z;
``x`` and ``xi`` broadcast (arrays for 1-d symbols, tuples of arrays in 2-d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss


class EvaluationError(ValueError):
    """A symbol component produced non-finite values."""


class LatticeError(ValueError):
    """The sampling lattice for a seminorm estimate is degenerate."""


class PreconditionError(ValueError):
    """A checker precondition (such as q >= 0) is violated."""


# ---------------------------------------------------------------------------
# z-regularity tags


@dataclass(frozen=True)
class ZRegularity:
    kind: str                  # "continuous" | "lipschitz" | "hoelder"
    alpha: float | None = None

    def __post_init__(self):
        if self.kind not in ("continuous", "lipschitz", "hoelder"):
            raise ValueError(f"unknown z-regularity kind {self.kind!r}")
        if self.kind == "hoelder":
            if self.alpha is None or not (0.0 < self.alpha < 1.0):
                raise ValueError("hoelder regularity needs alpha in (0, 1)")

    def tag(self) -> str:
        if self.kind == "hoelder":
            return f"hoelder({self.alpha:g})"
        return self.kind


CONTINUOUS = ZRegularity("continuous")
LIPSCHITZ = ZRegularity("lipschitz")


def hoelder(alpha: float) -> ZRegularity:
    return ZRegularity("hoelder", alpha)


def _coordinate_shape(x, xi):
    """Broadcast shape of the coordinates' components (tuples in 2-d)."""
    parts = (x if isinstance(x, tuple) else (x,)) + (xi if isinstance(xi, tuple) else (xi,))
    return np.broadcast_shapes(*(np.shape(p) for p in parts))


def _zero(z, x, xi):
    return np.zeros(_coordinate_shape(x, xi))


@dataclass(frozen=True)
class SymbolSpec:
    """Bundle of the four component evaluators plus structural metadata.

    ``x_independent`` marks multiplier symbols (exact evolution available),
    ``z_independent`` marks symbols constant in the evolution variable, and
    ``z_bandwidth`` bounds the angular frequency of the z-dependence so
    slab averages can pick an adequate quadrature order automatically.
    ``homogeneity_cutoff`` is the radius beyond which b1 and c1 scale
    linearly in xi; ``inf`` means no homogeneity in xi alone is claimed.
    """

    b1: Callable = _zero
    b0: Callable = _zero
    c1: Callable = _zero
    c0: Callable = _zero
    z_regularity: ZRegularity = CONTINUOUS
    homogeneity_cutoff: float = 1.0
    x_independent: bool = False
    z_independent: bool = False
    z_bandwidth: float = 0.0

    def __post_init__(self):
        if not (self.homogeneity_cutoff >= 1.0):
            raise ValueError("homogeneity_cutoff must be >= 1")


_COMPONENTS = ("b1", "b0", "c1", "c0")


def eval_symbol(spec: SymbolSpec, z: float, x, xi) -> np.ndarray:
    """Evaluate a = -i*(b1+b0) + (c1+c0) on broadcastable coordinates.

    The result is a fresh complex table shaped like the broadcast of the
    coordinate components (tuples in 2-d).  Components left at the zero
    default are not evaluated.  The set ones are evaluated before the table
    is allocated, so the memory their temporaries free is reused for it.
    """
    parts = [(name, getattr(spec, name)(z, x, xi)) for name in _COMPONENTS
             if getattr(spec, name) is not _zero]
    out = np.zeros(_coordinate_shape(x, xi), dtype=np.complex128)
    for name, value in parts:
        if name in ("c1", "c0"):
            out.real += value
        else:
            out.imag -= value
    if not np.isfinite(out).all():
        for name, value in parts:
            if not np.all(np.isfinite(value)):
                raise EvaluationError(f"symbol component {name!r} returned non-finite values")
        raise EvaluationError("symbol evaluation returned non-finite values")
    return out


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    return leggauss(order)


def averaged_symbol(spec: SymbolSpec, z0: float, z1: float, x, xi,
                    quadrature_order: int = 4) -> np.ndarray:
    """Slab mean (1/(z1-z0)) * int_z0^z1 a(s, x, xi) ds by Gauss-Legendre.

    Exact for z-dependence polynomial of degree < 2*quadrature_order.  It
    always evaluates the symbol at every node; the slab propagator skips it
    for z-independent symbols and evaluates them once instead.
    """
    if not (z1 > z0):
        raise ValueError(f"slab [{z0}, {z1}] must have positive thickness")
    if quadrature_order < 1:
        raise ValueError("quadrature_order must be >= 1")
    nodes, weights = _gl_nodes(quadrature_order)
    mid, half = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
    acc = None
    for t, w in zip(nodes, weights):
        val = eval_symbol(spec, mid + half * t, x, xi)
        val *= 0.5 * w
        if acc is None:
            acc = val
        else:
            acc += val
    return acc


def recommended_quadrature_order(spec: SymbolSpec, thickness: float) -> int:
    """Gauss-Legendre order resolving the symbol's z-oscillation on a slab.

    4 + ceil(z_bandwidth * thickness / 2) nodes, capped at 1024; four for a
    symbol that declares no z-bandwidth.
    """
    if spec.z_bandwidth <= 0.0:
        return 4
    return min(1024, 4 + int(math.ceil(0.5 * spec.z_bandwidth * thickness)))


# ---------------------------------------------------------------------------
# smoothed modulus and z-modulation helpers


def _smoothstep(t):
    """C^2 quintic ramp: 0 at t<=0, 1 at t>=1, zero 1st/2nd derivatives there."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def _smoothstep_d(t):
    t = np.clip(t, 0.0, 1.0)
    return 30.0 * t * t * (t - 1.0) ** 2


def smoothed_abs(xi):
    """|xi| flattened to 0 below 1/4 and exactly |xi| above 1 (C^2 ramp)."""
    r = np.abs(xi)
    t = (r - 0.25) / 0.75
    return _smoothstep(t) * r


def smoothed_abs_d(xi):
    """d/dxi of :func:`smoothed_abs` (odd in xi); used by test oracles."""
    r = np.abs(xi)
    t = (r - 0.25) / 0.75
    dr = _smoothstep(t) + r * _smoothstep_d(t) / 0.75
    return np.sign(xi) * dr


WEIERSTRASS_TERMS = 10


def weierstrass(z, alpha: float):
    """Truncated lacunary cosine series sum_k 2^(-alpha k) cos(2^k pi z).

    With the truncation at ``WEIERSTRASS_TERMS`` the sum is smooth but
    behaves like an alpha-Hoelder function down to scale 2^-WEIERSTRASS_TERMS;
    its largest angular frequency is :func:`weierstrass_bandwidth`.
    """
    z = np.asarray(z, dtype=float)
    acc = np.zeros_like(z)
    for k in range(WEIERSTRASS_TERMS + 1):
        acc = acc + 2.0 ** (-alpha * k) * np.cos((2.0 ** k) * np.pi * z)
    return acc


def weierstrass_bandwidth() -> float:
    return (2.0 ** WEIERSTRASS_TERMS) * np.pi


# ---------------------------------------------------------------------------
# sampling lattice and finite-difference derivatives


@dataclass(frozen=True)
class LatticeSpec:
    """Sampling lattice for seminorm estimates on (x, xi) in R x R.

    x covers one period uniformly; |xi| is sampled log-spaced up to xi_max
    (plus xi = 0) with both signs.  Finite-difference steps: fd_step_x
    absolute in x, fd_step_xi relative (step = fd_step_xi * (1 + |xi|)).
    """

    x_count: int = 64
    x_span: float = 2.0 * np.pi
    xi_count: int = 64
    xi_max: float = 64.0
    xi_floor: float = 1.0 / 16.0
    signed_xi: bool = True
    fd_step_x: float = 1e-4
    fd_step_xi: float = 1e-4

    def __post_init__(self):
        if self.x_count < 5 or self.xi_count < 5:
            raise LatticeError("lattice needs at least 5 points per axis")
        if not (0.0 < self.xi_floor < self.xi_max):
            raise LatticeError("need 0 < xi_floor < xi_max")
        if not (self.x_span > 0.0):
            raise LatticeError("x_span must be positive")

    def build(self):
        """Return broadcastable (X, XI) arrays, X of shape (nx,1), XI (1,nxi)."""
        x = np.linspace(0.0, self.x_span, self.x_count, endpoint=False)
        mags = np.geomspace(self.xi_floor, self.xi_max, self.xi_count - 1)
        xi = np.concatenate(([0.0], mags))
        if self.signed_xi:
            xi = np.concatenate((-mags[::-1], xi))
        return x[:, None], np.sort(xi)[None, :]


_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def lattice_derivative(evaluator, X, XI, alpha: int, beta: int,
                       step_x: float, step_xi: float) -> np.ndarray:
    """Central-difference estimate of d_x^alpha d_xi^beta evaluator on a lattice.

    The xi step is relative, h = step_xi * (1 + |xi|), pointwise on the
    lattice, which keeps the estimate scale-aware for order-one symbols.
    """
    if alpha not in _STENCILS or beta not in _STENCILS:
        raise ValueError("derivative orders are limited to 0..4")
    h_xi = step_xi * (1.0 + np.abs(XI))
    acc = None
    for ox, cx in _STENCILS[alpha]:
        for oxi, cxi in _STENCILS[beta]:
            term = cx * cxi * np.asarray(
                evaluator(X + ox * step_x, XI + oxi * h_xi), dtype=float)
            acc = term if acc is None else acc + term
    scale = (step_x ** alpha) * (h_xi ** beta)
    return acc / scale


@dataclass(frozen=True)
class SeminormEstimate:
    """One weighted-derivative sup taken over a finite lattice."""

    alpha: int
    beta: int
    m: float
    rho: float
    delta: float
    value: float
    lattice: LatticeSpec


def estimate_seminorm(evaluator, alpha: int, beta: int, m: float,
                      rho: float = 1.0, delta: float = 0.0,
                      lattice: LatticeSpec = LatticeSpec()) -> SeminormEstimate:
    """Estimate sup (1+|xi|)^(-m+rho*beta-delta*alpha) |d^alpha_x d^beta_xi a|.

    ``evaluator`` is a z-frozen callable f(x, xi).  The sup is over the
    lattice only; it is a lower bound of the true seminorm that the tests
    treat as the measured value.
    """
    X, XI = lattice.build()
    deriv = lattice_derivative(evaluator, X, XI, alpha, beta,
                               lattice.fd_step_x, lattice.fd_step_xi)
    weight = (1.0 + np.abs(XI)) ** (-m + rho * beta - delta * alpha)
    value = float(np.max(np.abs(deriv) * weight))
    return SeminormEstimate(alpha, beta, m, rho, delta, value, lattice)


# ---------------------------------------------------------------------------
# derivative-vs-decay checker for nonnegative first-order symbols


@dataclass(frozen=True)
class PLReport:
    worst_ratio: float
    passed: bool
    ratios: dict
    c_max: float
    order: int


def check_PL(q_evaluator, L: float = 2.0, lattice: LatticeSpec = LatticeSpec(),
             max_order: int = 2, c_max: float = 50.0) -> PLReport:
    """Check the derivative bound for nonnegative symbols of order one.

    For every |alpha|+|beta| <= max_order the ratio

        |d_x^alpha d_xi^beta q| /
            [ (1+|xi|)^(-|beta| + (|alpha|+|beta|)/L) * (1+q)^(1-(|alpha|+|beta|)/L) ]

    is bounded on the lattice; passed = worst ratio <= c_max.  Any smooth
    nonnegative symbol with bounded first-order seminorms satisfies this
    with L = 2 by the square-root bound for nonnegative functions.

    q must be nonnegative on the lattice (checked up to -1e-12 roundoff).
    """
    if max_order > 3:
        raise ValueError("max_order is limited to 3")
    X, XI = lattice.build()
    Q = np.asarray(q_evaluator(X, XI), dtype=float)
    if np.min(Q) < -1e-12:
        raise PreconditionError("P_L requires q >= 0")
    Q = np.maximum(Q, 0.0)
    ratios = {}
    worst = 0.0
    for a in range(max_order + 1):
        for b in range(max_order + 1 - a):
            k = a + b
            deriv = lattice_derivative(q_evaluator, X, XI, a, b,
                                       lattice.fd_step_x, lattice.fd_step_xi)
            bound = ((1.0 + np.abs(XI)) ** (-b + k / L)
                     * (1.0 + Q) ** (1.0 - k / L))
            r = float(np.max(np.abs(deriv) / bound))
            ratios[(a, b)] = r
            worst = max(worst, r)
    return PLReport(worst, worst <= c_max, ratios, c_max, max_order)


@dataclass(frozen=True)
class QLReport:
    deltas: tuple
    sup_seminorms: dict
    uniform: bool
    rho: float
    delta_exponent: float
    uniform_factor: float


def check_QL_family(q_evaluator, L: float = 2.0, deltas=(0.0, 1e-3, 1e-2, 0.1, 1.0),
                    lattice: LatticeSpec = LatticeSpec(),
                    uniform_factor: float = 10.0, max_order: int = 2) -> QLReport:
    """Check exp(-Delta*q) is bounded in S^0_rho (rho = 1-1/L) uniformly in Delta.

    For each Delta the weighted seminorms of rho_Delta = exp(-Delta*q) are
    estimated with weights (1+|xi|)^(rho*|beta| - |alpha|/L); the family is
    flagged uniform when, for every derivative order, the max over the
    Delta list stays within ``uniform_factor`` of the estimate at the
    largest Delta.  Run :func:`check_PL` on q first; here only q >= 0 is
    re-checked (needed anyway so the exponential stays bounded).
    """
    deltas = tuple(float(d) for d in deltas)
    if not deltas:
        raise ValueError("deltas must be non-empty")
    if any(d < 0 for d in deltas):
        raise ValueError("deltas must be nonnegative")
    X, XI = lattice.build()
    Q = np.asarray(q_evaluator(X, XI), dtype=float)
    if np.min(Q) < -1e-12:
        raise PreconditionError("P_L requires q >= 0")
    rho = 1.0 - 1.0 / L
    dex = 1.0 / L
    sup = {(a, b): [] for a in range(max_order + 1)
           for b in range(max_order + 1 - a)}
    for d in deltas:
        def rho_delta(x, xi, _d=d):
            return np.exp(-_d * np.maximum(np.asarray(q_evaluator(x, xi), dtype=float), 0.0))
        for (a, b) in sup:
            est = estimate_seminorm(rho_delta, a, b, m=0.0, rho=rho, delta=dex,
                                    lattice=lattice)
            sup[(a, b)].append(est.value)
    d_anchor = int(np.argmax(deltas))
    uniform = True
    for vals in sup.values():
        anchor = vals[d_anchor]
        if max(vals) > uniform_factor * anchor + 1e-12:
            uniform = False
    return QLReport(deltas, sup, uniform, rho, dex, uniform_factor)


# ---------------------------------------------------------------------------
# canned symbol registry


_HOELDER_NORMALIZER = 3.5   # bounds |weierstrass(z, 1/2)| for the canned modulation


def _make_translation(period: float) -> SymbolSpec:
    return SymbolSpec(
        b1=lambda z, x, xi: np.broadcast_to(np.asarray(xi, float), np.broadcast(x, xi).shape),
        z_regularity=LIPSCHITZ, x_independent=True, z_independent=True)


def _make_halfwave(period: float) -> SymbolSpec:
    return SymbolSpec(
        b1=lambda z, x, xi: np.broadcast_to(smoothed_abs(xi), np.broadcast(x, xi).shape),
        c0=lambda z, x, xi: np.full(np.broadcast(x, xi).shape, 0.25),
        z_regularity=LIPSCHITZ, x_independent=True, z_independent=True)


def _make_damped(period: float) -> SymbolSpec:
    return SymbolSpec(
        c1=lambda z, x, xi: np.broadcast_to(smoothed_abs(xi), np.broadcast(x, xi).shape),
        z_regularity=LIPSCHITZ, x_independent=True, z_independent=True)


def _make_varspeed(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    return SymbolSpec(
        b1=lambda z, x, xi: (1.0 + 0.3 * np.cos(w0 * np.asarray(x, float))) * xi,
        z_regularity=LIPSCHITZ, z_independent=True)


def _make_varspeed_z(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    return SymbolSpec(
        b1=lambda z, x, xi: (1.0 + 0.3 * np.cos(w0 * np.asarray(x, float)))
                            * (1.0 + 0.5 * z) * xi,
        z_regularity=LIPSCHITZ, z_bandwidth=1.0)


def _make_damped_varspeed(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    return SymbolSpec(
        b1=lambda z, x, xi: (1.0 + 0.3 * np.cos(w0 * np.asarray(x, float))) * xi,
        c1=lambda z, x, xi: 0.3 * (1.0 + 0.5 * np.sin(w0 * np.asarray(x, float)))
                            * smoothed_abs(xi),
        z_regularity=LIPSCHITZ, z_independent=True)


def _make_hoelder_z(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    alpha = 0.5

    def b1(z, x, xi):
        g = weierstrass(z, alpha) / _HOELDER_NORMALIZER
        return (1.0 + 0.3 * g * np.cos(w0 * np.asarray(x, float))) * xi

    return SymbolSpec(b1=b1, z_regularity=hoelder(alpha),
                      z_bandwidth=weierstrass_bandwidth())


def _make_oneway_bplus(period: float) -> SymbolSpec:
    from . import oneway
    medium = oneway.homogeneous_medium()
    aperture = oneway.ApertureConfig(theta1=np.pi / 12, theta2=np.pi * 50 / 180, tau=32.0)
    return oneway.oneway_symbol_spec(medium, aperture, damping_scale=0.0)


_REGISTRY = {
    "translation": ("constant drift, b1 = xi", _make_translation),
    "halfwave": ("half-wave multiplier |xi| with constant absorption 1/4", _make_halfwave),
    "damped": ("pure damping multiplier c1 = |xi|", _make_damped),
    "varspeed": ("variable speed b1 = (1+0.3 cos)xi", _make_varspeed),
    "varspeed-z": ("variable speed with linear z drift", _make_varspeed_z),
    "damped-varspeed": ("variable speed plus variable damping", _make_damped_varspeed),
    "hoelder-z": ("variable speed with rough (Hoelder 1/2) z modulation", _make_hoelder_z),
    "oneway-bplus": ("one-way vertical slowness symbol, homogeneous medium", _make_oneway_bplus),
}


def available_symbols():
    """Registered names in stable (insertion) order."""
    return list(_REGISTRY)


def get_symbol(name: str, period: float = 2.0 * np.pi) -> SymbolSpec:
    """Instantiate a canned symbol for the given spatial period."""
    try:
        _, factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown symbol {name!r}; available: {', '.join(_REGISTRY)}")
    return factory(period)


def random_nonneg_order1(rng: np.random.Generator, amp=(0.2, 1.5), freq=(0.5, 2.0)):
    """Random nonnegative order-one symbol a*(1+sin(w*x+phi))*|xi|_sm.

    Touches zero along curves, which exercises the Landau regime of the
    derivative-vs-decay bound.  Returns (evaluator, params).
    """
    a = rng.uniform(*amp)
    w = rng.uniform(*freq)
    phi = rng.uniform(0.0, 2.0 * np.pi)

    def q(x, xi):
        return a * (1.0 + np.sin(w * np.asarray(x, float) + phi)) * smoothed_abs(xi)

    return q, {"amp": a, "freq": w, "phase": phi}
