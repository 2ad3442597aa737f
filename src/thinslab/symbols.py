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

The module also provides the analysis tools used by the test batteries,
all sampled on one fixed (x, xi) lattice built at import:

* finite-difference estimates of weighted symbol seminorms
  ``sup (1+|xi|)^(-m + rho*|beta| - delta*|alpha|) |d_x^alpha d_xi^beta a|``,
* a checker for the derivative-vs-decay inequality satisfied by any
  bounded nonnegative first-order symbol (the square-root/Landau bound,
  with L = 2),
* a checker that the exponential family exp(-Delta*q) stays bounded in the
  rough class S^0_(1/2) uniformly in the slab thickness Delta,
* a registry of named, canned symbol specs consumed by the harness.

Evaluators are numpy-vectorized callables ``f(z, x, xi)`` with scalar z, or
the scalar ``z_profile(z)`` for a spec that declares one; ``x`` and ``xi``
broadcast (arrays for 1-d symbols, tuples of arrays in 2-d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss


class EvaluationError(ValueError):
    """A symbol component failed: non-finite values, or coordinates it does not take."""


class PreconditionError(ValueError):
    """A checker precondition (such as q >= 0) is violated."""


def _coordinate_shape(x, xi):
    """Broadcast shape of the coordinates' components (tuples in 2-d)."""
    parts = (x if isinstance(x, tuple) else (x,)) + (xi if isinstance(xi, tuple) else (xi,))
    return np.broadcast_shapes(*(np.shape(p) for p in parts))


def _zero(z, x, xi):
    return np.zeros(_coordinate_shape(x, xi))


@dataclass(frozen=True)
class SymbolSpec:
    """The four component evaluators and the four declarations the slab code reads.

    ``x_independent`` marks multiplier symbols (exact evolution available),
    ``z_independent`` marks symbols constant in the evolution variable, and
    ``z_bandwidth`` bounds the angular frequency of the z-dependence so
    slab averages can pick an adequate quadrature order automatically.
    ``z_profile``, when set, is a vectorized real function p(z): the
    components then take the scalar p = z_profile(z) in place of z and must
    be affine in p, so that the slab mean of the symbol is the symbol at the
    slab mean of p.  The propagator keeps a slab's band coefficients per
    thickness and tile [2k - 1, 2k + 1] of p, so a profile kept in [-1, 1],
    as the registry's are, keeps each thickness in one band cell.
    """

    b1: Callable = _zero
    b0: Callable = _zero
    c1: Callable = _zero
    c0: Callable = _zero
    x_independent: bool = False
    z_independent: bool = False
    z_bandwidth: float = 0.0
    z_profile: Callable | None = None


_COMPONENTS = ("b1", "b0", "c1", "c0")


def component_argument(spec: SymbolSpec, z):
    """What the components take at depth z: ``z_profile(z)`` when declared, else z.

    z may be an array of depths; a profile value that is not finite raises
    EvaluationError.
    """
    if spec.z_profile is None:
        return z
    p = spec.z_profile(z)
    if not np.isfinite(p).all():
        raise EvaluationError("z_profile returned non-finite values")
    return p


def eval_symbol(spec: SymbolSpec, z: float, x, xi) -> np.ndarray:
    """Evaluate a = -i*(b1+b0) + (c1+c0) on broadcastable coordinates.

    The result is a fresh complex table shaped like the broadcast of the
    coordinate components (tuples in 2-d).  The components take
    :func:`component_argument` of z.  Components left at the zero
    default are not evaluated.  The set ones are evaluated before the table
    is allocated, so the memory their temporaries free is reused for it.
    """
    return argument_table(spec, component_argument(spec, z), x, xi)


def slab_argument(spec: SymbolSpec, z0: float, z1: float | None = None,
                  quadrature_order: int | None = None):
    """The one scalar p that a slab's table depends on, or None when there is none.

    With ``z1`` None the slab is frozen at z0; otherwise its symbol is the
    slab mean over [z0, z1], at ``quadrature_order`` (None takes
    :func:`recommended_quadrature_order`).  A z-independent spec has one
    table at every depth, so every slab takes p = 0.  A spec with a
    ``z_profile`` takes p = z_profile(z0) frozen, and the mean of p averaged:
    one vectorized profile call over the Gauss-Legendre nodes, the weighted
    values summed in node order.  Its components are affine in p, so its
    slab mean is its table at that p.  Any other spec returns None: its
    table depends on the depth through more than one scalar.
    """
    if spec.z_independent:
        return 0.0
    if spec.z_profile is None:
        return None
    if z1 is None:
        return float(component_argument(spec, z0))
    if quadrature_order is None:
        quadrature_order = recommended_quadrature_order(spec, z1 - z0)
    nodes, weights = _gl_nodes(quadrature_order)
    p = component_argument(spec, 0.5 * (z0 + z1) + 0.5 * (z1 - z0) * nodes)
    return float(np.cumsum(0.5 * weights * p)[-1])


# tables built by argument_table since the last propagator.reset_counts: one per
# eval_symbol call, Gauss nodes of a slab mean included, and one per table
# taken at a slab argument p (a z-profiled slab mean, a slab or a cell node)
counters = {"symbol_tables": 0}


def argument_table(spec: SymbolSpec, p, x, xi) -> np.ndarray:
    """The symbol table of :func:`eval_symbol` with the components at argument p.

    A component that raises ValueError on these coordinates, or returns a
    value that does not broadcast to their shape (a 1-d component given the
    coordinate tuples of a 2-d grid), raises EvaluationError naming the
    component and the grid dimension.
    """
    counters["symbol_tables"] += 1
    shape = _coordinate_shape(x, xi)
    dim = len(x) if isinstance(x, tuple) else 1
    parts = []
    for name in _COMPONENTS:
        component = getattr(spec, name)
        if component is _zero:
            continue
        try:
            value = component(p, x, xi)
            if np.shape(value) != shape:
                np.broadcast_to(value, shape)       # raises ValueError unless it broadcasts
        except ValueError as exc:
            raise EvaluationError(f"symbol component {name!r} does not take the coordinates "
                                  f"of a {dim}-d grid (table shape {shape}): {exc}") from exc
        parts.append((name, value))
    out = np.zeros(shape, dtype=np.complex128)
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


MAX_QUADRATURE_ORDER = 1024   # leggauss builds an order x order companion matrix


@lru_cache(maxsize=32)
def _gl_nodes(order: int):
    return leggauss(order)


def check_quadrature_order(order: int) -> None:
    """Raise ValueError unless ``order`` is in 1..``MAX_QUADRATURE_ORDER``."""
    if not 1 <= order <= MAX_QUADRATURE_ORDER:
        raise ValueError(f"quadrature_order must be in 1..{MAX_QUADRATURE_ORDER}, got {order}")


def averaged_symbol(spec: SymbolSpec, z0: float, z1: float, x, xi,
                    quadrature_order: int | None = None) -> np.ndarray:
    """Slab mean (1/(z1-z0)) * int_z0^z1 a(s, x, xi) ds; the one reader of z-declarations.

    ``quadrature_order`` None takes :func:`recommended_quadrature_order`; any
    order must be in 1..``MAX_QUADRATURE_ORDER``, for every spec.  The
    Gauss-Legendre mean is exact for z-dependence polynomial of degree
    < 2*quadrature_order.

    A z-independent spec is its own mean, and a spec with a ``z_profile`` is
    affine in p = z_profile(z): either is its table at the
    :func:`slab_argument` of the slab (p = 0 for the first), one table.  For
    a profiled spec that differs from the node sum below by rounding only.
    Any other spec is the sum in node order of its :func:`eval_symbol`
    tables, each scaled by half the Gauss weight; :func:`eval_symbol` names
    a component that fails at a node, and a mean that overflows only in the
    sum raises a generic EvaluationError.
    """
    if not (z1 > z0):
        raise ValueError(f"slab [{z0}, {z1}] must have positive thickness")
    if quadrature_order is None:
        quadrature_order = recommended_quadrature_order(spec, z1 - z0)
    check_quadrature_order(quadrature_order)
    p = slab_argument(spec, z0, z1, quadrature_order)
    if p is not None:
        return argument_table(spec, p, x, xi)
    nodes, weights = _gl_nodes(quadrature_order)
    mid, half = 0.5 * (z0 + z1), 0.5 * (z1 - z0)
    mean = None
    for t, w in zip(nodes, weights):
        table = eval_symbol(spec, mid + half * t, x, xi)
        table *= 0.5 * w
        mean = table if mean is None else np.add(mean, table, out=mean)
    if not np.isfinite(mean).all():
        raise EvaluationError("slab mean of the symbol is not finite")
    return mean


def recommended_quadrature_order(spec: SymbolSpec, thickness: float) -> int:
    """Gauss-Legendre order resolving the symbol's z-oscillation on a slab.

    4 + ceil(z_bandwidth * thickness / 2) nodes, capped at
    ``MAX_QUADRATURE_ORDER``; four for a symbol that declares no z-bandwidth.
    """
    if spec.z_bandwidth <= 0.0:
        return 4
    return min(MAX_QUADRATURE_ORDER, 4 + int(math.ceil(0.5 * spec.z_bandwidth * thickness)))


# ---------------------------------------------------------------------------
# smoothed modulus and z-modulation helpers


def _smoothstep(t):
    """C^2 quintic ramp: 0 at t<=0, 1 at t>=1, zero 1st/2nd derivatives there."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smoothed_abs(xi):
    """|xi| flattened to 0 below 1/4 and exactly |xi| above 1 (C^2 ramp)."""
    r = np.abs(xi)
    t = (r - 0.25) / 0.75
    return _smoothstep(t) * r


WEIERSTRASS_TERMS = 10
_WEIERSTRASS_FREQUENCIES = np.array([2.0 ** k * np.pi for k in range(WEIERSTRASS_TERMS + 1)])


def weierstrass(z, alpha: float):
    """Truncated lacunary cosine series sum_k 2^(-alpha k) cos(2^k pi z).

    With the truncation at ``WEIERSTRASS_TERMS`` the sum is smooth but
    behaves like an alpha-Hoelder function down to scale 2^-WEIERSTRASS_TERMS;
    its largest angular frequency is :func:`weierstrass_bandwidth`.  All
    terms come from one ``cos`` over a trailing k axis; a cumulative sum adds
    them in order of k, so any z (scalar or array, of any shape) gets the
    value of the term-by-term loop bit for bit.
    """
    terms = np.cos(np.multiply.outer(np.asarray(z, dtype=float), _WEIERSTRASS_FREQUENCIES))
    terms *= _weierstrass_weights(alpha)
    return np.cumsum(terms, axis=-1).take(-1, axis=-1)


@lru_cache(maxsize=8)
def _weierstrass_weights(alpha: float) -> np.ndarray:
    """Read-only weights 2^(-alpha k), k = 0..``WEIERSTRASS_TERMS``."""
    # Python's pow: numpy's vectorized power can differ from it in the last bit
    weights = np.array([2.0 ** (-alpha * k) for k in range(WEIERSTRASS_TERMS + 1)])
    weights.flags.writeable = False
    return weights


def weierstrass_bandwidth() -> float:
    return (2.0 ** WEIERSTRASS_TERMS) * np.pi


# ---------------------------------------------------------------------------
# sampling lattice and finite-difference derivatives

# x covers one period in 64 uniform points; xi is 0 plus 63 log-spaced
# magnitudes from 1/16 to 64, with both signs (127 values).  The
# finite-difference step is 1e-4 in x and 1e-4 * (1 + |xi|) in xi.
LATTICE_X = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)[:, None]
_MAGS = np.geomspace(1.0 / 16.0, 64.0, 63)
LATTICE_XI = np.sort(np.concatenate((-_MAGS[::-1], [0.0], _MAGS)))[None, :]
LATTICE_X.setflags(write=False)
LATTICE_XI.setflags(write=False)
FD_STEP_X = 1e-4
FD_STEP_XI = 1e-4

# central differences of orders 0..CHECK_ORDER, all that the class checkers take
_STENCILS = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
}


def lattice_derivative(evaluator, alpha: int, beta: int) -> np.ndarray:
    """Central-difference estimate of d_x^alpha d_xi^beta evaluator on the lattice.

    The xi step is relative, h = FD_STEP_XI * (1 + |xi|), pointwise on the
    lattice, which keeps the estimate scale-aware for order-one symbols.
    """
    if alpha not in _STENCILS or beta not in _STENCILS:
        raise ValueError(f"derivative orders are limited to 0..{CHECK_ORDER}, "
                         "the order of the class checkers")
    h_xi = FD_STEP_XI * (1.0 + np.abs(LATTICE_XI))
    acc = None
    for ox, cx in _STENCILS[alpha]:
        for oxi, cxi in _STENCILS[beta]:
            term = cx * cxi * np.asarray(
                evaluator(LATTICE_X + ox * FD_STEP_X, LATTICE_XI + oxi * h_xi), dtype=float)
            acc = term if acc is None else acc + term
    scale = (FD_STEP_X ** alpha) * (h_xi ** beta)
    return acc / scale


def estimate_seminorm(evaluator, alpha: int, beta: int, m: float,
                      rho: float = 1.0, delta: float = 0.0) -> float:
    """Estimate sup (1+|xi|)^(-m+rho*beta-delta*alpha) |d^alpha_x d^beta_xi a|.

    ``evaluator`` is a z-frozen callable f(x, xi).  The sup is over the
    lattice only; it is a lower bound of the true seminorm that the tests
    treat as the measured value.
    """
    deriv = lattice_derivative(evaluator, alpha, beta)
    weight = (1.0 + np.abs(LATTICE_XI)) ** (-m + rho * beta - delta * alpha)
    return float(np.max(np.abs(deriv) * weight))


# ---------------------------------------------------------------------------
# class checkers for nonnegative first-order symbols

L_EXPONENT = 2.0            # the L of the P_L bound and of rho = 1 - 1/L
CHECK_ORDER = 2             # derivatives with |alpha| + |beta| <= CHECK_ORDER
RATIO_LIMIT = 50.0          # check_PL passes when the worst ratio is at most this
FAMILY_DELTAS = (0.0, 1e-3, 1e-2, 0.1, 1.0)   # ascending slab thicknesses
UNIFORM_LIMIT = 10.0        # allowed growth over the estimate at the largest Delta
_ORDERS = tuple((a, b) for a in range(CHECK_ORDER + 1) for b in range(CHECK_ORDER + 1 - a))


def _nonneg_on_lattice(q_evaluator) -> np.ndarray:
    """q on the lattice, required finite and >= 0 up to -1e-12 roundoff."""
    Q = np.asarray(q_evaluator(LATTICE_X, LATTICE_XI), dtype=float)
    if not np.isfinite(Q).all():
        raise EvaluationError("q returned non-finite values on the lattice")
    if np.min(Q) < -1e-12:
        raise PreconditionError("P_L requires q >= 0")
    return np.maximum(Q, 0.0)


@dataclass(frozen=True)
class PLReport:
    worst_ratio: float
    passed: bool


def check_PL(q_evaluator) -> PLReport:
    """Check the derivative bound for nonnegative symbols of order one.

    For every |alpha|+|beta| <= 2 the ratio

        |d_x^alpha d_xi^beta q| /
            [ (1+|xi|)^(-|beta| + (|alpha|+|beta|)/L) * (1+q)^(1-(|alpha|+|beta|)/L) ]

    with L = 2 is bounded on the fixed lattice; passed = worst ratio <= 50.
    Any smooth nonnegative symbol with bounded first-order seminorms
    satisfies this by the square-root bound for nonnegative functions.

    q must be finite and nonnegative on the lattice; a ratio that is not a
    number (q not finite at a finite-difference point) fails the check.
    """
    Q = _nonneg_on_lattice(q_evaluator)
    ratios = []
    for a, b in _ORDERS:
        k = a + b
        deriv = lattice_derivative(q_evaluator, a, b)
        bound = ((1.0 + np.abs(LATTICE_XI)) ** (-b + k / L_EXPONENT)
                 * (1.0 + Q) ** (1.0 - k / L_EXPONENT))
        ratios.append(np.max(np.abs(deriv) / bound))
    worst = float(np.max(ratios))
    return PLReport(worst, bool(worst <= RATIO_LIMIT))


@dataclass(frozen=True)
class QLReport:
    sup_seminorms: dict
    uniform: bool


def check_QL_family(q_evaluator) -> QLReport:
    """Check exp(-Delta*q) is bounded in S^0_rho (rho = 1-1/L) uniformly in Delta.

    With L = 2 and Delta over ``FAMILY_DELTAS``, the weighted seminorms of
    rho_Delta = exp(-Delta*q) are estimated on the fixed lattice with weights
    (1+|xi|)^(rho*|beta| - |alpha|/L) for |alpha|+|beta| <= 2.  The family is
    uniform when, for every derivative order, the max over the Deltas is at
    most 10 times the estimate at the largest Delta; an estimate that is not
    a number fails.  Run :func:`check_PL` on q first; here only that q is
    finite and nonnegative is re-checked (needed so the exponential stays
    bounded).
    """
    _nonneg_on_lattice(q_evaluator)
    rho = 1.0 - 1.0 / L_EXPONENT
    sup = {order: [] for order in _ORDERS}
    for d in FAMILY_DELTAS:
        def rho_delta(x, xi, _d=d):
            return np.exp(-_d * np.maximum(np.asarray(q_evaluator(x, xi), dtype=float), 0.0))
        for (a, b), vals in sup.items():
            vals.append(estimate_seminorm(rho_delta, a, b, m=0.0, rho=rho,
                                          delta=1.0 / L_EXPONENT))
    uniform = all(np.max(vals) <= UNIFORM_LIMIT * vals[-1] + 1e-12 for vals in sup.values())
    return QLReport(sup, bool(uniform))


# ---------------------------------------------------------------------------
# canned symbol registry


_HOELDER_NORMALIZER = 3.5   # bounds |weierstrass(z, 1/2)|, so the canned profile stays in [-1, 1]


def _make_translation(period: float) -> SymbolSpec:
    return SymbolSpec(
        b1=lambda z, x, xi: np.broadcast_to(np.asarray(xi, float), np.broadcast(x, xi).shape),
        x_independent=True, z_independent=True)


def _make_halfwave(period: float) -> SymbolSpec:
    return SymbolSpec(
        b1=lambda z, x, xi: np.broadcast_to(smoothed_abs(xi), np.broadcast(x, xi).shape),
        c0=lambda z, x, xi: np.full(np.broadcast(x, xi).shape, 0.25),
        x_independent=True, z_independent=True)


def _make_damped(period: float) -> SymbolSpec:
    return SymbolSpec(
        c1=lambda z, x, xi: np.broadcast_to(smoothed_abs(xi), np.broadcast(x, xi).shape),
        x_independent=True, z_independent=True)


def _make_varspeed(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    return SymbolSpec(
        b1=lambda z, x, xi: (1.0 + 0.3 * np.cos(w0 * np.asarray(x, float))) * xi,
        z_independent=True)


def _make_varspeed_z(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    return SymbolSpec(
        b1=lambda p, x, xi: (1.0 + 0.3 * np.cos(w0 * np.asarray(x, float)))
                            * (1.0 + 0.5 * p) * xi,
        z_bandwidth=1.0, z_profile=lambda z: z)


def _make_damped_varspeed(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    return SymbolSpec(
        b1=lambda z, x, xi: (1.0 + 0.3 * np.cos(w0 * np.asarray(x, float))) * xi,
        c1=lambda z, x, xi: 0.3 * (1.0 + 0.5 * np.sin(w0 * np.asarray(x, float)))
                            * smoothed_abs(xi),
        z_independent=True)


def _make_hoelder_z(period: float) -> SymbolSpec:
    w0 = 2.0 * np.pi / period
    return SymbolSpec(
        b1=lambda p, x, xi: (1.0 + 0.3 * p * np.cos(w0 * np.asarray(x, float))) * xi,
        z_bandwidth=weierstrass_bandwidth(),
        z_profile=lambda z: weierstrass(z, 0.5) / _HOELDER_NORMALIZER)


_REGISTRY = {
    "translation": _make_translation,
    "halfwave": _make_halfwave,
    "damped": _make_damped,
    "varspeed": _make_varspeed,
    "varspeed-z": _make_varspeed_z,
    "damped-varspeed": _make_damped_varspeed,
    "hoelder-z": _make_hoelder_z,
}


def available_symbols():
    """Registered names in stable (insertion) order."""
    return list(_REGISTRY)


def get_symbol(name: str, period: float = 2.0 * np.pi) -> SymbolSpec:
    """Instantiate a canned symbol for the given spatial period."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown symbol {name!r}; available: {', '.join(_REGISTRY)}")
    return factory(period)


def random_nonneg_order1(rng: np.random.Generator):
    """Random nonnegative order-one symbol a*(1+sin(w*x+phi))*|xi|_sm.

    a is drawn from [0.2, 1.5), w from [0.5, 2.0) and phi from [0, 2 pi).

    Touches zero along curves, which exercises the Landau regime of the
    derivative-vs-decay bound.  Returns (evaluator, params).
    """
    a = rng.uniform(0.2, 1.5)
    w = rng.uniform(0.5, 2.0)
    phi = rng.uniform(0.0, 2.0 * np.pi)

    def q(x, xi):
        return a * (1.0 + np.sin(w * np.asarray(x, float) + phi)) * smoothed_abs(xi)

    return q, {"amp": a, "freq": w, "phase": phi}
