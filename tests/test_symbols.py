"""Symbol evaluation, slab averaging, seminorm machinery, and the registry."""

import numpy as np
import pytest

from thinslab import symbols
from thinslab.symbols import (
    EvaluationError, LatticeSpec, PreconditionError, SymbolSpec, available_symbols,
    averaged_symbol, check_PL, check_QL_family, estimate_seminorm, eval_symbol,
    get_symbol, lattice_derivative, random_nonneg_order1, recommended_quadrature_order,
    smoothed_abs, smoothed_abs_d, weierstrass, weierstrass_bandwidth,
)

X = np.linspace(0.0, 2 * np.pi, 17)[:-1][:, None]
XI = np.linspace(-40.0, 40.0, 33)[None, :]


def shaped(z, x, xi):
    return np.ones(np.broadcast(x, xi).shape)


def test_eval_combines_components():
    spec = SymbolSpec(
        b1=lambda z, x, xi: xi * shaped(z, x, xi),
        b0=lambda z, x, xi: 2.0 * shaped(z, x, xi),
        c1=lambda z, x, xi: np.abs(xi) * shaped(z, x, xi),
        c0=lambda z, x, xi: 0.5 * shaped(z, x, xi),
    )
    a = eval_symbol(spec, 0.0, X, XI)
    expected = -1j * (XI + 2.0) + (np.abs(XI) + 0.5)
    assert np.max(np.abs(a - expected * np.ones_like(a))) < 1e-14


def test_eval_rejects_nonfinite():
    spec = SymbolSpec(b1=lambda z, x, xi: np.full(np.broadcast(x, xi).shape, np.nan))
    with pytest.raises(EvaluationError) as err:
        eval_symbol(spec, 0.0, X, XI)
    assert "b1" in str(err.value)


def test_averaged_symbol_quadratic():
    # mean of z^2 over [0,1] is 1/3
    spec = SymbolSpec(b1=lambda z, x, xi: z * z * xi * shaped(z, x, xi))
    a = averaged_symbol(spec, 0.0, 1.0, X, XI)
    expected = -1j * XI / 3.0 * np.ones(np.broadcast(X, XI).shape)
    assert np.max(np.abs(a - expected)) < 1e-14


def test_averaged_symbol_polynomial_exact():
    # Gauss-Legendre with 4 nodes integrates degree-7 polynomials exactly
    spec = SymbolSpec(c1=lambda z, x, xi: (z ** 7 + z ** 3) * shaped(z, x, xi))
    a = averaged_symbol(spec, 0.0, 1.0, X, XI, quadrature_order=4)
    assert np.max(np.abs(a - (1.0 / 8.0 + 1.0 / 4.0))) < 1e-14


def test_averaged_symbol_orders_validation():
    spec = SymbolSpec()
    with pytest.raises(ValueError):
        averaged_symbol(spec, 1.0, 1.0, X, XI)
    with pytest.raises(ValueError):
        averaged_symbol(spec, 0.0, 1.0, X, XI, quadrature_order=0)


def test_recommended_order_scales_with_bandwidth():
    calm = SymbolSpec()
    assert recommended_quadrature_order(calm, 0.125) == 4
    rough = SymbolSpec(z_bandwidth=weierstrass_bandwidth())
    assert recommended_quadrature_order(rough, 0.125) > 100
    assert recommended_quadrature_order(rough, 100.0) == 1024  # capped


def test_smoothed_abs_properties():
    xi = np.linspace(-80, 80, 4001)
    v = smoothed_abs(xi)
    assert np.all(v >= 0)
    big = np.abs(xi) >= 1.0
    assert np.max(np.abs(v[big] - np.abs(xi)[big])) == 0.0
    small = np.abs(xi) <= 0.25
    assert np.max(v[small]) == 0.0
    # analytic derivative matches finite differences in the blend zone
    h = 1e-6
    mid = np.linspace(0.26, 0.99, 200)
    fd = (smoothed_abs(mid + h) - smoothed_abs(mid - h)) / (2 * h)
    assert np.max(np.abs(fd - smoothed_abs_d(mid))) < 1e-8


def test_weierstrass_values_and_bandwidth():
    # partial sum evaluated directly as the oracle
    for z in (0.0, 0.3, 0.77):
        expected = sum(2.0 ** (-0.5 * k) * np.cos(2.0 ** k * np.pi * z)
                       for k in range(11))
        assert abs(weierstrass(z, 0.5) - expected) < 1e-13
    assert weierstrass_bandwidth() == 2.0 ** 10 * np.pi


def test_weierstrass_hoelder_bound():
    # |W(z1)-W(z2)| <= C |z1-z2|^alpha with C = sum 2^(-alpha k) (pi 2^k)^alpha ... bounded
    # empirical check against the triangle-inequality constant
    rng = np.random.default_rng(7)
    alpha = 0.5
    C = sum(2.0 ** (-alpha * k) * min(2.0, (np.pi * 2.0 ** k) ** alpha * 1.0)
            for k in range(11))
    for _ in range(200):
        z1, z2 = rng.uniform(0, 1, 2)
        lhs = abs(weierstrass(z1, alpha) - weierstrass(z2, alpha))
        assert lhs <= (C + 2.0) * abs(z1 - z2) ** alpha + 1e-12


def test_lattice_derivative_trig():
    spec = LatticeSpec()
    Xl, XIl = spec.build()

    def f(x, xi):
        return np.sin(x) * (1.0 + np.abs(xi))

    d10 = lattice_derivative(f, Xl, XIl, 1, 0, spec.fd_step_x, spec.fd_step_xi)
    expected = np.cos(Xl) * (1.0 + np.abs(XIl))
    assert np.max(np.abs(d10 - expected) / (1.0 + np.abs(XIl))) < 1e-7


def test_lattice_derivative_polynomial_xi():
    spec = LatticeSpec()
    Xl, XIl = spec.build()

    def f(x, xi):
        return xi ** 2 * np.ones(np.broadcast(x, xi).shape)

    d01 = lattice_derivative(f, Xl, XIl, 0, 1, spec.fd_step_x, spec.fd_step_xi)
    rel = np.abs(d01 - 2.0 * XIl) / (1.0 + np.abs(XIl))
    assert np.max(rel) < 1e-6


def test_lattice_derivative_constant_is_zero():
    spec = LatticeSpec()
    Xl, XIl = spec.build()
    d = lattice_derivative(lambda x, xi: 3.0 * np.ones(np.broadcast(x, xi).shape),
                           Xl, XIl, 1, 1, spec.fd_step_x, spec.fd_step_xi)
    assert np.max(np.abs(d)) < 1e-8


def test_estimate_seminorm_order_one():
    # f = sin(x)(1+|xi|): the (1,0) seminorm at m=1 is sup|cos x| = 1
    est = estimate_seminorm(lambda x, xi: np.sin(x) * (1.0 + np.abs(xi)),
                            alpha=1, beta=0, m=1)
    assert abs(est.value - 1.0) < 1e-6


def test_estimate_seminorm_xi_derivative():
    # f = xi: (0,1) derivative is 1; weight (1+|xi|)^(-1+1) = 1
    est = estimate_seminorm(lambda x, xi: xi * np.ones(np.broadcast(x, xi).shape),
                            alpha=0, beta=1, m=1)
    assert abs(est.value - 1.0) < 1e-6


def test_lattice_spec_validation():
    with pytest.raises(ValueError):
        LatticeSpec(x_count=3)
    with pytest.raises(ValueError):
        LatticeSpec(xi_count=2)


def test_check_PL_zero_symbol():
    rep = check_PL(lambda x, xi: np.zeros(np.broadcast(x, xi).shape), L=2.0)
    assert rep.passed
    assert rep.worst_ratio == 0.0


def test_check_PL_degenerate_minimum():
    # vanishes at x = 0 yet satisfies the square-root bound
    def q(x, xi):
        return (1.0 - np.cos(x)) * smoothed_abs(xi)

    rep = check_PL(q, L=2.0)
    assert rep.passed
    assert rep.worst_ratio < 50.0


def test_check_PL_rejects_negative():
    with pytest.raises(PreconditionError) as err:
        check_PL(lambda x, xi: -np.ones(np.broadcast(x, xi).shape), L=2.0)
    assert "q >= 0" in str(err.value)


def test_check_PL_max_order_limit():
    with pytest.raises(ValueError):
        check_PL(lambda x, xi: np.zeros(np.broadcast(x, xi).shape), max_order=4)


def test_check_QL_uniform_for_smoothed_abs():
    rep = check_QL_family(lambda x, xi: smoothed_abs(xi)
                          * np.ones(np.broadcast(x, xi).shape))
    assert rep.uniform
    assert rep.deltas == (0.0, 1e-3, 1e-2, 0.1, 1.0)


def test_check_QL_frozen_seminorm_against_scan():
    # at Delta=1 the (0,1) seminorm of exp(-|xi|_sm) in the rho=1/2 class:
    # sup (1+|xi|)^(1/2) |d/dxi exp(-|xi|_sm)| computed by direct dense scan
    lat = LatticeSpec()
    rep = check_QL_family(lambda x, xi: smoothed_abs(xi)
                          * np.ones(np.broadcast(x, xi).shape), lattice=lat)
    xi = np.linspace(-lat.xi_max, lat.xi_max, 400001)
    scan = np.max((1.0 + np.abs(xi)) ** 0.5
                  * np.abs(smoothed_abs_d(xi)) * np.exp(-smoothed_abs(xi)))
    idx = rep.deltas.index(1.0)
    got = rep.sup_seminorms[(0, 1)][idx]
    assert abs(got - scan) < 5e-3 * scan


def test_registry_contents():
    names = available_symbols()
    assert names[0] == "translation"
    assert set(names) >= {"translation", "halfwave", "damped", "varspeed",
                          "varspeed-z", "damped-varspeed", "hoelder-z"}
    with pytest.raises(KeyError) as err:
        get_symbol("missing")
    assert "translation" in str(err.value)


def test_registry_x_independence_flags():
    xa = np.array([[0.5], [2.5]])
    xi = np.linspace(-30, 30, 11)[None, :]
    for name in available_symbols():
        spec = get_symbol(name)
        a = eval_symbol(spec, 0.25, xa, xi)
        if spec.x_independent:
            assert np.max(np.abs(a[0] - a[1])) < 1e-13
    varspeed = get_symbol("varspeed")
    a = eval_symbol(varspeed, 0.25, xa, xi)
    assert np.max(np.abs(a[0] - a[1])) > 1e-3


def test_registry_z_independence_flags():
    xa = np.array([[0.5], [2.5]])
    xi = np.linspace(-30, 30, 11)[None, :]
    for name in available_symbols():
        spec = get_symbol(name)
        a0 = eval_symbol(spec, 0.1, xa, xi)
        a1 = eval_symbol(spec, 0.9, xa, xi)
        if spec.z_independent:
            assert np.max(np.abs(a0 - a1)) < 1e-13
        if name in ("varspeed-z", "hoelder-z"):
            assert np.max(np.abs(a0 - a1)) > 1e-3


def test_registry_homogeneity_beyond_cutoff():
    # principal parts are 1-homogeneous in xi above the smoothing cutoff
    xa = np.array([[1.3]])
    xi = np.array([[2.0, 5.0, 17.0]])
    for name in ("translation", "halfwave", "varspeed", "damped"):
        spec = get_symbol(name)
        lam = 3.0
        a1 = spec.b1(0.2, xa, lam * xi) + 1j * 0
        a2 = lam * (spec.b1(0.2, xa, xi) + 1j * 0)
        assert np.max(np.abs(a1 - a2)) < 1e-12 * lam * np.max(np.abs(xi))
        if name == "damped":
            c1 = spec.c1(0.2, xa, lam * xi)
            c2 = lam * spec.c1(0.2, xa, xi)
            assert np.max(np.abs(c1 - c2)) < 1e-12 * lam * np.max(np.abs(xi))


def test_random_nonneg_family_bounds():
    for seed in range(30):
        q, params = random_nonneg_order1(np.random.default_rng(seed))
        xa = np.linspace(0, 2 * np.pi, 13)[:, None]
        xi = np.linspace(-50, 50, 21)[None, :]
        vals = q(xa, xi)
        assert np.min(vals) >= 0.0
        assert 0.2 <= params["amp"] <= 1.5
        assert 0.5 <= params["freq"] <= 2.0
