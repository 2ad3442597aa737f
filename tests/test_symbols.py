"""Symbol evaluation, slab averaging, seminorm machinery, and the registry."""

import numpy as np
import pytest

from thinslab import symbols
from thinslab.spectral import Grid
from thinslab.symbols import (
    EvaluationError, PreconditionError, SymbolSpec, available_symbols,
    averaged_symbol, check_PL, check_QL_family, estimate_seminorm, eval_symbol,
    get_symbol, lattice_derivative, random_nonneg_order1, recommended_quadrature_order,
    smoothed_abs, weierstrass, weierstrass_bandwidth,
)

from conftest import node_mean

X = np.linspace(0.0, 2 * np.pi, 17)[:-1][:, None]
XI = np.linspace(-40.0, 40.0, 33)[None, :]


def smoothed_abs_d(xi):
    """d/dxi of the smoothed modulus (odd in xi), derived by hand as an oracle."""
    r = np.abs(xi)
    t = np.clip((r - 0.25) / 0.75, 0.0, 1.0)
    ramp = t * t * t * (t * (6.0 * t - 15.0) + 10.0)
    ramp_d = 30.0 * t * t * (t - 1.0) ** 2
    return np.sign(xi) * (ramp + r * ramp_d / 0.75)


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
    # two finite components whose sum overflows: no component is at fault
    big = np.finfo(float).max
    spec = SymbolSpec(c1=lambda z, x, xi: np.full(np.broadcast(x, xi).shape, big),
                      c0=lambda z, x, xi: np.full(np.broadcast(x, xi).shape, big))
    with np.errstate(over="ignore"), pytest.raises(EvaluationError) as err:
        eval_symbol(spec, 0.0, X, XI)
    assert str(err.value) == "symbol evaluation returned non-finite values"


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
    with pytest.raises(ValueError) as err:
        averaged_symbol(spec, 0.0, 1.0, X, XI, quadrature_order=1025)
    assert "1..1024" in str(err.value)


def _all_four_components():
    return SymbolSpec(
        b1=lambda z, x, xi: (1.0 + 0.3 * np.sin(3.0 * z + x)) * xi,
        b0=lambda z, x, xi: np.cos(z * x) + 0.0 * xi,
        c1=lambda z, x, xi: (1.0 + z) * smoothed_abs(xi) + 0.0 * x,
        c0=lambda z, x, xi: 0.1 * np.exp(z) + 0.0 * (x + xi),
        z_bandwidth=3.0)


def _two_dimensional_b1_only():
    def b1(z, x, xi):
        return (1.0 + 0.2 * np.cos(x[0] + z) * np.sin(x[1])) * (xi[0] + 0.5 * xi[1])

    return SymbolSpec(b1=b1, z_bandwidth=1.0)


@pytest.mark.parametrize("name", ["all-four", "2d-b1-only"])
def test_averaged_symbol_equals_node_mean_exactly(name):
    if name == "2d-b1-only":
        spec = _two_dimensional_b1_only()
        grid = Grid(8, 2 * np.pi, dim=2)
        x = tuple(m.ravel()[:, None] for m in grid.meshes())
        xi = tuple(m.ravel()[None, :] for m in grid.frequency_meshes())
    else:
        spec = _all_four_components()
        x, xi = X, XI
    for z0, z1 in ((0.0, 1.0 / 64.0), (0.3, 0.3 + 1.0 / 512.0), (0.1, 0.35)):
        order = recommended_quadrature_order(spec, z1 - z0)
        got = averaged_symbol(spec, z0, z1, x, xi, order)
        assert got.dtype == np.complex128
        assert np.array_equal(got, node_mean(spec, z0, z1, x, xi, order))


def _unprofiled(name, period=2 * np.pi):
    """The registered z-modulated symbols as plain functions of z, with no z_profile."""
    w0 = 2.0 * np.pi / period
    if name == "hoelder-z":
        def b1(z, x, xi):
            g = weierstrass(z, 0.5) / 3.5
            return (1.0 + 0.3 * g * np.cos(w0 * np.asarray(x, float))) * xi

        return SymbolSpec(b1=b1, z_bandwidth=weierstrass_bandwidth())
    return SymbolSpec(
        b1=lambda z, x, xi: (1.0 + 0.3 * np.cos(w0 * np.asarray(x, float)))
                            * (1.0 + 0.5 * z) * xi,
        z_bandwidth=1.0)


@pytest.mark.parametrize("name", ["hoelder-z", "varspeed-z"])
def test_profiled_frozen_table_equals_unprofiled_exactly(name):
    # the frozen slab, and so every norm_sweep value, is unchanged bit for bit
    for period in (2 * np.pi, 3.0):
        spec, plain = get_symbol(name, period), _unprofiled(name, period)
        assert spec.z_profile is not None
        for z in np.linspace(0.0, 1.0, 65):
            assert np.array_equal(eval_symbol(spec, z, X, XI), eval_symbol(plain, z, X, XI))


@pytest.mark.parametrize("name", ["hoelder-z", "varspeed-z"])
def test_profiled_mean_matches_unprofiled_node_mean(name):
    # one table at the mean of the profile: the node sum up to rounding
    spec, plain = get_symbol(name), _unprofiled(name)
    for k in range(3, 11):
        delta = 2.0 ** -k
        order = recommended_quadrature_order(spec, delta)
        for z0 in (0.0, 0.3, 0.77, 1.0 - delta):
            got = averaged_symbol(spec, z0, z0 + delta, X, XI, order)
            want = node_mean(plain, z0, z0 + delta, X, XI, order)
            assert got.dtype == np.complex128
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("name", available_symbols())
def test_array_slab_argument_is_bitwise_the_scalar_one(name):
    # a march takes the slab arguments of its full slabs from one call over
    # arrays of bottoms and tops: frozen slabs at any depths, averaged ones of
    # the march's one thickness at the default order, and slabs of any
    # thickness at a given order.  Each element is the p of that slab alone,
    # from one profile call for the whole array
    spec, step = get_symbol(name), 2.0 ** -7
    bottoms = np.linspace(0.0, 0.9, 41)
    tops = bottoms + np.geomspace(1e-3, 0.1, 41)
    cases = [(np.linspace(0.0, 1.0, 97), None, None),
             (np.arange(128) * step, np.arange(1, 129) * step, None),
             (bottoms, tops, 1), (bottoms, tops, 4)]
    for z0, z1, order in cases:
        want = [symbols.slab_argument(spec, a, None if z1 is None else b, order)
                for a, b in zip(z0.tolist(), z0.tolist() if z1 is None else z1.tolist())]
        assert all(isinstance(p, float) for p in want)
        symbols.counters["slab_arguments"] = 0
        got = symbols.slab_argument(spec, z0, z1, order)
        assert isinstance(got, np.ndarray)
        assert got.tobytes() == np.array(want).tobytes(), (name, order)
        assert symbols.counters["slab_arguments"] == (spec.z_profile is not None)
        if spec.z_independent:
            assert not got.any()


def test_array_slab_argument_needs_one_quadrature_order():
    # slabs of different thickness can take different default orders, which
    # one profile call over their nodes cannot; an unprofiled z-dependent spec
    # has no slab argument in either form
    spec, z0 = get_symbol("hoelder-z"), np.array([0.0, 0.5])
    with pytest.raises(ValueError, match="quadrature orders"):
        symbols.slab_argument(spec, z0, z0 + np.array([2.0 ** -9, 2.0 ** -3]))
    assert symbols.slab_argument(spec, np.zeros(0), np.zeros(0)).shape == (0,)
    plain = _unprofiled("hoelder-z")
    assert symbols.slab_argument(plain, 0.0) is None
    assert symbols.slab_argument(plain, z0) is None
    assert symbols.slab_argument(plain, z0, z0 + 0.1) is None


def test_nonfinite_profile_raises():
    spec = SymbolSpec(b1=lambda p, x, xi: (1.0 + p) * xi + 0.0 * x, z_bandwidth=1.0,
                      z_profile=lambda z: np.where(np.asarray(z) > 0.5, np.nan, z))
    assert np.isfinite(eval_symbol(spec, 0.25, X, XI)).all()
    assert np.isfinite(averaged_symbol(spec, 0.0, 0.5, X, XI)).all()
    with pytest.raises(EvaluationError) as err:
        eval_symbol(spec, 0.75, X, XI)
    assert "z_profile" in str(err.value)
    with pytest.raises(EvaluationError) as err:
        averaged_symbol(spec, 0.0, 1.0, X, XI)
    assert "z_profile" in str(err.value)
    # the slab argument raises it alike for one slab and for an array of slabs
    z0 = np.array([0.0, 0.5])
    for bounds in ((0.75,), (z0 + 0.25,), (0.5, 0.625), (z0, z0 + 0.125)):
        with pytest.raises(EvaluationError, match="z_profile"):
            symbols.slab_argument(spec, *bounds)


def test_averaged_symbol_names_component_nan_past_midslab():
    spec = SymbolSpec(b1=lambda z, x, xi: xi * shaped(z, x, xi),
                      c0=lambda z, x, xi: np.full(np.broadcast(x, xi).shape,
                                                  np.nan if z > 0.5 else 0.1))
    with pytest.raises(EvaluationError) as err:
        averaged_symbol(spec, 0.0, 1.0, X, XI)
    assert "'c0'" in str(err.value)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_averaged_symbol_rejects_overflow_in_the_node_sum():
    # every node value is the largest float: the weighted sum rounds up to
    # inf for some orders, while no single node is at fault
    big = np.finfo(float).max
    spec = SymbolSpec(c0=lambda z, x, xi: np.full(np.broadcast(x, xi).shape, big))
    overflowed = 0
    for order in range(1, 17):
        expected = node_mean(spec, 0.0, 1.0, X, XI, order)
        if np.isfinite(expected).all():
            assert np.array_equal(averaged_symbol(spec, 0.0, 1.0, X, XI, order), expected)
            continue
        overflowed += 1
        with pytest.raises(EvaluationError) as err:
            averaged_symbol(spec, 0.0, 1.0, X, XI, order)
        assert "'c0'" not in str(err.value)
    assert overflowed > 0


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


@pytest.mark.parametrize("z", [np.array(0.3), 0.77, np.linspace(-1.0, 1.0, 5),
                               np.array([[0.1], [0.45], [2.3]])],
                         ids=["0-d", "scalar", "shape-5", "shape-3x1"])
def test_weierstrass_equals_sequential_sum(z):
    for alpha in (0.25, 0.5, 0.75, 1.0, 0.3):
        expected = sum(2.0 ** (-alpha * k) * np.cos(2.0 ** k * np.pi * np.asarray(z, float))
                       for k in range(symbols.WEIERSTRASS_TERMS + 1))
        got = weierstrass(z, alpha)
        assert np.shape(got) == np.shape(expected)
        assert np.array_equal(got, expected)


def test_weierstrass_weights_are_cached_and_keep_every_bit():
    # the weights are built once per alpha, read-only; a scalar and an array
    # call after the first still equal the term-by-term loop bit for bit
    z = np.linspace(-1.0, 1.0, 7)
    for alpha in (0.5, 0.3):
        weights = symbols._weierstrass_weights(alpha)
        assert symbols._weierstrass_weights(alpha) is weights
        assert not weights.flags.writeable
        for _ in range(2):
            for point in (0.77, z):
                expected = sum(2.0 ** (-alpha * k) * np.cos(2.0 ** k * np.pi * np.asarray(point))
                               for k in range(symbols.WEIERSTRASS_TERMS + 1))
                assert np.asarray(weierstrass(point, alpha)).tobytes() == \
                    np.asarray(expected).tobytes()


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


def test_lattice_is_fixed_and_read_only():
    assert symbols.LATTICE_X.shape == (64, 1)
    assert symbols.LATTICE_XI.shape == (1, 127)
    assert symbols.LATTICE_XI[0, 63] == 0.0
    assert symbols.LATTICE_XI[0, -1] == 64.0
    with pytest.raises(ValueError):
        symbols.LATTICE_X[0, 0] = 1.0


def test_lattice_derivative_trig():
    Xl, XIl = symbols.LATTICE_X, symbols.LATTICE_XI

    def f(x, xi):
        return np.sin(x) * (1.0 + np.abs(xi))

    d10 = lattice_derivative(f, 1, 0)
    expected = np.cos(Xl) * (1.0 + np.abs(XIl))
    assert np.max(np.abs(d10 - expected) / (1.0 + np.abs(XIl))) < 1e-7


def test_lattice_derivative_polynomial_xi():
    XIl = symbols.LATTICE_XI

    def f(x, xi):
        return xi ** 2 * np.ones(np.broadcast(x, xi).shape)

    d01 = lattice_derivative(f, 0, 1)
    rel = np.abs(d01 - 2.0 * XIl) / (1.0 + np.abs(XIl))
    assert np.max(rel) < 1e-6


def test_lattice_derivative_constant_is_zero():
    d = lattice_derivative(lambda x, xi: 3.0 * np.ones(np.broadcast(x, xi).shape), 1, 1)
    assert np.max(np.abs(d)) < 1e-8


def test_lattice_derivative_rejects_orders_past_check_order():
    def f(x, xi):
        return np.sin(x) * xi

    for alpha, beta in ((3, 0), (0, 3)):
        with pytest.raises(ValueError, match=f"0..{symbols.CHECK_ORDER}"):
            lattice_derivative(f, alpha, beta)


def test_estimate_seminorm_order_one():
    # f = sin(x)(1+|xi|): the (1,0) seminorm at m=1 is sup|cos x| = 1
    est = estimate_seminorm(lambda x, xi: np.sin(x) * (1.0 + np.abs(xi)),
                            alpha=1, beta=0, m=1)
    assert abs(est - 1.0) < 1e-6


def test_estimate_seminorm_xi_derivative():
    # f = xi: (0,1) derivative is 1; weight (1+|xi|)^(-1+1) = 1
    est = estimate_seminorm(lambda x, xi: xi * np.ones(np.broadcast(x, xi).shape),
                            alpha=0, beta=1, m=1)
    assert abs(est - 1.0) < 1e-6


def test_check_PL_zero_symbol():
    rep = check_PL(lambda x, xi: np.zeros(np.broadcast(x, xi).shape))
    assert rep.passed
    assert rep.worst_ratio == 0.0


def test_check_PL_degenerate_minimum():
    # vanishes at x = 0 yet satisfies the square-root bound
    def q(x, xi):
        return (1.0 - np.cos(x)) * smoothed_abs(xi)

    rep = check_PL(q)
    assert rep.passed
    assert rep.worst_ratio < 50.0


def test_check_PL_rejects_negative():
    with pytest.raises(PreconditionError) as err:
        check_PL(lambda x, xi: -np.ones(np.broadcast(x, xi).shape))
    assert "q >= 0" in str(err.value)


def _nan_everywhere(x, xi):
    return np.full(np.broadcast(x, xi).shape, np.nan)


def _nan_at_high_frequency(x, xi):
    q = smoothed_abs(xi) * np.ones(np.broadcast(x, xi).shape)
    return np.where(np.abs(xi) > 30.0, np.nan, q)


def _nan_off_lattice(x, xi):
    # finite where x is a multiple of 2 pi / 64, so only the x-differences see NaN
    steps = np.asarray(x) / (2.0 * np.pi / 64)
    q = smoothed_abs(xi) * np.ones(np.broadcast(x, xi).shape)
    return np.where(np.abs(steps - np.round(steps)) > 1e-9, np.nan, q)


@pytest.mark.parametrize("checker", [check_PL, check_QL_family])
@pytest.mark.parametrize("q", [_nan_everywhere, _nan_at_high_frequency])
def test_checkers_reject_nan_on_lattice(checker, q):
    with pytest.raises(EvaluationError):
        checker(q)


def test_checkers_fail_nan_off_lattice():
    assert np.isfinite(_nan_off_lattice(symbols.LATTICE_X, symbols.LATTICE_XI)).all()
    rep = check_PL(_nan_off_lattice)
    assert not rep.passed
    assert np.isnan(rep.worst_ratio)
    assert not check_QL_family(_nan_off_lattice).uniform


def test_check_QL_uniform_for_smoothed_abs():
    rep = check_QL_family(lambda x, xi: smoothed_abs(xi)
                          * np.ones(np.broadcast(x, xi).shape))
    assert rep.uniform


def test_check_QL_frozen_seminorm_against_scan():
    # at Delta=1 the (0,1) seminorm of exp(-|xi|_sm) in the rho=1/2 class:
    # sup (1+|xi|)^(1/2) |d/dxi exp(-|xi|_sm)| computed by direct dense scan
    rep = check_QL_family(lambda x, xi: smoothed_abs(xi)
                          * np.ones(np.broadcast(x, xi).shape))
    xi_max = symbols.LATTICE_XI.max()
    xi = np.linspace(-xi_max, xi_max, 400001)
    scan = np.max((1.0 + np.abs(xi)) ** 0.5
                  * np.abs(smoothed_abs_d(xi)) * np.exp(-smoothed_abs(xi)))
    idx = symbols.FAMILY_DELTAS.index(1.0)
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


@pytest.mark.parametrize("name", available_symbols())
def test_registry_symbol_on_a_2d_grid_names_its_component(name):
    # the registry's components take 1-d coordinates; the 2-d coordinate
    # tuples make them raise or return a wrongly shaped value, which is named
    grid = Grid(16, 2 * np.pi, dim=2)
    x = tuple(m.ravel()[:, None] for m in grid.meshes())
    xi = tuple(m.ravel()[None, :] for m in grid.frequency_meshes())
    with pytest.raises(EvaluationError, match=r"symbol component '(b1|b0|c1|c0)'.* 2-d grid"):
        eval_symbol(get_symbol(name), 0.25, x, xi)


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
