"""Single-slab application, dense matrices, and H^s operator norms."""

from dataclasses import replace

import numpy as np
import pytest

from thinslab import propagator
from thinslab.propagator import (
    Averaged, ContractViolation, Frozen, MatrixSizeError, PropagatorMatrix,
    SlabError, SlabSpec, VariantError, apply_slab, apply_symbol_operator,
    assemble_matrix, exact_multiplier_evolution, operator_norm_hs,
    semigroup_defect,
)
from thinslab.spectral import (
    Field, Grid, _bracket_lattice, forward, inverse, sobolev_norm,
)
from thinslab.symbols import SymbolSpec, get_symbol

from conftest import random_field, rel_err


def ones_like(z, x, xi):
    return np.ones(np.broadcast(x, xi).shape)


def kernel_sum_oracle(spec, z, delta, field, averaged=False):
    """Direct per-point evaluation of the slab formula, no vectorization.

    u'(x_j) = (1/sqrt n) sum_k e^(i xi_k x_j) e^(-delta a(z, x_j, xi_k)) u_hat_k
    """
    from thinslab.symbols import averaged_symbol, eval_symbol
    grid = field.grid
    n = grid.n_points
    x = grid.axis_points()
    xi = grid.axis_frequencies()
    u_hat = forward(field).coeffs
    out = np.zeros(n, dtype=np.complex128)
    for j in range(n):
        acc = 0.0 + 0.0j
        for k in range(n):
            if averaged:
                a = averaged_symbol(spec, z, z + delta,
                                    np.array([[x[j]]]), np.array([[xi[k]]]))[0, 0]
            else:
                a = eval_symbol(spec, z, np.array([[x[j]]]),
                                np.array([[xi[k]]]))[0, 0]
            acc += np.exp(1j * xi[k] * x[j]) * np.exp(-delta * a) * u_hat[k]
        out[j] = acc / np.sqrt(n)
    return Field(grid, out)


def test_slab_spec_validation():
    spec = SymbolSpec()
    with pytest.raises(SlabError):
        SlabSpec(0.5, 0.5, spec)
    with pytest.raises(SlabError):
        SlabSpec(-0.1, 0.0, spec)
    with pytest.raises(SlabError):
        SlabSpec(0.0, 0.5, spec)          # exceeds default delta_max
    with pytest.raises(VariantError):
        SlabSpec(0.0, 0.1, spec, variant="frozen")
    s = SlabSpec(0.0, 0.125, spec)
    assert s.thickness == 0.125


def test_zero_symbol_is_identity(grid64):
    slab = SlabSpec(0.0, 0.125, SymbolSpec(x_independent=True, z_independent=True))
    for seed in range(10):
        u = random_field(grid64, seed)
        v = apply_slab(slab, u)
        assert rel_err(v.values, u.values) < 1e-12


def test_translation_slab_shifts(grid64):
    # b1 = xi translates by delta; one grid spacing shifts samples by one slot
    spec = get_symbol("translation")
    delta = grid64.spacing * 5
    slab = SlabSpec(0.0, delta, spec, delta_max=1.0)
    u = random_field(grid64, 1)
    v = apply_slab(slab, u)
    assert rel_err(v.values, np.roll(u.values, -5)) < 1e-12


def test_constant_damping_scalar():
    # a = gamma: output is e^(-delta gamma) times the input
    g = Grid(32, 2 * np.pi)
    gamma = 0.7
    spec = SymbolSpec(c0=lambda z, x, xi: gamma * ones_like(z, x, xi),
                      x_independent=True, z_independent=True)
    slab = SlabSpec(0.0, 0.1, spec)
    u = random_field(g, 2)
    v = apply_slab(slab, u)
    assert rel_err(v.values, np.exp(-0.1 * gamma) * u.values) < 1e-13


def test_dense_path_matches_kernel_sum_oracle():
    g = Grid(32, 2 * np.pi)
    spec = get_symbol("varspeed")
    slab = SlabSpec(0.0, 1.0 / 16.0, spec)
    u = random_field(g, 3)
    fast = apply_slab(slab, u)
    slow = kernel_sum_oracle(spec, 0.0, 1.0 / 16.0, u)
    assert rel_err(fast.values, slow.values) < 1e-12


def test_averaged_path_matches_kernel_sum_oracle():
    g = Grid(32, 2 * np.pi)
    spec = get_symbol("varspeed-z")
    slab = SlabSpec(0.25, 0.25 + 1.0 / 16.0, spec, Averaged())
    u = random_field(g, 4)
    fast = apply_slab(slab, u)
    slow = kernel_sum_oracle(spec, 0.25, 1.0 / 16.0, u, averaged=True)
    assert rel_err(fast.values, slow.values) < 1e-12


def test_multiplier_fast_path_matches_dense(grid64):
    # same symbol declared x-independent and not: identical output
    def b1(z, x, xi):
        return np.sin(xi) * np.ones(np.broadcast(x, xi).shape)

    fast_spec = SymbolSpec(b1=b1, x_independent=True, z_independent=True)
    dense_spec = SymbolSpec(b1=b1, z_independent=True)
    u = random_field(grid64, 5)
    a = apply_slab(SlabSpec(0.0, 0.1, fast_spec), u)
    b = apply_slab(SlabSpec(0.0, 0.1, dense_spec), u)
    assert rel_err(a.values, b.values) < 1e-12


def test_variant_enforcement(grid64):
    # apply_slab takes the variant from the slab; unknown variants never get there
    spec = get_symbol("varspeed-z")
    u = random_field(grid64, 6)
    with pytest.raises(VariantError):
        SlabSpec(0.0, 0.1, spec, variant=object())
    frozen = apply_slab(SlabSpec(0.0, 0.1, spec, Frozen()), u)
    averaged = apply_slab(SlabSpec(0.0, 0.1, spec, Averaged()), u)
    assert rel_err(frozen.values, averaged.values) > 1e-3


def test_apply_symbol_operator_single_mode(grid64):
    # Op(a) on e^(ikx) with x-independent a multiplies by a(xi_k)
    spec = get_symbol("translation")
    x = grid64.axis_points()
    u = Field(grid64, np.exp(1j * 7 * x))
    v = apply_symbol_operator(spec, 0.0, u)
    assert rel_err(v.values, -1j * 7.0 * u.values) < 1e-12


def test_exact_multiplier_contract(grid64):
    u = random_field(grid64, 7)
    with pytest.raises(ContractViolation):
        exact_multiplier_evolution(get_symbol("varspeed"), 0.0, 1.0, u)


def test_exact_multiplier_z_dependent(grid64):
    # a = -i(1+z)xi over [0,1]: mean is -i(3/2)xi
    spec = SymbolSpec(b1=lambda z, x, xi: (1.0 + z) * xi
                      * np.ones(np.broadcast(x, xi).shape), x_independent=True)
    u = random_field(grid64, 8)
    got = exact_multiplier_evolution(spec, 0.0, 1.0, u)
    xi = grid64.axis_frequencies()
    expected = inverse(type(forward(u))(grid64, forward(u).coeffs
                                        * np.exp(1.5j * xi)))
    assert rel_err(got.values, expected.values) < 1e-12


def _explicit_dft(grid):
    """Unitary DFT matrix, rows in the increasing-frequency order of spectral.forward.

    On a 2-D grid it is the Kronecker square of the 1-D matrix, matching the
    row-major flattening of the coefficient array.
    """
    n = grid.n_points
    k = np.arange(n) - n // 2
    F = np.exp(-2j * np.pi * np.outer(k, np.arange(n)) / n) / np.sqrt(n)
    return F if grid.dim == 1 else np.kron(F, F)


def _oracle_fourier_matrix(slab, grid):
    """F P F^H, column j of P the slab applied to the j-th point basis field."""
    P = np.empty((grid.size, grid.size), dtype=np.complex128)
    for j in range(grid.size):
        e = np.zeros(grid.size)
        e[j] = 1.0
        P[:, j] = apply_slab(slab, Field(grid, e.reshape(grid.shape))).values.ravel()
    F = _explicit_dft(grid)
    return F @ P @ F.conj().T


def _two_dimensional_spec():
    def b1(z, x, xi):
        return (1.0 + 0.2 * np.cos(x[0]) * np.sin(x[1])) * (xi[0] + 0.5 * xi[1])

    def c1(z, x, xi):
        return (0.3 + 0.1 * np.sin(x[0])) * np.sqrt(xi[0] ** 2 + xi[1] ** 2)

    return SymbolSpec(b1=b1, c1=c1, z_independent=True)


def test_matrix_columns_are_basis_images(grid64):
    # column l holds the coefficients of the slab applied to the l-th Fourier mode
    cases = ((grid64, get_symbol("damped-varspeed"), (0, 17, 63)),
             (Grid(8, 2 * np.pi, dim=2), _two_dimensional_spec(), (0, 19, 63)))
    for grid, spec, columns in cases:
        slab = SlabSpec(0.0, 0.125, spec)
        mat = assemble_matrix(slab, grid)
        F = _explicit_dft(grid)
        for l in columns:
            mode = Field(grid, F.conj()[l].reshape(grid.shape))
            col = F @ apply_slab(slab, mode).values.ravel()
            assert rel_err(mat.entries[:, l], col) < 1e-11


def test_matrix_apply_matches_direct(grid64):
    spec = get_symbol("varspeed")
    slab = SlabSpec(0.0, 0.125, spec)
    mat = assemble_matrix(slab, grid64)
    for seed in range(10):
        u = random_field(grid64, seed)
        assert rel_err(mat.apply(u).values, apply_slab(slab, u).values) < 1e-10


def test_matrix_grid_mismatch(grid64):
    mat = assemble_matrix(SlabSpec(0.0, 0.1, get_symbol("translation")), grid64)
    other = random_field(Grid(128, 2 * np.pi), 0)
    with pytest.raises(ValueError):
        mat.apply(other)


def test_matrix_size_guard():
    g = Grid(8192, 2 * np.pi)
    with pytest.raises(MatrixSizeError):
        assemble_matrix(SlabSpec(0.0, 0.1, get_symbol("translation")), g)


def test_x_independent_matrix_diagonal_in_fourier(grid64, monkeypatch):
    # the exact multiplier diagonal, against the direct kernel sum of the same
    # symbol declared x-dependent, without building a kernel table
    def drifting(z, x, xi):
        return (1.0 + z) * xi * np.ones(np.broadcast(x, xi).shape)

    def planar(z, x, xi):
        return (xi[0] + 0.5 * xi[1]) * np.ones(np.broadcast(x[0], xi[0]).shape)

    def planar_damping(z, x, xi):
        return 0.3 * np.sqrt(xi[0] ** 2 + xi[1] ** 2) * np.ones(np.broadcast(x[0], xi[0]).shape)

    def no_kernel(*args):
        raise AssertionError("x-independent assembly built a kernel table")

    cases = [(grid64, get_symbol(name), 0.0) for name in ("translation", "halfwave", "damped")]
    cases.append((grid64, SymbolSpec(b1=drifting, x_independent=True, z_bandwidth=1.0), 0.25))
    cases.append((Grid(8, 2 * np.pi, dim=2),
                  SymbolSpec(b1=planar, c1=planar_damping, x_independent=True,
                             z_independent=True), 0.0))
    for grid, spec, z in cases:
        for variant in (Frozen(), Averaged()):
            slab = SlabSpec(z, z + 0.125, spec, variant)
            with monkeypatch.context() as patch:
                patch.setattr(propagator, "_kernel_blocks", no_kernel)
                T = assemble_matrix(slab, grid).entries
            assert not np.any(T - np.diag(np.diag(T)))
            direct = replace(slab, spec=replace(spec, x_independent=False))
            oracle = _oracle_fourier_matrix(direct, grid)
            for l in range(grid.size):
                assert rel_err(T[:, l], oracle[:, l]) < 1e-12


@pytest.fixture
def norm_calls(monkeypatch):
    """Record every np.linalg.norm call, the one LAPACK call of operator_norm_hs."""
    calls = []
    norm = np.linalg.norm

    def recording(*args, **kwargs):
        calls.append(args)
        return norm(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", recording)
    return calls


def test_operator_norm_of_diagonal_matrix(grid64, norm_calls):
    # <xi>^s commutes with a diagonal matrix: max |T_kk| for every s, no SVD
    rng = np.random.default_rng(16)
    diagonal = rng.standard_normal(grid64.size) + 1j * rng.standard_normal(grid64.size)
    mat = PropagatorMatrix(grid64, np.diag(diagonal))
    for s in (0.0, 1.0, 2.5):
        w = _bracket_lattice(grid64) ** s
        T = (w[:, None] * mat.entries) / w[None, :]
        oracle = float(np.linalg.svd(T, compute_uv=False)[0])
        assert abs(operator_norm_hs(mat, s) - oracle) <= 1e-14 * oracle
    assert norm_calls == []


def test_operator_norm_with_one_off_diagonal_entry(grid64, norm_calls):
    entries = np.eye(grid64.size, dtype=np.complex128)
    entries[3, 40] = 0.5
    mat = PropagatorMatrix(grid64, entries)
    for s in (0.0, 1.0):
        w = _bracket_lattice(grid64) ** s
        oracle = float(np.linalg.svd((w[:, None] * entries) / w[None, :], compute_uv=False)[0])
        got = operator_norm_hs(mat, s)
        assert abs(got - oracle) <= 1e-12 * oracle
        assert got > 1.0 + 1e-3
    assert len(norm_calls) == 2


def test_operator_norm_identity(grid64):
    slab = SlabSpec(0.0, 0.125, SymbolSpec(x_independent=True, z_independent=True))
    mat = assemble_matrix(slab, grid64)
    for s in (0.0, 1.0, 2.0):
        assert abs(operator_norm_hs(mat, s) - 1.0) < 1e-10


def test_operator_norm_scalar_damping(grid64):
    gamma = 0.9
    spec = SymbolSpec(c0=lambda z, x, xi: gamma * np.ones(np.broadcast(x, xi).shape),
                      x_independent=True, z_independent=True)
    mat = assemble_matrix(SlabSpec(0.0, 0.125, spec), grid64)
    assert abs(operator_norm_hs(mat, 0.0) - np.exp(-0.125 * gamma)) < 1e-10


def test_operator_norm_against_svd_oracle(grid64, grid128):
    # H^s norm = largest singular value of W F P F^H W^-1, W = diag(<xi>^s),
    # with P from slab applications and F written out entry by entry
    for grid in (grid64, grid128):
        for name, s in (("varspeed", 0.0), ("varspeed", 1.0),
                        ("damped-varspeed", 1.0), ("hoelder-z", 0.0)):
            slab = SlabSpec(0.0, 1.0 / 32.0, get_symbol(name))
            w = _bracket_lattice(grid) ** s
            T = (w[:, None] * _oracle_fourier_matrix(slab, grid)) / w[None, :]
            oracle = float(np.linalg.svd(T, compute_uv=False)[0])
            mat = assemble_matrix(slab, grid)
            assert abs(operator_norm_hs(mat, s) - oracle) <= 1e-12 * oracle


def test_operator_norm_unitary_multiplier(grid64):
    # purely imaginary x-independent symbol: discrete operator is unitary
    mat = assemble_matrix(SlabSpec(0.0, 0.125, get_symbol("translation")), grid64)
    assert abs(operator_norm_hs(mat, 0.0) - 1.0) < 1e-11
    assert abs(operator_norm_hs(mat, 1.0) - 1.0) < 1e-11


def test_operator_norm_pure_damping_contracts(grid64):
    mat = assemble_matrix(SlabSpec(0.0, 0.125, get_symbol("damped")), grid64)
    assert operator_norm_hs(mat, 0.0) <= 1.0 + 1e-9


def test_l2_nonexpansion_x_dependent_damping(grid64):
    # b = 0, c1 >= 0 varying in x: growth at most 1 + C delta, C order one
    def c1(z, x, xi):
        from thinslab.symbols import smoothed_abs
        return 0.3 * (1.0 + 0.5 * np.sin(np.asarray(x, float))) * smoothed_abs(xi)

    spec = SymbolSpec(c1=c1, z_independent=True)
    delta = 1.0 / 32.0
    mat = assemble_matrix(SlabSpec(0.0, delta, spec), grid64)
    norm = operator_norm_hs(mat, 0.0)
    assert norm <= 1.0 + 1.0 * delta


def test_frozen_vs_averaged_second_order():
    # Lipschitz z-dependence: single-slab difference shrinks like delta^2
    g = Grid(64, 2 * np.pi)
    spec = get_symbol("varspeed-z")
    u = random_field(g, 9)
    diffs, deltas = [], []
    for k in (4, 5, 6, 7):
        d = 2.0 ** (-k)
        a = apply_slab(SlabSpec(0.3, 0.3 + d, spec, Frozen()), u)
        b = apply_slab(SlabSpec(0.3, 0.3 + d, spec, Averaged()), u)
        diffs.append(np.linalg.norm(a.values - b.values))
        deltas.append(d)
    slope = np.polyfit(np.log(deltas), np.log(diffs), 1)[0]
    assert slope >= 1.9


def test_semigroup_defect_x_independent(grid64):
    d = semigroup_defect(get_symbol("halfwave"), 0.0, 0.0625, 0.125, 1.0, grid64)
    assert d < 1e-10


def test_semigroup_defect_direct_matrix_oracle(grid64):
    spec = get_symbol("varspeed")
    z, zm, zt = 0.0, 0.0625, 0.125
    got = semigroup_defect(spec, z, zm, zt, 1.0, grid64)
    whole = _oracle_fourier_matrix(SlabSpec(z, zt, spec), grid64)
    lower = _oracle_fourier_matrix(SlabSpec(z, zm, spec), grid64)
    upper = _oracle_fourier_matrix(SlabSpec(zm, zt, spec), grid64)
    w = _bracket_lattice(grid64)
    T = (w[:, None] * (whole - upper @ lower)) / w[None, :]
    oracle = float(np.linalg.svd(T, compute_uv=False)[0])
    assert abs(got - oracle) < 1e-8
    assert got > 1e-4


def test_semigroup_defect_ordering(grid64):
    with pytest.raises(SlabError):
        semigroup_defect(get_symbol("varspeed"), 0.0, 0.2, 0.1, 1.0, grid64)
