"""The fused slab kernel against a naive dense sum, in 1-d and 2-d."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thinslab import oneway, propagator, symbols
from thinslab.propagator import Averaged, Frozen, SlabSpec, apply_slab, assemble_matrix
from thinslab.spectral import Grid, forward
from thinslab.symbols import EvaluationError, SymbolSpec, get_symbol

from conftest import random_field, rel_err

AP = oneway.ApertureConfig(theta1=np.pi / 12.0, theta2=np.pi * 50.0 / 180.0, tau=32.0)

SPECS = {
    "varspeed": get_symbol("varspeed"),
    "damped-varspeed": get_symbol("damped-varspeed"),
    "hoelder-z": get_symbol("hoelder-z"),
    "lens": oneway.oneway_symbol_spec(oneway.lens_medium(), AP),
}


def naive_slab(slab, field):
    """N^(-1/2) sum_k exp(i x_j . xi_k) exp(-Delta a(x_j, xi_k)) u_hat_k as one table.

    The averaged variant always runs the Gauss-Legendre quadrature here, also
    for z-independent symbols.
    """
    grid = field.grid
    xs = [m.ravel()[:, None] for m in grid.meshes()]
    xis = [m.ravel()[None, :] for m in grid.frequency_meshes()]
    x, xi = (xs[0], xis[0]) if grid.dim == 1 else (tuple(xs), tuple(xis))
    if isinstance(slab.variant, Averaged):
        order = symbols.recommended_quadrature_order(slab.spec, slab.thickness)
        a = symbols.averaged_symbol(slab.spec, slab.z, slab.z_prime, x, xi, order)
    else:
        a = symbols.eval_symbol(slab.spec, slab.z, x, xi)
    phase = np.exp(1j * sum(xc * xic for xc, xic in zip(xs, xis)))
    table = phase * np.exp(-slab.thickness * a)
    coeffs = forward(field).coeffs.ravel()
    return (table @ coeffs / np.sqrt(grid.size)).reshape(grid.shape)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(SPECS)),
       variant=st.sampled_from([Frozen(), Averaged()]),
       n=st.sampled_from([8, 16, 32]),
       z=st.floats(0.0, 1.0),
       delta=st.floats(1.0 / 256.0, 0.125),
       seed=st.integers(0, 2 ** 16))
def test_kernel_matches_naive_sum(name, variant, n, z, delta, seed):
    slab = SlabSpec(z, z + delta, SPECS[name], variant)
    u = random_field(Grid(n, 2 * np.pi), seed)
    assert rel_err(apply_slab(slab, u).values, naive_slab(slab, u)) < 1e-12


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kernel_matches_naive_sum_over_two_row_blocks(name):
    u = random_field(Grid(2 * propagator._CHUNK_ROWS, 2 * np.pi), 11)
    for variant in (Frozen(), Averaged()):
        slab = SlabSpec(0.3, 0.3 + 1.0 / 64.0, SPECS[name], variant)
        assert rel_err(apply_slab(slab, u).values, naive_slab(slab, u)) < 1e-12


def test_z_independent_averaged_equals_frozen(grid64):
    u = random_field(grid64, 12)
    for name in ("varspeed", "damped-varspeed", "lens"):
        spec = SPECS[name]
        assert spec.z_independent
        frozen = apply_slab(SlabSpec(0.2, 0.3, spec, Frozen()), u)
        averaged = apply_slab(SlabSpec(0.2, 0.3, spec, Averaged()), u)
        assert rel_err(averaged.values, frozen.values) < 1e-13


def test_z_independent_averaged_evaluates_once(grid64, monkeypatch):
    calls = []
    original = symbols.eval_symbol

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(symbols, "eval_symbol", counting)
    slab = SlabSpec(0.2, 0.3, get_symbol("varspeed"), Averaged())
    apply_slab(slab, random_field(grid64, 13))
    assert calls == [0.2]


def test_nan_component_named_through_slab(grid64):
    # z-dependent, so the averaged variant runs the slab quadrature
    spec = SymbolSpec(b1=lambda z, x, xi: (1.0 + 0.5 * z) * np.cos(x) * xi,
                      c0=lambda z, x, xi: np.where(xi > 3.0, np.nan, 0.0) + 0.0 * x,
                      z_bandwidth=1.0)
    for variant in (Frozen(), Averaged()):
        with pytest.raises(EvaluationError) as err:
            apply_slab(SlabSpec(0.0, 0.1, spec, variant), random_field(grid64, 14))
        assert "'c0'" in str(err.value)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_two_dimensional_slab_with_unset_components(n):
    # only b1 is set: the table must take the 2-d coordinate shape
    def b1(z, x, xi):
        return (1.0 + 0.2 * np.cos(x[0]) * np.sin(x[1])) * (xi[0] + 0.5 * xi[1])

    grid = Grid(n, 2 * np.pi, dim=2)
    slab = SlabSpec(0.0, 1.0 / 16.0, SymbolSpec(b1=b1, z_independent=True))
    u = random_field(grid, 15)
    got = apply_slab(slab, u).values
    assert rel_err(got, naive_slab(slab, u)) < 1e-12
    assert rel_err(got, assemble_matrix(slab, grid).apply(u).values) < 1e-12


@pytest.mark.parametrize("n", [8, 16])
def test_two_dimensional_multiplier_fast_path(n):
    # x-independent: apply_slab takes the Fourier-multiplier path, not the kernel sum
    def b1(z, x, xi):
        return xi[0] + 0.5 * xi[1]

    def c1(z, x, xi):
        return 0.1 * np.sqrt(xi[0] ** 2 + xi[1] ** 2)

    grid = Grid(n, 2 * np.pi, dim=2)
    spec = SymbolSpec(b1=b1, c1=c1, x_independent=True, z_independent=True)
    u = random_field(grid, 16)
    for variant in (Frozen(), Averaged()):
        slab = SlabSpec(0.2, 0.2 + 1.0 / 16.0, spec, variant)
        got = apply_slab(slab, u).values
        assert rel_err(got, naive_slab(slab, u)) < 1e-12
        exact = propagator.exact_multiplier_evolution(spec, slab.z, slab.z_prime, u)
        assert rel_err(got, exact.values) < 1e-12
