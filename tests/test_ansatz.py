"""Slab composition, reference solutions, convergence studies, residuals."""

import itertools
import os

import numpy as np
import pytest

from thinslab import ansatz, oneway, propagator, spectral, symbols
from thinslab.ansatz import (
    ExactMultiplier, FineStep, PositionError, Subdivision, SubdivisionError,
    apply_ansatz, convergence_study, reference_solution, residual_norm,
    uniform_bound_check,
)
from thinslab.propagator import (
    Averaged, Frozen, exact_multiplier_evolution, SlabSpec,
)
from thinslab.spectral import Field, Grid, sobolev_norm, wave_packet
from thinslab.symbols import SymbolSpec, get_symbol

from conftest import random_field, rel_err, slab_samples


def test_subdivision_validation():
    with pytest.raises(SubdivisionError):
        Subdivision(0.0, 4)
    with pytest.raises(SubdivisionError):
        Subdivision(1.0, 0)
    with pytest.raises(SubdivisionError):
        Subdivision(1.0, 4)              # step 1/4 > default delta_max
    sub = Subdivision(1.0, 8)
    assert sub.step == 0.125


def test_ansatz_endpoint_equals_composition(grid64):
    # z at a subdivision point: exactly k slab applications, no partial slab
    spec = get_symbol("varspeed")
    sub = Subdivision(1.0, 8)
    u0 = wave_packet(grid64)
    w = apply_ansatz(spec, sub, u0, z=0.375)
    v = u0
    for k in range(3):
        v = slab_samples(SlabSpec(k * 0.125, (k + 1) * 0.125, spec), v)
    assert rel_err(w.values, v.values) < 1e-12


def test_ansatz_partial_slab(grid64):
    spec = get_symbol("varspeed")
    sub = Subdivision(1.0, 8)
    u0 = wave_packet(grid64)
    w = apply_ansatz(spec, sub, u0, z=0.3)
    v = u0
    for k in range(2):
        v = slab_samples(SlabSpec(k * 0.125, (k + 1) * 0.125, spec), v)
    v = slab_samples(SlabSpec(0.25, 0.3, spec), v)
    assert rel_err(w.values, v.values) < 1e-12


def test_ansatz_z_validation(grid64):
    spec = get_symbol("varspeed")
    sub = Subdivision(1.0, 8)
    u0 = wave_packet(grid64)
    with pytest.raises(ValueError):
        apply_ansatz(spec, sub, u0, z=1.5)
    with pytest.raises(ValueError):
        apply_ansatz(spec, sub, u0, z=-0.1)


@pytest.mark.parametrize("n_slabs", [24, 100])
def test_every_slab_of_a_subdivision_shares_one_cell(n_slabs):
    # the step has few enough bits that every full slab [k step, (k + 1) step]
    # has the thickness step bit for bit, so a depth-free march of N band
    # slabs probes one point cell and takes A_b from it N - 1 times; with
    # step = 1 / N, N = 100 gave 8 distinct thicknesses and 33 probes
    sub = Subdivision(1.0, n_slabs)
    assert {(k + 1) * sub.step - k * sub.step for k in range(n_slabs)} == {sub.step}
    assert abs(n_slabs * sub.step - 1.0) < 1e-14
    assert Subdivision(1.0, 64).step == 1.0 / 64      # a dyadic step is kept as it is
    propagator.reset_counts()
    apply_ansatz(get_symbol("varspeed"), sub, wave_packet(Grid(256, 2 * np.pi)))
    counts = propagator.counters
    assert counts["band_sums"] == n_slabs and counts["band_reuses"] == n_slabs - 1
    assert counts["band_cells"] == counts["cell_nodes"] == 1


@pytest.mark.parametrize("variant", [Frozen(), Averaged()], ids=["frozen", "averaged"])
@pytest.mark.parametrize("name", ["hoelder-z", "varspeed-z"])
def test_march_is_bitwise_the_slab_by_slab_loop(name, variant):
    # the march takes the slab arguments of its full slabs from one profile
    # call, and the band coefficients of each block of 8 full slabs from one
    # Chebyshev product; applying one SlabSpec at a time, each deriving its
    # own argument and taking a product of its own, gives the same
    # coefficients bit for bit, after every full slab as the observer sees
    # them and at the end.  z = 0.3 lies between the points of 32 slabs, so
    # that march ends with a partial slab, which takes its own call.  At
    # n = 128 the tile fits of 100 slabs resolve on 64 points and those of
    # 260 on 32, and both counts cut their last block short; varspeed-z at
    # 32 slabs fits no tile
    spec, grid = get_symbol(name), Grid(128, 2 * np.pi)
    u0 = wave_packet(grid)
    for sub, z in itertools.product([Subdivision(1.0, n) for n in (32, 100, 260)], (1.0, 0.3)):
        propagator.reset_counts()
        seen = []
        got = apply_ansatz(spec, sub, u0, z=z, variant=variant,
                           observer=lambda k, zk, c: seen.append((k, zk, c.coeffs.tobytes())))
        calls, products = symbols.counters["slab_arguments"], propagator.counters["band_products"]
        fitted = any(cell.point is None and cell.coef is not None
                     for cell in propagator._band_cell.values())
        propagator.reset_counts()
        k_full, rem = ansatz._split_depth(sub, z)
        c, want = spectral.forward(u0), []
        for k in range(k_full):
            slab = SlabSpec(k * sub.step, (k + 1) * sub.step, spec, variant)
            c = propagator.apply_slab(slab, c)
            want.append((k + 1, (k + 1) * sub.step, c.coeffs.tobytes()))
        if rem > 0.0:
            c = propagator.apply_slab(
                SlabSpec(k_full * sub.step, k_full * sub.step + rem, spec, variant), c)
        assert seen == want
        assert got.values.tobytes() == spectral.inverse(c).values.tobytes()
        assert calls == 1 + (rem > 0.0)
        assert symbols.counters["slab_arguments"] == k_full + (rem > 0.0)
        # slab 0 builds the point cell and takes no product, and slab 1 the
        # tile fit, which takes one product for slabs 1 to 7: one per block,
        # where the loop takes one per slab from slab 1.  The partial slab,
        # of another thickness, builds a point cell of its own
        assert fitted == ((name, sub.n_slabs) != ("varspeed-z", 32))
        assert products == -(-k_full // 8) * fitted
        assert propagator.counters["band_products"] == (k_full - 1) * fitted


@pytest.mark.parametrize("z", [1.0, 0.3])
@pytest.mark.parametrize("n_slabs", [64, 100, 260])
def test_no_cell_keeps_block_rows_after_a_march(n_slabs, z):
    # the slabs of a block take every row its product left in their cell,
    # a block cut short at the end of the march included, for both variants
    # of the study and again from the cells the first variant fitted
    u0 = wave_packet(Grid(128, 2 * np.pi))
    for name in ("hoelder-z", "varspeed-z"):
        propagator.reset_counts()
        for variant in (Frozen(), Averaged(), Frozen()):
            apply_ansatz(get_symbol(name), Subdivision(1.0, n_slabs), u0, z=z, variant=variant)
            assert not any(cell.rows for cell in propagator._band_cell.values())
        assert propagator.counters["band_products"] > 0


def test_z_at_the_end_takes_every_slab_and_no_partial_one():
    # n_slabs * step differs from Z in its last bits once the step is
    # rounded, so z = Z is taken as the end of the last full slab
    for Z in (1.0, 0.3):
        for n in range(1, 300):
            assert ansatz._split_depth(Subdivision(Z, n, delta_max=Z), Z) == (n, 0.0), (Z, n)


def test_observer_sees_every_slab(grid64):
    spec = get_symbol("translation")
    sub = Subdivision(1.0, 8)
    u0 = wave_packet(grid64)
    seen = []
    apply_ansatz(spec, sub, u0, observer=lambda k, zk, f: seen.append((k, zk)))
    assert [k for k, _ in seen] == list(range(1, 9))
    assert abs(seen[-1][1] - 1.0) < 1e-12


def test_march_transforms_once_at_each_end():
    # every Delta = 1/64 varspeed slab at n = 256 is a band slab, which maps
    # coefficients to coefficients: the march takes one forward transform of
    # u0 and one inverse of the result, and an observer reads the coefficients.
    # A lens slab takes the full band, which maps coefficients as well
    grid = Grid(256, 2 * np.pi)
    spec, sub, u0 = get_symbol("varspeed"), Subdivision(1.0, 64), wave_packet(grid)
    propagator.reset_counts()
    plain = apply_ansatz(spec, sub, u0)
    assert propagator.counters["band_sums"] == 64 and propagator.counters["full_band_sums"] == 0
    assert spectral.counters["transforms"] == 2
    propagator.reset_counts()
    seen = []
    observed = apply_ansatz(spec, sub, u0, observer=lambda k, zk, f: seen.append(k))
    assert seen == list(range(1, 65))
    assert spectral.counters["transforms"] == 2
    assert observed.values.tobytes() == plain.values.tobytes()
    aperture = oneway.ApertureConfig(theta1=np.pi / 12.0, theta2=np.pi * 50.0 / 180.0, tau=32.0)
    lens = oneway.oneway_symbol_spec(oneway.lens_medium(), aperture)
    propagator.reset_counts()
    apply_ansatz(lens, Subdivision(1.0, 8), u0)
    assert propagator.counters["band_sums"] == 0 and propagator.counters["full_band_sums"] == 8
    assert spectral.counters["transforms"] == 2


def test_averaged_telescopes_to_exact_multiplier(grid64):
    # x-independent symbol: slab means stack into the full z-integral
    spec = SymbolSpec(b1=lambda z, x, xi: (1.0 + z * z) * xi
                      * np.ones(np.broadcast(x, xi).shape), x_independent=True)
    u0 = wave_packet(grid64)
    exact = exact_multiplier_evolution(spec, 0.0, 1.0, u0)
    for n in (1, 8, 64):
        sub = Subdivision(1.0, n, delta_max=1.0)
        w = apply_ansatz(spec, sub, u0, variant=Averaged())
        assert rel_err(w.values, exact.values) < 1e-11


def test_reference_solution_modes(grid64):
    spec = get_symbol("translation")
    u0 = wave_packet(grid64)
    a = reference_solution(spec, u0, 1.0, ExactMultiplier())
    b = reference_solution(spec, u0, 1.0, FineStep(64))
    assert rel_err(b.values, a.values) < 1e-11
    with pytest.raises(ValueError):
        reference_solution(spec, u0, 1.0, FineStep(0))
    with pytest.raises(TypeError, match="unknown reference mode 'exact'"):
        reference_solution(spec, u0, 1.0, "exact")


def test_residual_norm_positions(grid64):
    spec = get_symbol("varspeed")
    sub = Subdivision(1.0, 16)
    u0 = wave_packet(grid64)
    with pytest.raises(PositionError):
        residual_norm(spec, sub, u0, 0.125, 1.0)       # on a subdivision point
    r = residual_norm(spec, sub, u0, 0.40625, 1.0)     # mid-slab
    assert np.isfinite(r) and r > 0


def test_residual_small_for_exact_flow(grid64):
    # x-independent frozen z-independent symbol: the slab IS the flow,
    # so (d/dz + a) applied to it nearly vanishes
    spec = get_symbol("halfwave")
    sub = Subdivision(1.0, 16)
    u0 = wave_packet(grid64)
    r = residual_norm(spec, sub, u0, 0.40625, 1.0, h_z=sub.step / 1024.0)
    assert r < 1e-5 * sobolev_norm(u0, 1.0)


def test_convergence_study_exact_flag(grid64):
    spec = get_symbol("translation")
    u0 = wave_packet(grid64)
    rep = convergence_study(spec, u0, 1.0, (1, 8), Averaged(), ExactMultiplier(),
                            delta_max=1.0)
    assert rep.exact
    assert all(e < 1e-10 for e in rep.normalized_errors)
    assert np.isnan(rep.fitted_slope)


def test_convergence_study_orders_and_guards(grid64):
    spec = get_symbol("varspeed")
    u0 = wave_packet(grid64)
    with pytest.raises(ValueError):
        convergence_study(spec, u0, 1.0, (8, 8), Frozen(), FineStep(64))
    with pytest.raises(ValueError):
        convergence_study(spec, u0, 1.0, (16, 8), Frozen(), FineStep(128))
    with pytest.raises(ValueError):
        # reference must be at least 8x the finest study resolution
        convergence_study(spec, u0, 1.0, (8, 16), Frozen(), FineStep(64))


def test_convergence_study_varspeed_small(grid64):
    spec = get_symbol("varspeed")
    u0 = wave_packet(grid64)
    rep = convergence_study(spec, u0, 1.0, (8, 16, 32), Frozen(), FineStep(256))
    assert not rep.exact
    assert rep.fitted_slope > 0.45
    assert rep.errors[0] > rep.errors[1] > rep.errors[2]
    assert rep.reference_cross_check < 0.05 * rep.normalized_errors[-1] \
        or rep.reference_cross_check < 1e-3
    assert rep.reference_kind == "fine-step:256"
    # normalization uses the H^(s+1) datum norm
    assert abs(rep.u0_norm - sobolev_norm(u0, 2.0)) < 1e-12 * rep.u0_norm


def test_convergence_study_refit_drops_the_coarsest(grid64, monkeypatch):
    # a poor fit is repeated without the two largest Delta, i.e. the coarsest N
    u0 = wave_packet(grid64)
    scale = sobolev_norm(u0, 1.0) / sobolev_norm(u0, 0.0)
    wanted = {8: 1.0, 16: 0.1, 32: 0.05, 64: 0.025}
    monkeypatch.setattr(ansatz, "reference_solution",
                        lambda spec, u0, *args: Field(u0.grid, np.zeros(u0.grid.shape)))
    monkeypatch.setattr(ansatz, "apply_ansatz", lambda spec, sub, u0, **kw: Field(
        u0.grid, wanted[sub.n_slabs] * scale * u0.values))
    rep = convergence_study(get_symbol("varspeed"), u0, 0.0, tuple(wanted), Frozen(),
                            FineStep(512))
    assert np.allclose(rep.normalized_errors, tuple(wanted.values()), rtol=1e-12)
    assert rep.dropped_coarsest
    assert abs(rep.fitted_slope - 1.0) < 1e-9


def test_uniform_bound_zero_symbol(grid64):
    spec = SymbolSpec(x_independent=True, z_independent=True)
    u0 = wave_packet(grid64)
    rep = uniform_bound_check(spec, [u0], 1.0, (8, 16))
    assert abs(rep.sup_ratio - 1.0) < 1e-12


def test_uniform_bound_propagates_nan_ratios(grid64):
    # <xi>^400 overflows, so every ratio is inf/inf: the sup must not read 0
    with np.errstate(over="ignore", invalid="ignore"):
        rep = uniform_bound_check(get_symbol("varspeed"), [wave_packet(grid64)], 400.0, (8, 16))
    assert np.isnan(rep.sup_ratio)
    assert all(np.isnan(r) for r in rep.per_n)


def test_uniform_bound_damping_contracts(grid64):
    spec = get_symbol("damped")
    family = [wave_packet(grid64), random_field(grid64, 1)]
    rep = uniform_bound_check(spec, family, 0.0, (8, 16, 32))
    assert rep.sup_ratio <= 1.0 + 0.01
