"""Slab composition, reference solutions, convergence studies, residuals."""

import os

import numpy as np
import pytest

from thinslab import ansatz
from thinslab.ansatz import (
    ExactMultiplier, FineStep, PositionError, Subdivision, SubdivisionError,
    apply_ansatz, convergence_study, reference_solution, residual_norm,
    uniform_bound_check,
)
from thinslab.propagator import (
    Averaged, Frozen, apply_slab, exact_multiplier_evolution, SlabSpec,
)
from thinslab.spectral import Field, Grid, sobolev_norm, wave_packet
from thinslab.symbols import SymbolSpec, get_symbol

from conftest import random_field, rel_err


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
        v = apply_slab(SlabSpec(k * 0.125, (k + 1) * 0.125, spec), v)
    assert rel_err(w.values, v.values) < 1e-12


def test_ansatz_partial_slab(grid64):
    spec = get_symbol("varspeed")
    sub = Subdivision(1.0, 8)
    u0 = wave_packet(grid64)
    w = apply_ansatz(spec, sub, u0, z=0.3)
    v = u0
    for k in range(2):
        v = apply_slab(SlabSpec(k * 0.125, (k + 1) * 0.125, spec), v)
    v = apply_slab(SlabSpec(0.25, 0.3, spec), v)
    assert rel_err(w.values, v.values) < 1e-12


def test_ansatz_z_validation(grid64):
    spec = get_symbol("varspeed")
    sub = Subdivision(1.0, 8)
    u0 = wave_packet(grid64)
    with pytest.raises(ValueError):
        apply_ansatz(spec, sub, u0, z=1.5)
    with pytest.raises(ValueError):
        apply_ansatz(spec, sub, u0, z=-0.1)


def test_observer_sees_every_slab(grid64):
    spec = get_symbol("translation")
    sub = Subdivision(1.0, 8)
    u0 = wave_packet(grid64)
    seen = []
    apply_ansatz(spec, sub, u0, observer=lambda k, zk, f: seen.append((k, zk)))
    assert [k for k, _ in seen] == list(range(1, 9))
    assert abs(seen[-1][1] - 1.0) < 1e-12


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


def test_uniform_bound_zero_symbol(grid64):
    spec = SymbolSpec(x_independent=True, z_independent=True)
    u0 = wave_packet(grid64)
    rep = uniform_bound_check(spec, [u0], 1.0, (8, 16))
    assert abs(rep.sup_ratio - 1.0) < 1e-12


def test_uniform_bound_damping_contracts(grid64):
    spec = get_symbol("damped")
    family = [wave_packet(grid64), random_field(grid64, 1)]
    rep = uniform_bound_check(spec, family, 0.0, (8, 16, 32))
    assert rep.sup_ratio <= 1.0 + 0.01
