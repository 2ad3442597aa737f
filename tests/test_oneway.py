"""One-way vertical wavenumber, angular damping, and downward continuation."""

import numpy as np
import pytest

from thinslab import oneway, propagator, symbols
from thinslab.oneway import (
    AcousticMedium, ApertureConfig, ApertureError, BandLimitError, MediumError,
    bplus_joint, build_bplus, build_damping, check_band_limit,
    downward_continue, energy_partition, homogeneous_medium, lens_medium,
    oneway_symbol_spec, partition_bins, validate_medium,
)
from thinslab.spectral import Field, Grid, forward, inverse, SpectralField
from thinslab.symbols import (
    averaged_symbol, check_PL, eval_symbol, recommended_quadrature_order,
)

from conftest import rel_err, slab_samples

AP = ApertureConfig(theta1=np.pi / 12.0, theta2=np.pi * 50.0 / 180.0, tau=32.0)


def test_aperture_validation():
    with pytest.raises(ApertureError):
        ApertureConfig(theta1=0.0, theta2=1.0, tau=1.0)
    with pytest.raises(ApertureError):
        ApertureConfig(theta1=0.9, theta2=0.5, tau=1.0)
    with pytest.raises(ApertureError):
        ApertureConfig(theta1=0.3, theta2=np.pi / 2.0, tau=1.0)
    with pytest.raises(ApertureError):
        ApertureConfig(theta1=0.3, theta2=0.8, tau=0.0)


def test_medium_validation():
    with pytest.raises(MediumError):
        AcousticMedium(c=lambda x, z: 1.0, c_bounds=(0.0, 1.0))
    with pytest.raises(MediumError):
        AcousticMedium(c=lambda x, z: 1.0, c_bounds=(2.0, 1.0))
    med = lens_medium()
    validate_medium(med, np.linspace(0, 2 * np.pi, 9), [0.0, 1.0])
    bad = AcousticMedium(c=lambda x, z: 5.0 + 0.0 * np.asarray(x), c_bounds=(0.9, 1.1))
    with pytest.raises(MediumError):
        validate_medium(bad, np.linspace(0, 2 * np.pi, 9), [0.0])
    nan = AcousticMedium(c=lambda x, z: np.nan + 0.0 * np.asarray(x), c_bounds=(0.9, 1.1))
    with pytest.raises(MediumError):
        validate_medium(nan, np.linspace(0, 2 * np.pi, 9), [0.0])


def test_bplus_vertical_incidence():
    # c == 1, xi = 0: vertical wavenumber equals tau
    b = build_bplus(homogeneous_medium(), AP)
    v = b(0.0, np.array([[0.0]]), np.array([[0.0]]))
    assert abs(v[0, 0] - 32.0) < 1e-12


def test_bplus_on_aperture_edge():
    # |xi| = sin(theta1) tau: b+ = cos(theta1) tau, still in the exact branch
    b = build_bplus(homogeneous_medium(), AP)
    xi = np.sin(AP.theta1) * 32.0
    v = b(0.0, np.array([[0.0]]), np.array([[xi]]))
    assert abs(v[0, 0] - np.cos(AP.theta1) * 32.0) < 1e-10


def test_bplus_lens_sound_speed():
    # c(0) = 1.1 for the default lens; at xi = 0, tau = 1: b+ = 1/1.1
    ap = ApertureConfig(theta1=np.pi / 6.0, theta2=np.pi * 50.0 / 180.0, tau=1.0)
    b = build_bplus(lens_medium(), ap)
    v = b(0.0, np.array([[0.0]]), np.array([[0.0]]))
    assert abs(v[0, 0] - 1.0 / 1.1) < 1e-12


def test_bplus_floor_keeps_positive():
    # far beyond the evanescent edge the floored root stays at its positive floor
    b = build_bplus(homogeneous_medium(), AP)
    v = b(0.0, np.array([[0.0]]), np.array([[200.0]]))
    floor = (np.cos(AP.theta2) / 4.0) * 32.0
    assert v[0, 0] >= 0.9 * floor
    assert np.isfinite(v[0, 0])


def test_bplus_joint_degree_one():
    # joint scaling (tau, xi) -> (lam tau, lam xi) scales b+ by lam exactly
    bj = bplus_joint(lens_medium(), AP)
    x = np.array([[0.7]])
    rng = np.random.default_rng(3)
    for _ in range(50):
        tau = rng.uniform(0.5, 60.0)
        xi = rng.uniform(-1.2, 1.2) * tau
        lam = rng.uniform(0.1, 20.0)
        a = bj(0.0, x, lam * tau, np.array([[lam * xi]]))
        b = lam * bj(0.0, x, tau, np.array([[xi]]))
        assert abs(a[0, 0] - b[0, 0]) < 1e-10 * max(1.0, abs(b[0, 0]))


def _ramp_as_one_expression(t):
    """The quintic ramp as one expression, a temporary per operation."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def test_in_place_symbols_are_bitwise_their_expressions():
    # b+, the damping c1, the quintic ramp and smoothed_abs evaluate in place
    # in one or two tables, with the operations of the one-expression forms
    # below in the same order, so every table is theirs bit for bit: on the
    # lens lattice of a one-way run (n = 256, tau = 32), at a scalar, and at
    # both ends of the ramp and between them
    medium, grid = lens_medium(), Grid(256, 2 * np.pi)
    x, xi = grid.meshes()[0][:, None], grid.frequency_meshes()[0][None, :]
    mu, tau = np.cos(AP.theta2) / 4.0, AP.tau
    s1, s2 = np.sin(AP.theta1), np.sin(AP.theta2)

    def b_expression(x, xi):
        c = np.asarray(medium.c(x, 0.0), dtype=float)
        disc = (tau / c) ** 2 - np.asarray(xi, dtype=float) ** 2
        floor = (mu * tau) ** 2
        u = (disc - floor) / floor
        return np.sqrt(floor * (1.0 + u * _ramp_as_one_expression(u)))

    def c1_expression(x, xi):
        c = np.asarray(medium.c(x, 0.0), dtype=float)
        t = (np.abs(c * np.asarray(xi, dtype=float) / tau) - s1) / (s2 - s1)
        return 2.0 * abs(tau) * _ramp_as_one_expression(t)

    b, c1 = build_bplus(medium, AP), build_damping(medium, AP, scale=2.0)
    for got, want in ((b(0.0, x, xi), b_expression(x, xi)),
                      (c1(0.0, x, xi), c1_expression(x, xi)),
                      (b(0.0, 0.7, 20.0), b_expression(0.7, 20.0)),
                      (c1(0.0, 0.7, 20.0), c1_expression(0.7, 20.0))):
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    # the lattice meets every piece of both ramps: floored (u <= 0), blended
    # and exact (u >= 1), and undamped (t <= 0), ramped and saturated (t >= 1)
    c = medium.c(x, 0.0)
    u = ((tau / c) ** 2 - xi ** 2 - (mu * tau) ** 2) / (mu * tau) ** 2
    t = (np.abs(c * xi / tau) - s1) / (s2 - s1)
    for values in (u, t):
        assert (values <= 0).any() and ((0 < values) & (values < 1)).any() and (values >= 1).any()
    ramp = np.concatenate((np.linspace(-0.5, 1.5, 2001), [0.0, 1.0, -0.0]))
    assert symbols._smoothstep(ramp).tobytes() == _ramp_as_one_expression(ramp).tobytes()
    r = np.abs(ramp * 2.0)
    assert symbols.smoothed_abs(ramp * 2.0).tobytes() == (
        _ramp_as_one_expression((r - 0.25) / 0.75) * r).tobytes()


def test_damping_profile():
    c1 = build_damping(homogeneous_medium(), AP, scale=2.0)
    x = np.array([[0.0]])
    inside = c1(0.0, x, np.array([[np.sin(AP.theta1) * 32.0 * 0.5]]))
    assert inside[0, 0] == 0.0
    beyond = c1(0.0, x, np.array([[np.sin(AP.theta2) * 32.0 * 1.5]]))
    assert abs(beyond[0, 0] - 2.0 * 32.0) < 1e-12
    mid_angle = 0.5 * (np.sin(AP.theta1) + np.sin(AP.theta2))
    between = c1(0.0, x, np.array([[mid_angle * 32.0]]))
    assert 0.0 < between[0, 0] < 2.0 * 32.0


def test_damping_scale_validation():
    with pytest.raises(ValueError):
        build_damping(homogeneous_medium(), AP, scale=-1.0)


def test_damping_satisfies_derivative_bound():
    # the angular damping is a nonnegative order-1 symbol: square-root bound holds
    c1 = build_damping(lens_medium(), AP, scale=2.0)
    rep = check_PL(lambda x, xi: c1(0.0, x, xi))
    assert rep.passed


def test_oneway_symbol_spec_flags():
    spec = oneway_symbol_spec(homogeneous_medium(), AP)
    assert spec.x_independent
    assert spec.z_independent
    lens = oneway_symbol_spec(lens_medium(), AP)
    assert not lens.x_independent
    assert lens.z_independent
    # the flags agree with evaluation: equal rows at two x, equal tables at two z
    xa = np.array([[0.5], [2.5]])
    xi = np.linspace(-40, 40, 17)[None, :]
    a = eval_symbol(spec, 0.25, xa, xi)
    assert np.max(np.abs(a[0] - a[1])) < 1e-13
    assert np.max(np.abs(eval_symbol(spec, 0.1, xa, xi) - eval_symbol(spec, 0.9, xa, xi))) < 1e-13
    assert np.max(np.abs(eval_symbol(lens, 0.1, xa, xi) - eval_symbol(lens, 0.9, xa, xi))) < 1e-13


def test_partition_bins_cover_grid():
    g = Grid(256, 2 * np.pi)
    lens = lens_medium()
    inside, between, outside = partition_bins(g, lens, AP)
    assert np.all(inside | between | outside)
    assert not np.any(inside & outside)
    assert not np.any(inside & between)
    # mode 28 is beyond theta2 for the lens bounds; mode 6 is inside theta1
    k = np.arange(256) - 128
    assert outside[k == 28]
    assert inside[k == 6]
    assert between[k == 14]
    assert between[k == 26]


def test_energy_partition_sums_to_total():
    g = Grid(256, 2 * np.pi)
    lens = lens_medium()
    rng = np.random.default_rng(5)
    u = Field(g, rng.standard_normal(256) + 1j * rng.standard_normal(256))
    e = energy_partition(forward(u), lens, AP)
    total = np.sum(np.abs(forward(u).coeffs) ** 2)
    assert abs(sum(e) - total) < 1e-10 * total


def test_band_limit_guard():
    g = Grid(256, 2 * np.pi)
    x = g.axis_points()
    med = homogeneous_medium()
    # mode 40 exceeds 0.98 tau / c_max = 31.36
    bad = Field(g, np.exp(1j * 40 * x))
    with pytest.raises(BandLimitError):
        check_band_limit(bad, med, AP)
    good = Field(g, np.exp(1j * 8 * x))
    check_band_limit(good, med, AP)
    with pytest.raises(BandLimitError):
        downward_continue(med, AP, bad, 1.0, 16)


def test_homogeneous_phase_advance():
    g = Grid(256, 2 * np.pi)
    x = g.axis_points()
    med = homogeneous_medium()
    for mode in (0, 3, 10):
        u0 = Field(g, np.exp(1j * mode * x))
        uz = downward_continue(med, AP, u0, 1.0, 64, damping_scale=0.0)
        expected = np.exp(1j * np.sqrt(32.0 ** 2 - mode ** 2))
        assert np.max(np.abs(uz.values / u0.values - expected)) < 1e-9


def test_steep_mode_decays():
    # a mode beyond theta2 is damped like e^(-Z scale |tau|)
    g = Grid(256, 2 * np.pi)
    x = g.axis_points()
    med = homogeneous_medium()
    mode = 30                      # sin(theta2)*32 = 24.5 < 30 < 31.36
    u0 = Field(g, np.exp(1j * mode * x))
    uz = downward_continue(med, AP, u0, 0.25, 16, damping_scale=2.0)
    amp = np.max(np.abs(uz.values))
    assert amp < np.exp(-0.25 * 2.0 * 32.0) * 1.001
    assert amp > 0.0


def test_homogeneous_support_never_grows():
    # multiplier structure: modes absent from u0 stay absent
    g = Grid(256, 2 * np.pi)
    med = homogeneous_medium()
    coeffs = np.zeros(256, dtype=np.complex128)
    for mode in (2, 5, 9):
        coeffs[128 + mode] = 1.0
    u0 = inverse(SpectralField(g, coeffs))
    uz = downward_continue(med, AP, u0, 1.0, 32, damping_scale=2.0)
    out = forward(uz).coeffs
    empty = np.abs(coeffs) == 0.0
    assert np.max(np.abs(out[empty])) < 1e-10


def test_damping_monotone_along_rays():
    c1 = build_damping(lens_medium(), AP, scale=2.0)
    x = np.array([[0.3], [2.1]])
    xi = np.linspace(0.0, 64.0, 257)[None, :]
    vals = c1(0.0, x, xi)
    assert np.all(np.diff(vals, axis=1) >= -1e-12)


def test_observer_depths():
    g = Grid(256, 2 * np.pi)
    med = homogeneous_medium()
    u0 = Field(g, np.exp(1j * 4 * g.axis_points()))
    depths = []
    downward_continue(med, AP, u0, 0.5, 8, damping_scale=0.0,
                      observer=lambda k, zk, f: depths.append(zk))
    assert len(depths) == 8
    assert abs(depths[-1] - 0.5) < 1e-12


def test_z_dependent_medium_averaged_slab():
    # c = 1 + 0.1 z: the averaged slab must run the quadrature, not freeze
    med = AcousticMedium(c=lambda x, z: (1.0 + 0.1 * z) * np.ones(np.shape(x)),
                         c_bounds=(1.0, 1.1))
    spec = oneway_symbol_spec(med, AP)
    assert not spec.z_independent
    assert oneway_symbol_spec(lens_medium(), AP).z_independent
    g = Grid(64, 2 * np.pi)
    rng = np.random.default_rng(6)
    u = Field(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    z0, z1 = 0.5, 0.625
    averaged = slab_samples(propagator.SlabSpec(z0, z1, spec, propagator.Averaged()), u)
    frozen = slab_samples(propagator.SlabSpec(z0, z1, spec, propagator.Frozen()), u)
    xi = g.axis_frequencies()
    mean_a = averaged_symbol(spec, z0, z1, 0.0, xi, recommended_quadrature_order(spec, z1 - z0))
    expected = inverse(SpectralField(g, forward(u).coeffs * np.exp(-(z1 - z0) * mean_a)))
    assert rel_err(averaged.values, expected.values) < 1e-12
    assert rel_err(frozen.values, averaged.values) > 1e-3
